"""Shared lexical conventions: tokenization, number parsing, answer normalization.

Every module that compares strings (features, critique scores, answer
equality) goes through these three functions so there is exactly one
convention in the codebase.
"""
from __future__ import annotations

import re

# Lowercase word/number tokens. Decimal numerals ("3.5") survive as one
# token, and so does a number standing alone with a sign that follows no
# word character ("-5", but "2010-11" is two tokens) or with comma-grouped
# thousands ("1,000"), so that `parse_number` reads it whole. All other
# punctuation splits.
_TOKEN_RE = re.compile(r"""
    (?: (?<!\w) [+-] (?: \d{1,3} (?:,\d{3})+ | \d+ )   # signed
      | \d{1,3} (?:,\d{3})+ )                         # or comma-grouped
    (?: \.\d+ )? (?![a-z0-9])                         # and standing alone
  | \d+\.\d+ | [a-z0-9]+""", re.VERBOSE)

# Plain decimal with optional sign and optional comma thousands-separators.
# No dates, no currency, no units.
_NUMBER_RE = re.compile(r"[+-]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?")

_TRAILING_POINT_ZERO = re.compile(r"\.0+$")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def parse_number(raw: str) -> float | None:
    """Parse a cell or token as a number, or return None."""
    s = raw.strip()
    if not s or _NUMBER_RE.fullmatch(s) is None:
        return None
    return float(s.replace(",", ""))


def normalize_answer(raw: str) -> str:
    """Canonical answer form: lowercase, trimmed, inner whitespace collapsed,
    and a trailing ".0" stripped off numeric strings ("21.0" -> "21")."""
    s = " ".join(raw.strip().lower().split())
    if parse_number(s) is not None:
        s = _TRAILING_POINT_ZERO.sub("", s)
    return s
