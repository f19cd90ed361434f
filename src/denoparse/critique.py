"""Critique policy: a cheap prior over programs built from surface-form
match and lexicon co-occurrence, used to shape the search away from
programs that merely happen to produce the right answer.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .programs import KEYWORD_TOKENS, ProgramState, program_keywords, program_surface_tokens
from .scorer import left_sum, softmax
from .tables import Table


class ShapingError(ValueError):
    pass


class LexiconError(ValueError):
    pass


@dataclass(frozen=True)
class Lexicon:
    """Pairs (question token, program keyword), e.g. ("most", "MAX")."""
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen = set()
        for pair in self.pairs:
            _check_pair(pair, seen)

    def __len__(self) -> int:
        return len(self.pairs)


def _check_pair(pair: tuple[str, str], seen: set) -> None:
    """Reject an unknown keyword or a pair already in `seen`, then add it."""
    tok, kw = pair
    if kw not in KEYWORD_TOKENS:
        raise LexiconError(f"unknown program keyword {kw!r} for token {tok!r}")
    if pair in seen:
        raise LexiconError(f"duplicate lexicon pair ({tok!r}, {kw!r})")
    seen.add(pair)


EMPTY_LEXICON = Lexicon(())


def parse_lexicon(lines, source: str) -> Lexicon:
    """token<TAB>KEYWORD per line; # starts a comment. Errors name `source`
    and the line."""
    pairs, seen = [], set()
    for i, line in enumerate(lines):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t")
        try:
            if len(parts) != 2:
                raise LexiconError("expected 'token<TAB>KEYWORD'")
            pair = (parts[0].strip().lower(), parts[1].strip())
            _check_pair(pair, seen)
        except LexiconError as e:
            raise LexiconError(f"{source}: line {i + 1}: {e}") from None
        pairs.append(pair)
    return Lexicon(tuple(pairs))


def load_lexicon(path: str) -> Lexicon:
    with open(path, encoding="utf-8") as f:
        return parse_lexicon(f, path)


def default_lexicon() -> Lexicon:
    """The packaged lexicon: generic superlatives, comparators and negators."""
    data = resources.files("denoparse").joinpath("data/lexicon.txt")
    return parse_lexicon(data.read_text("utf-8").splitlines(), "denoparse/data/lexicon.txt")


def match_score(question_tokens, program: ProgramState, table: Table) -> float:
    """Fraction of the program's distinct non-keyword tokens present in the
    question; 0 for programs with no non-keyword tokens."""
    toks = program_surface_tokens(program, table)
    if not toks:
        return 0.0
    qset = set(question_tokens)
    return sum(1 for t in toks if t in qset) / len(toks)


def co_occur_score(question_tokens, program: ProgramState, lexicon: Lexicon) -> int:
    """Number of lexicon pairs whose token is in the question and whose
    keyword is in the program."""
    qset = set(question_tokens)
    kws = program_keywords(program)
    return sum(1 for tok, kw in lexicon.pairs if tok in qset and kw in kws)


def critique_score(question_tokens, program: ProgramState, table: Table,
                   lexicon: Lexicon) -> float:
    return match_score(question_tokens, program, table) + co_occur_score(
        question_tokens, program, lexicon)


def critique_policy(programs, question_tokens, table: Table, lexicon: Lexicon,
                    eta: float) -> list[float]:
    """Softmax over eta * critique_score; eta = 0 gives the uniform prior."""
    if not programs:
        raise ValueError("critique_policy needs at least one program")
    return softmax([eta * critique_score(question_tokens, p, table, lexicon)
                    for p in programs])


def shape(behavior: list[float], critique: list[float]) -> list[float]:
    """Multiply a behavior policy by a critique policy and renormalize."""
    if len(behavior) != len(critique):
        raise ShapingError("behavior and critique must share a support")
    prod = [b * c for b, c in zip(behavior, critique)]
    z = left_sum(prod)
    if z <= 0.0:
        raise ShapingError("degenerate shaped policy: all products are zero")
    return [p / z for p in prod]
