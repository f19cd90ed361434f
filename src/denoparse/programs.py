"""The SQL-like program language: actions, partial-program states, legality,
serialization, and deterministic execution.

A program is a head (SELECT column, FOLLOWUP, or FPCELL column) followed by
zero or more filter clauses and a terminating Stop. Each clause is either a
single condition or two conditions joined by OR; clauses AND together, OR
unions the row sets of its two flanking conditions. FOLLOWUP restricts the
starting row set to the rows of the previous answer; FPCELL reads another
column of a single-cell previous answer. Partial states execute all of
their completed clauses, which is what gives incomplete programs a reward
during search.

The grammar is written once, as the table GRAMMAR from each phase of a
partial program to the kinds legal in it and the phase each leads to.
`legal_actions`, `enumerate_programs` and the beam search read it, `parse`
walks it, and the fewest actions still needed to reach Stop are derived
from it. Each kind's token layout is written once too, as the table
_LAYOUT: `action_tokens` renders it, `parse` matches it against the
tokens, and the keyword sets are its literals.
Execution is written once too: `step` advances an execution state by one
action, `answer_values`/`answer` project a state onto the answer, and
`execute` is a fold of `step`. Row sets are `int` bitmasks, bit r standing
for row r, so a clause is an `&` and an OR arm an `|`; `answer` builds the
answer's `frozenset`s. A condition that is not an extremum keeps a fixed
mask of the table's rows, which `step` reads from its ExecContext; the
rule that applies a condition's mask to a state is `condition_rows`, which
`step` calls for one action and the search, rating children by reward,
for all of a state's conditions at once, with masks it prepares once per
table: an extremum's is the first of its column's per-value masks that
meets the clause's scope. `advance` is the grammar half of `step`: the
phase, condition count and head after an action, which need no rows. The
search takes each child's from it, steps a child's rows only the first
time they are read, and steps the heads it rates.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import lru_cache

from .tables import EMPTY_ANSWER, AnswerSet, Table
from .text import normalize_answer, parse_number, tokenize

# Action kinds.
SELECT = "SELECT"
FOLLOWUP = "FOLLOWUP"
FPCELL = "FPCELL"
EQ = "EQ"
NEQ = "NEQ"
GT = "GT"
LT = "LT"
MAX = "MAX"
MIN = "MIN"
OR = "OR"
STOP = "STOP"

HEAD_KINDS = (SELECT, FOLLOWUP, FPCELL)
CONDITION_KINDS = (EQ, NEQ, GT, LT, MAX, MIN)

# Each kind's tokens in a serialized program: keyword literals and the
# placeholders for the action's column name and value. The second arm of an
# OR drops its WHERE. Serialization, parsing and the keyword sets read it.
_COLUMN, _VALUE = object(), object()
_LAYOUT = {
    SELECT: ("SELECT", _COLUMN),
    FOLLOWUP: ("FOLLOWUP",),
    FPCELL: ("FPCELL", _COLUMN),
    EQ: ("WHERE", _COLUMN, "=", _VALUE),
    NEQ: ("WHERE", _COLUMN, "!=", _VALUE),
    GT: ("WHERE", _COLUMN, ">", _VALUE),
    LT: ("WHERE", _COLUMN, "<", _VALUE),
    MAX: ("WHERE", _COLUMN, "MAX"),
    MIN: ("WHERE", _COLUMN, "MIN"),
    OR: ("OR",),
    STOP: (),
}
_KEYWORDS = {kind: frozenset(t for t in layout if isinstance(t, str))
             for kind, layout in _LAYOUT.items()}

# Tokens with grammatical meaning in a serialized program. Operators never
# survive tokenization, so the lowercase word forms are what the match and
# recall features must exclude.
KEYWORD_TOKENS = frozenset().union(*_KEYWORDS.values())
KEYWORD_WORDS = frozenset(t.lower() for t in KEYWORD_TOKENS if t.isalpha())


class IllegalActionError(Exception):
    pass


class ExecutionError(Exception):
    pass


class ParseError(Exception):
    pass


class EnumerationCapError(Exception):
    def __init__(self, count: int, cap: int):
        super().__init__(f"program enumeration exceeded cap {cap}: {count} programs reached")
        self.count = count


@dataclass(frozen=True, slots=True)
class Action:
    kind: str
    column: int | None = None
    value: str | None = None


@dataclass(frozen=True, slots=True)
class ProgramState:
    actions: tuple[Action, ...] = ()
    complete: bool = False

    def child(self, action: Action) -> "ProgramState":
        return ProgramState(self.actions + (action,), action.kind == STOP)


EMPTY_STATE = ProgramState()

# Program is just a completed ProgramState; the alias marks intent in
# signatures that require completeness.
Program = ProgramState


# --- grammar ----------------------------------------------------------------

# Each phase of a program under construction maps the kinds legal in it, in
# the order legal_actions lists them, to the phase each leads to. CONDITION
# stands for every condition kind. "cond" follows a condition that OR may
# still join; "or" waits for the mandatory second arm; "or_arm" follows that
# arm, which OR may not join again.
CONDITION = "CONDITION"
GRAMMAR = {
    "empty": {SELECT: "select", FOLLOWUP: "followup", FPCELL: "fpcell"},
    "select": {CONDITION: "cond", STOP: "complete"},
    "followup": {CONDITION: "cond"},
    "fpcell": {STOP: "complete"},
    "cond": {CONDITION: "cond", OR: "or", STOP: "complete"},
    "or": {CONDITION: "or_arm"},
    "or_arm": {CONDITION: "cond", STOP: "complete"},
    "complete": {},
}
# the same table keyed by action kind
_NEXT = {phase: {k: nxt for group, nxt in row.items()
                 for k in (CONDITION_KINDS if group == CONDITION else (group,))}
         for phase, row in GRAMMAR.items()}


def next_phase(phase: str, kind: str) -> str:
    try:
        return _NEXT[phase][kind]
    except KeyError:
        raise IllegalActionError(f"{kind} cannot follow a {phase!r} state") from None


@lru_cache(maxsize=None)
def min_finish(phase: str, conditions_left: int) -> float:
    """Fewest actions that take a state in `phase` to Stop using at most
    `conditions_left` more conditions; inf when none can. Every cycle of
    the grammar takes a condition, so the recursion ends."""
    if conditions_left < 0:
        return math.inf
    if phase == "complete":
        return 0
    return min((1 + min_finish(nxt, conditions_left - (kind == CONDITION))
                for kind, nxt in GRAMMAR[phase].items()), default=math.inf)


@lru_cache(maxsize=None)
def legal_kinds(phase: str, conditions_left: int,
                actions_left: float = math.inf) -> tuple[str, ...]:
    """The kinds (CONDITION for any condition) legal in `phase`, in grammar
    order: those after which Stop is still reachable within both budgets,
    each budget counting the kind's own action."""
    return tuple(kind for kind, nxt in GRAMMAR[phase].items()
                 if min_finish(nxt, conditions_left - (kind == CONDITION))
                 < actions_left)


@lru_cache(maxsize=128)
def condition_actions(table: Table, question_numbers: tuple[str, ...] = ()) -> tuple[Action, ...]:
    """Every condition the table supports, in a deterministic order.

    Equality conditions draw values from the target column's cells; the
    numeric comparisons additionally accept numbers mentioned in the
    question. Comparisons and extrema need at least one numeric cell.
    """
    out: list[Action] = []
    for col in range(table.col_count):
        values = table.distinct_values(col)
        out.extend(Action(EQ, col, v) for v in values)
        out.extend(Action(NEQ, col, v) for v in values)
        if table.distinct_numeric_values(col):
            ordered = comparison_values(table, col, question_numbers)
            out.extend(Action(GT, col, v) for v in ordered)
            out.extend(Action(LT, col, v) for v in ordered)
            out.append(Action(MAX, col))
            out.append(Action(MIN, col))
    return tuple(out)


def comparison_values(table: Table, col: int, question_numbers: tuple[str, ...] = ()) -> list[str]:
    """The values GT and LT compare column col with: its numeric cells and
    the question's numbers, by number and then string."""
    nums = {raw: parse_number(raw) for raw in table.distinct_numeric_values(col)}
    for q in question_numbers:
        if q not in nums:
            nums[q] = parse_number(q)
    return sorted(nums, key=lambda r: (nums[r], r))


def head_actions(table: Table, position: int) -> tuple[Action, ...]:
    heads = [Action(SELECT, c) for c in range(table.col_count)]
    if position >= 1:
        heads.append(Action(FOLLOWUP))
        heads.extend(Action(FPCELL, c) for c in range(table.col_count))
    return tuple(heads)


def legal_actions(state: ProgramState, table: Table, position: int,
                  max_conditions: int | None = None,
                  question_numbers: tuple[str, ...] = ()) -> list[Action]:
    """Exactly the actions whose application keeps the state syntactically
    valid. FOLLOWUP and FPCELL exist only at position >= 1; an empty program
    cannot Stop; FOLLOWUP needs at least one condition before Stop, so it is
    not listed when the condition budget is spent; a condition already in
    the program cannot repeat."""
    if state.complete:
        return []
    phase, used = "empty", set()
    for a in state.actions:
        phase = next_phase(phase, a.kind)
        if a.kind in CONDITION_KINDS:
            used.add(a)
    # a shortest completion enters no phase twice, so a budget of more
    # conditions than there are phases is as good as none
    left = len(GRAMMAR) if max_conditions is None else max_conditions - len(used)
    kinds = legal_kinds(phase, left)
    if phase == "empty":
        return [a for a in head_actions(table, position) if a.kind in kinds]
    out: list[Action] = []
    for kind in kinds:
        if kind == CONDITION:
            out += [a for a in condition_actions(table, tuple(question_numbers))
                    if a not in used]
        else:
            out.append(Action(kind))
    return out


# --- serialization ------------------------------------------------------

_NEEDS_QUOTE = re.compile(r'[\s"\\]')


def _quote(token: str) -> str:
    if token == "" or token in KEYWORD_TOKENS or _NEEDS_QUOTE.search(token):
        return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return token


def action_tokens(action: Action, table: Table, after_or: bool = False) -> list[str]:
    return [_quote(table.column_names[action.column]) if t is _COLUMN
            else _quote(action.value) if t is _VALUE else t
            for t in _LAYOUT[action.kind][after_or:]]


def serialize(state: ProgramState, table: Table) -> str:
    parts: list[str] = []
    prev = None
    for a in state.actions:
        parts.extend(action_tokens(a, table, after_or=(prev == OR)))
        prev = a.kind
    s = " ".join(parts)
    if not state.complete:
        return (s + " ...") if s else "..."
    return s


_TOKEN = re.compile(r'"((?:[^"\\]|\\.)*)"|(\S+)', re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)


def _scan(line: str) -> list[tuple[str, bool]]:
    """Split a serialized program into (token, was_quoted) pairs."""
    out = []
    for quoted, bare in _TOKEN.findall(line):
        # a bare token starts with a quote only when no quote closes it
        if bare.startswith('"'):
            raise ParseError(f"unterminated quote in {line!r}")
        out.append((bare, False) if bare else (_ESCAPE.sub(r"\1", quoted), True))
    return out


def parse(line: str, table: Table) -> ProgramState:
    """Parse one canonical serialization into a complete program. The walk
    starts in the "empty" phase of GRAMMAR and at each step reads the one
    legal non-Stop kind whose layout matches the next tokens: keywords
    unquoted, a column by its name, a value as any token. The input must
    end where the phase allows Stop."""
    toks = _scan(line)
    col_index = {name: i for i, name in enumerate(table.column_names)}
    phase, pos, actions = "empty", 0, []
    while pos < len(toks):
        for kind in _NEXT[phase]:
            layout = _LAYOUT[kind][phase == "or":]
            span = toks[pos:pos + len(layout)]
            if kind != STOP and len(span) == len(layout) and all(
                    t == (lit, False) if isinstance(lit, str)
                    else lit is _VALUE or t[0] in col_index
                    for lit, t in zip(layout, span)):
                break
        else:
            raise ParseError(f"{line!r}: no action legal in a {phase!r} state "
                             f"reads token {pos + 1}, {toks[pos][0]!r}")
        read = {lit: tok for lit, (tok, _) in zip(layout, span)}
        column = read.get(_COLUMN)
        actions.append(Action(kind, None if column is None else col_index[column],
                              read.get(_VALUE)))
        phase = _NEXT[phase][kind]
        pos += len(layout)
    if STOP not in _NEXT[phase]:
        raise ParseError(f"{line!r}: a {phase!r} state cannot stop")
    actions.append(Action(STOP))
    return ProgramState(tuple(actions), True)


# --- execution ----------------------------------------------------------

def row_indices(rows: int) -> list[int]:
    """The rows of a mask, ascending: the 1s of its binary digits read from
    the lowest."""
    return [r for r, bit in enumerate(bin(rows)[:1:-1]) if bit == "1"]


def match_rows(action: Action, table: Table, rows: int) -> int:
    """The mask of rows of `rows` satisfying one condition. Extrema are
    taken within `rows`, so a MAX after another filter is the maximum of
    the survivors."""
    col = action.column
    kind = action.kind
    norm = table.normalized_column_values[col]
    if kind == EQ:
        v = normalize_answer(action.value)
        return sum([1 << r for r in row_indices(rows) if norm[r] == v])
    if kind == NEQ:
        v = normalize_answer(action.value)
        return sum([1 << r for r in row_indices(rows) if norm[r] != v])
    numeric = [(table.cells[r][col].numeric, r) for r in row_indices(rows)
               if table.cells[r][col].numeric is not None]
    if kind in (GT, LT):
        x = parse_number(action.value)
        if x is None:
            return 0
        if kind == GT:
            return sum([1 << r for v, r in numeric if v > x])
        return sum([1 << r for v, r in numeric if v < x])
    # MAX / MIN
    if not numeric:
        return 0
    pick = max(v for v, _ in numeric) if kind == MAX else min(v for v, _ in numeric)
    return sum([1 << r for v, r in numeric if v == pick])


class ExecContext:
    """What executing on one table after one previous answer needs, built
    once: the mask of every row, the previous answer's cells clipped to the
    table (None without a previous answer), the mask of their rows, and the
    mask of the row FPCELL reads. `masks` maps each condition that is not an
    extremum to the mask of the table's rows satisfying it, filled the
    first time `step` meets the condition; the searches on a table share
    one, which holds the masks they prepare.

    An execution state is the tuple (phase, condition count, head, base,
    rows): `head` is the head action, `rows` the mask of rows the clauses
    so far keep, and `base` the mask of rows the latest clause filtered,
    which the second arm of an OR filters too. While an OR waits for that
    arm, `rows` holds the first arm's rows."""

    __slots__ = ("table", "all_rows", "prev_coords", "prev_rows", "fp_rows",
                 "start", "masks", "_extrema")

    def __init__(self, table: Table, prev_answer: AnswerSet | None = None):
        self.table = table
        self.all_rows = (1 << table.row_count) - 1
        self.prev_coords = None
        self.prev_rows = self.fp_rows = 0
        if prev_answer is not None:
            self.prev_coords = frozenset(
                (r, c) for r, c in (prev_answer.coords or frozenset())
                if r < table.row_count and c < table.col_count)
            for r, _ in self.prev_coords:
                self.prev_rows |= 1 << r
            if len(self.prev_coords) == 1:
                self.fp_rows = self.prev_rows
        self.start = ("empty", 0, None, self.all_rows, self.all_rows)
        self.masks: dict[Action, int] = {}
        # (id(action), scope) -> (action, mask of the scope's rows holding
        # an extremum); the stored action keeps its id from being reused
        # while the entry lives
        self._extrema: dict[tuple[int, int], tuple[Action, int]] = {}


def condition_rows(phase: str, base: int, rows: int, masks) -> list[int]:
    """The rows each child of an execution state (phase, base, rows) keeps
    by a condition whose mask is masks[i]: a fixed condition's rows over
    the whole table, or an extremum's within the clause's scope. A fresh
    clause keeps the mask's rows among `rows`; the second arm of an OR adds
    those among `base` to the first arm's rows. A condition's child
    answers with these rows. `step` applies this rule to one condition."""
    if phase == "or":
        return [rows | (m & base) for m in masks]
    return [m & rows for m in masks]


def advance(phase: str, count: int, head: Action | None, action: Action) -> tuple:
    """The grammar half of `step`: the phase, condition count and head of
    the execution state after `action`, which need no rows. The search
    takes a child's from here and steps its rows only when they are read."""
    kind = action.kind
    nxt = next_phase(phase, kind)
    if kind in CONDITION_KINDS:
        return nxt, count + 1, head
    if kind in HEAD_KINDS:
        return nxt, count, action
    return nxt, count, head


def step(ctx: ExecContext, state: tuple, action: Action) -> tuple:
    """The execution state after `action`; see ExecContext. Its phase,
    condition count and head are `advance`'s."""
    phase, count, head, base, rows = state
    nxt, count, head = advance(phase, count, head, action)
    kind = action.kind
    if kind in CONDITION_KINDS:
        # a fresh clause filters the survivors so far, an OR arm the scope
        # of the first arm
        scope = base if phase == "or" else rows
        if kind == MAX or kind == MIN:
            # an extremum depends on its scope
            hit = ctx._extrema.get((id(action), scope))
            if hit is None:
                hit = ctx._extrema[id(action), scope] = (
                    action, match_rows(action, ctx.table, scope))
            mask = hit[1]
        else:
            mask = ctx.masks.get(action)
            if mask is None:
                mask = ctx.masks[action] = match_rows(action, ctx.table, ctx.all_rows)
        return nxt, count, head, scope, condition_rows(phase, base, rows, (mask,))[0]
    if kind == SELECT:
        return nxt, count, head, ctx.all_rows, ctx.all_rows
    if kind == FOLLOWUP or kind == FPCELL:
        if ctx.prev_coords is None:
            raise ExecutionError(f"{kind} requires the previous answer")
        rows = ctx.prev_rows if kind == FOLLOWUP else ctx.fp_rows
        return nxt, count, head, rows, rows
    return nxt, count, head, base, rows  # OR and Stop keep the rows


def answer_rows(state: tuple) -> int:
    """The mask of rows a state's answer reads. A trailing open OR clause
    has not run, so its scope stays."""
    phase, _, _, base, rows = state
    return base if phase == "or" else rows


def answer_values(ctx: ExecContext, state: tuple) -> frozenset[str]:
    """Normalized values of a state's answer: the head's cells in its
    answer rows."""
    head, rows = state[2], answer_rows(state)
    norm = ctx.table.normalized_column_values
    if head.kind == FOLLOWUP:
        return frozenset(norm[c][r] for r, c in ctx.prev_coords if rows >> r & 1)
    col = norm[head.column]
    return frozenset(col[r] for r in row_indices(rows))


def answer(ctx: ExecContext, state: tuple) -> AnswerSet:
    """A state's answer: the cells it reads and their normalized values,
    which are `answer_values`."""
    head, rows = state[2], answer_rows(state)
    if head is None:
        return EMPTY_ANSWER
    if head.kind == FOLLOWUP:
        coords = frozenset(rc for rc in ctx.prev_coords if rows >> rc[0] & 1)
    else:
        coords = frozenset((r, head.column) for r in row_indices(rows))
    norm = ctx.table.normalized_column_values
    return AnswerSet(frozenset(norm[c][r] for r, c in coords), coords)


def execute(state: ProgramState, table: Table, prev_answer: AnswerSet | None = None) -> AnswerSet:
    """Deterministic execution; partial states run their completed clauses."""
    ctx = ExecContext(table, prev_answer)
    s = ctx.start
    for a in state.actions:
        s = step(ctx, s, a)
    return answer(ctx, s)


# --- enumeration and spuriousness ---------------------------------------

def enumerate_programs(table: Table, position: int, max_conditions: int,
                       question_numbers: tuple[str, ...] = (),
                       cap: int = 200_000) -> list[Program]:
    """Every syntactically valid complete program with at most
    `max_conditions` conditions, each exactly once."""
    qn = tuple(question_numbers)
    results: list[Program] = []
    stack = [EMPTY_STATE]
    while stack:
        st = stack.pop()
        for a in legal_actions(st, table, position, max_conditions, qn):
            child = st.child(a)
            if child.complete:
                results.append(child)
                if len(results) > cap:
                    raise EnumerationCapError(len(results), cap)
            else:
                stack.append(child)
    results.reverse()
    return results


def _positional_columns(table: Table) -> list[tuple[int, int]]:
    """Columns whose cells enumerate row positions, as (col, first_value)."""
    out = []
    n = table.row_count
    for c in range(table.col_count):
        nums = [table.cells[r][c].numeric for r in range(n)]
        if all(v is not None for v in nums):
            for base in (0, 1):
                if nums == [float(base + i) for i in range(n)]:
                    out.append((c, base))
                    break
    return out


def permute_rows(table: Table, perm: list[int]) -> Table:
    """Reorder rows by `perm` (new row i = old row perm[i]). Columns that
    enumerate row positions are renumbered so they still do."""
    from .tables import Cell
    positional = dict(_positional_columns(table))
    rows = []
    for i, old in enumerate(perm):
        row = list(table.cells[old])
        for c, base in positional.items():
            row[c] = Cell.of(str(base + i))
        rows.append(tuple(row))
    return Table(table.id, table.column_names, tuple(rows))


def remap_answer(answer: AnswerSet | None, perm: list[int]) -> AnswerSet | None:
    if answer is None or answer.coords is None:
        return answer
    inv = {old: new for new, old in enumerate(perm)}
    coords = frozenset((inv[r], c) for r, c in answer.coords if r in inv)
    return AnswerSet(answer.values, coords)


def is_spurious(program: Program, table: Table, gold: AnswerSet,
                trials: int = 10, rng_seed: int = 0,
                prev_answer: AnswerSet | None = None) -> bool:
    """True when some answer-preserving row permutation (always trying the
    swap of the first two rows) changes the program's answer."""
    n = table.row_count
    if n < 2:
        return False
    base = execute(program, table, prev_answer).values
    swap = list(range(n))
    swap[0], swap[1] = swap[1], swap[0]
    perms = [swap]
    rng = random.Random(rng_seed)
    for _ in range(max(0, trials - 1)):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(p)
    identity = list(range(n))
    for perm in perms:
        if perm == identity:
            continue
        permuted = permute_rows(table, perm)
        cell_values = {normalize_answer(c.raw) for row in permuted.cells for c in row}
        if not gold.values <= cell_values:
            continue
        answer = execute(program, permuted, remap_answer(prev_answer, perm)).values
        if answer != base:
            return True
    return False


# --- token views used by the scorer and the critique ---------------------

def action_surface_tokens(action: Action, table: Table) -> frozenset[str]:
    """Non-keyword tokens an action contributes to the serialized program."""
    toks: set[str] = set()
    if action.column is not None:
        toks.update(tokenize(table.column_names[action.column]))
    if action.value is not None:
        toks.update(tokenize(action.value))
    return frozenset(toks - KEYWORD_WORDS)


def action_keywords(action: Action) -> frozenset[str]:
    return _KEYWORDS[action.kind]


def program_surface_tokens(state: ProgramState, table: Table) -> frozenset[str]:
    out: set[str] = set()
    for a in state.actions:
        out |= action_surface_tokens(a, table)
    return frozenset(out)


def program_keywords(state: ProgramState) -> frozenset[str]:
    out: set[str] = set()
    for a in state.actions:
        out |= action_keywords(a)
    return frozenset(out)
