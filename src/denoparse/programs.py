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
`legal_actions`, `enumerate_programs` and the beam search read it, and
the fewest actions still needed to reach Stop are derived from it.
Execution is written once too: `step` advances an execution state by one
action, `answer_values`/`answer` project a state onto the answer, and
`execute` is a fold of `step`. The search calls the same `step` for every
child it rates, with one ExecContext per search. Row sets are `int`
bitmasks, bit r standing for row r, so a clause is an `&` and an OR arm an
`|`; `answer` builds the answer's `frozenset`s.
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

_OP_TOKEN = {EQ: "=", NEQ: "!=", GT: ">", LT: "<", MAX: "MAX", MIN: "MIN"}
_TOKEN_OP = {v: k for k, v in _OP_TOKEN.items()}

# Tokens with grammatical meaning in a serialized program. Operators never
# survive tokenization, so the lowercase word forms are what the match and
# recall features must exclude.
KEYWORD_TOKENS = frozenset(
    {"SELECT", "WHERE", "OR", "FOLLOWUP", "FPCELL", "MAX", "MIN", "=", "!=", ">", "<"})
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


@dataclass(frozen=True)
class Action:
    kind: str
    column: int | None = None
    value: str | None = None


@dataclass(frozen=True)
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
        numeric = table.distinct_numeric_values(col)
        if numeric:
            nums = {raw: parse_number(raw) for raw in numeric}
            for q in question_numbers:
                if q not in nums:
                    nums[q] = parse_number(q)
            ordered = sorted(nums, key=lambda r: (nums[r], r))
            out.extend(Action(GT, col, v) for v in ordered)
            out.extend(Action(LT, col, v) for v in ordered)
            out.append(Action(MAX, col))
            out.append(Action(MIN, col))
    return tuple(out)


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
    k = action.kind
    if k == SELECT:
        return ["SELECT", _quote(table.column_names[action.column])]
    if k == FOLLOWUP:
        return ["FOLLOWUP"]
    if k == FPCELL:
        return ["FPCELL", _quote(table.column_names[action.column])]
    if k == OR:
        return ["OR"]
    if k == STOP:
        return []
    parts = [] if after_or else ["WHERE"]
    parts.append(_quote(table.column_names[action.column]))
    parts.append(_OP_TOKEN[k])
    if k not in (MAX, MIN):
        parts.append(_quote(action.value))
    return parts


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


def _scan(line: str) -> list[tuple[str, bool]]:
    """Split a serialized program into (token, was_quoted) pairs."""
    out = []
    i, n = 0, len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        if line[i] == '"':
            i += 1
            buf = []
            while i < n and line[i] != '"':
                if line[i] == "\\" and i + 1 < n:
                    buf.append(line[i + 1])
                    i += 2
                else:
                    buf.append(line[i])
                    i += 1
            if i >= n:
                raise ParseError(f"unterminated quote in {line!r}")
            i += 1
            out.append(("".join(buf), True))
        else:
            j = i
            while j < n and not line[j].isspace():
                j += 1
            out.append((line[i:j], False))
            i = j
    return out


def parse(line: str, table: Table) -> ProgramState:
    """Parse one canonical serialization into a complete program."""
    toks = _scan(line)
    col_index = {name: i for i, name in enumerate(table.column_names)}

    def column_at(pos: int) -> int:
        if pos >= len(toks):
            raise ParseError(f"expected column name at end of {line!r}")
        name = toks[pos][0]
        if name not in col_index:
            raise ParseError(f"unknown column {name!r} in {line!r}")
        return col_index[name]

    if not toks:
        raise ParseError("empty program")
    actions: list[Action] = []
    head, head_quoted = toks[0]
    if head_quoted or head not in (SELECT, FOLLOWUP, FPCELL):
        raise ParseError(f"expected a program head, got {head!r}")
    i = 1
    if head == SELECT:
        actions.append(Action(SELECT, column_at(i)))
        i += 1
    elif head == FPCELL:
        actions.append(Action(FPCELL, column_at(i)))
        i += 1
        if i != len(toks):
            raise ParseError(f"trailing tokens after FPCELL in {line!r}")
    else:
        actions.append(Action(FOLLOWUP))

    def parse_condition(pos: int) -> tuple[Action, int]:
        col = column_at(pos)
        pos += 1
        if pos >= len(toks):
            raise ParseError(f"missing operator in {line!r}")
        op, op_quoted = toks[pos]
        if op_quoted or op not in _TOKEN_OP:
            raise ParseError(f"bad operator {op!r} in {line!r}")
        kind = _TOKEN_OP[op]
        pos += 1
        if kind in (MAX, MIN):
            return Action(kind, col), pos
        if pos >= len(toks):
            raise ParseError(f"missing value in {line!r}")
        return Action(kind, col, toks[pos][0]), pos + 1

    if head != FPCELL:
        while i < len(toks):
            kw, kw_quoted = toks[i]
            if kw_quoted or kw != "WHERE":
                raise ParseError(f"expected WHERE, got {kw!r} in {line!r}")
            cond, i = parse_condition(i + 1)
            actions.append(cond)
            if i < len(toks) and toks[i] == ("OR", False):
                actions.append(Action(OR))
                cond, i = parse_condition(i + 1)
                actions.append(cond)
        if head == FOLLOWUP and len(actions) == 1:
            raise ParseError("FOLLOWUP requires at least one condition")
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
    mask of the row FPCELL reads.

    An execution state is the tuple (phase, condition count, head, base,
    rows): `head` is the head action, `rows` the mask of rows the clauses
    so far keep, and `base` the mask of rows the latest clause filtered,
    which the second arm of an OR filters too. While an OR waits for that
    arm, `rows` holds the first arm's rows."""

    __slots__ = ("table", "all_rows", "prev_coords", "prev_rows", "fp_rows",
                 "start", "_condition_rows")

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
        # (id(action), scope) -> (action, mask of the scope's rows satisfying
        # it); the stored action keeps its id from being reused while the
        # entry lives
        self._condition_rows: dict[tuple[int, int], tuple[Action, int]] = {}


def step(ctx: ExecContext, state: tuple, action: Action) -> tuple:
    """The execution state after `action`; see ExecContext."""
    phase, count, head, base, rows = state
    kind = action.kind
    nxt = next_phase(phase, kind)
    if kind in CONDITION_KINDS:
        if phase != "or":
            base = rows  # a fresh clause filters the survivors so far
        # an extremum depends on its scope; any other condition keeps a
        # fixed row set, narrowed to the scope
        scope = base if kind == MAX or kind == MIN else ctx.all_rows
        hit = ctx._condition_rows.get((id(action), scope))
        if hit is None:
            hit = ctx._condition_rows[id(action), scope] = (
                action, match_rows(action, ctx.table, scope))
        sub = hit[1] & base
        return nxt, count + 1, head, base, (rows | sub if phase == "or" else sub)
    if kind == SELECT:
        return nxt, count, action, ctx.all_rows, ctx.all_rows
    if kind == FOLLOWUP or kind == FPCELL:
        if ctx.prev_coords is None:
            raise ExecutionError(f"{kind} requires the previous answer")
        rows = ctx.prev_rows if kind == FOLLOWUP else ctx.fp_rows
        return nxt, count, action, rows, rows
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
    return frozenset(toks)


def action_keywords(action: Action) -> frozenset[str]:
    k = action.kind
    if k == SELECT:
        return frozenset({"SELECT"})
    if k == FOLLOWUP:
        return frozenset({"FOLLOWUP"})
    if k == FPCELL:
        return frozenset({"FPCELL"})
    if k == OR:
        return frozenset({"OR"})
    if k == STOP:
        return frozenset()
    return frozenset({"WHERE", _OP_TOKEN[k]})


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
