"""Shared test oracles: an independent row-by-row interpreter, finite
difference gradients, explicit objective functions for the update rules,
and random micro-instance generation. Everything here deliberately avoids
the library's own execution/update code paths.
"""
from __future__ import annotations

import math
import random

from denoparse import programs as P
from denoparse.critique import critique_score
from denoparse.scorer import (ActionFeaturizer, ParamVector, action_features,
                              featurize, question_table_tokens)
from denoparse.search import Candidate, CandidateSet, rank_key
from denoparse.tables import AnswerSet, Cell, Table, exact_match, jaccard
from denoparse.text import normalize_answer, parse_number, tokenize


# --- independent interpreter ---------------------------------------------

def _row_passes(cond, row_idx: int, scope: list[int], table: Table) -> bool:
    cell = table.cells[row_idx][cond.column]
    if cond.kind == P.EQ:
        return normalize_answer(cell.raw) == normalize_answer(cond.value)
    if cond.kind == P.NEQ:
        return normalize_answer(cell.raw) != normalize_answer(cond.value)
    if cond.kind in (P.GT, P.LT):
        bound = parse_number(cond.value)
        if bound is None or cell.numeric is None:
            return False
        return cell.numeric > bound if cond.kind == P.GT else cell.numeric < bound
    # MAX / MIN relative to the rows in scope
    best = None
    for r in scope:
        v = table.cells[r][cond.column].numeric
        if v is None:
            continue
        if best is None or (v > best if cond.kind == P.MAX else v < best):
            best = v
    return best is not None and cell.numeric == best


def oracle_execute(program: P.Program, table: Table,
                   prev: AnswerSet | None = None) -> AnswerSet:
    """Reference interpreter: explicit clause grouping, per-row loops."""
    acts = [a for a in program.actions if a.kind != P.STOP]
    head, rest = acts[0], acts[1:]
    clauses: list[list] = []
    k = 0
    while k < len(rest):
        if k + 1 < len(rest) and rest[k + 1].kind == P.OR:
            if k + 2 == len(rest):
                break  # a trailing open OR clause has not run yet
            clauses.append([rest[k], rest[k + 2]])
            k += 3
        else:
            clauses.append([rest[k]])
            k += 1

    if head.kind == P.SELECT:
        rows = list(range(table.row_count))
    elif head.kind == P.FOLLOWUP:
        if prev is None:
            raise P.ExecutionError("needs previous answer")
        rows = sorted({r for r, c in (prev.coords or set())
                       if r < table.row_count and c < table.col_count})
    else:  # FPCELL
        if prev is None:
            raise P.ExecutionError("needs previous answer")
        coords = [rc for rc in (prev.coords or set())
                  if rc[0] < table.row_count and rc[1] < table.col_count]
        rows = [coords[0][0]] if len(coords) == 1 else []

    for clause in clauses:
        scope = list(rows)
        rows = [r for r in scope
                if any(_row_passes(c, r, scope, table) for c in clause)]

    values, coords = set(), set()
    if head.kind in (P.SELECT, P.FPCELL):
        for r in rows:
            values.add(normalize_answer(table.cells[r][head.column].raw))
            coords.add((r, head.column))
    else:
        for r, c in (prev.coords or set()):
            if r in rows and r < table.row_count and c < table.col_count:
                values.add(normalize_answer(table.cells[r][c].raw))
                coords.add((r, c))
    return AnswerSet(frozenset(values), frozenset(coords))


# --- independent featurizer ----------------------------------------------

def reference_action_features(action, question_tokens, table: Table) -> dict:
    """Per-action features computed from scratch for one action, in the
    order the package inserts them; `scorer.ActionFeaturizer` shares the
    parts of this across actions."""
    q = tuple(question_tokens)
    qset = frozenset(q)
    k = action.kind
    feats = {f"act={k}": 1.0}
    for t in sorted(qset):
        feats[f"{k}~{t}"] = 1.0
    col_pos: list[int] = []
    val_pos: list[int] = []
    if action.column is not None:
        ctoks = tokenize(table.column_names[action.column])
        if ctoks:
            if all(t in qset for t in ctoks):
                feats[f"{k}:col_exact"] = 1.0
            if any(t in qset for t in ctoks):
                feats[f"{k}:col_overlap"] = 1.0
            col_pos = [i for i, t in enumerate(q) if t in ctoks]
        if table.column_cell_tokens[action.column] & qset:
            feats[f"{k}:col_related"] = 1.0
    if action.value is not None:
        vtoks = tokenize(action.value)
        if vtoks:
            if all(t in qset for t in vtoks):
                feats[f"{k}:val_exact"] = 1.0
            if any(t in qset for t in vtoks):
                feats[f"{k}:val_overlap"] = 1.0
            val_pos = [i for i, t in enumerate(q) if t in vtoks]
    if val_pos and col_pos and min(abs(i - j) for i in val_pos for j in col_pos) <= 3:
        feats[f"{k}:val_near_col"] = 1.0
    anchors = val_pos if action.value is not None else col_pos
    near = sorted({i for p in anchors for i in range(max(0, p - 2), min(len(q), p + 3))
                   if i != p})
    for i in near:
        feats[f"{k}@{q[i]}"] = 1.0
    return feats


# --- reference beam search -------------------------------------------------

def _can_finish(state, table, position, max_conditions, numbers, budget) -> bool:
    """Whether some completion of `state` fits in `budget` more actions."""
    if budget <= 0:
        return False
    actions = P.legal_actions(state, table, position, max_conditions, numbers)
    if P.Action(P.STOP) in actions:
        return True
    return any(_can_finish(state.child(a), table, position, max_conditions,
                           numbers, budget - 1) for a in actions)


def reference_beam_search(example, table: Table, theta: ParamVector, lexicon,
                          config, prev=None) -> CandidateSet:
    """Eager beam search: build every legal child of every beam state, move
    completed programs to the pool, keep the beam_size best of the rest.

    Children come from `P.legal_actions`, answers and rewards from
    `oracle_execute` (so partial states run apart from the package's
    executor), critiques from `critique_score` and ranking from
    `rank_key`. A score is the parent's plus the action's feature dot
    product, less the recall weight times the share of the question's
    table tokens the action newly covers: `featurize` summed action by
    action, which is the order the search adds it in, so equal scores
    stay equal. Its `ranked` counts every legal incomplete child.
    """
    q = example.question_tokens
    numbers = tuple(example.question_numbers)
    gold = example.gold_answer
    e1 = question_table_tokens(q, table)
    w_recall = theta.get("recall")

    def covered(state):
        return e1 & (P.program_surface_tokens(state, table) - P.KEYWORD_WORDS)

    def ser(state):
        return P.serialize(P.ProgramState(state.actions, True), table)

    def reward(state):
        if gold is None:
            return 0.0
        return jaccard(oracle_execute(state, table, prev), gold)

    beam = [(P.EMPTY_STATE, w_recall if e1 else 0.0)]
    pool: dict[str, Candidate] = {}
    ranked = 0  # every legal incomplete child is ranked
    for step in range(config.max_actions):
        children = []
        for state, score in beam:
            for a in P.legal_actions(state, table, example.position,
                                     config.max_conditions, numbers):
                child = state.child(a)
                if not (child.complete or _can_finish(
                        child, table, example.position, config.max_conditions,
                        numbers, config.max_actions - step - 1)):
                    continue
                s = score + theta.dot(action_features(a, q, table))
                k = len(covered(child)) - len(covered(state))
                if k:
                    s -= w_recall * (k / len(e1))
                crit = critique_score(q, child, table, lexicon)
                if child.complete:
                    answer = oracle_execute(child, table, prev)
                    pool.setdefault(ser(child), Candidate(
                        child, ser(child), s, reward(child), crit,
                        gold is not None and exact_match(answer, gold), answer))
                else:
                    r = reward(child) if config.lambda_weight != 0.0 else 0.0
                    children.append((rank_key(ser(child), r, s, crit, config),
                                     child, s))
        ranked += len(children)
        if not children:
            break
        children.sort(key=lambda c: c[0])
        beam = [(child, s) for _, child, s in children[:config.beam_size]]
    entries = sorted(pool.values(), key=lambda c: rank_key(
        c.serialization, c.reward, c.score, c.critique, config))
    return CandidateSet(entries[:config.beam_size], ActionFeaturizer(q, table), ranked)


# --- finite differences ---------------------------------------------------

def finite_difference(objective, theta: ParamVector, feature_ids, eps=1e-5):
    grads = {}
    for fid in feature_ids:
        up, dn = theta.copy(), theta.copy()
        up.weights[fid] = up.get(fid) + eps
        dn.weights[fid] = dn.get(fid) - eps
        grads[fid] = (objective(up) - objective(dn)) / (2 * eps)
    return grads


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# --- explicit update objectives (recomputed from scratch at any theta) ----

def softmax_plain(values):
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    z = sum(exps)
    return [e / z for e in exps]


def candidate_set(programs, question_tokens, table: Table, theta: ParamVector,
                  gold: AnswerSet, prev: AnswerSet | None = None) -> CandidateSet:
    """Build a CandidateSet directly from programs (bypasses beam search)."""
    entries = []
    for prog in programs:
        ser = P.serialize(prog, table)
        answer = P.execute(prog, table, prev)
        entries.append(Candidate(
            program=prog, serialization=ser,
            score=theta.dot(featurize(prog, question_tokens, table)),
            reward=jaccard(answer, gold),
            critique=0.0,
            compatible=exact_match(answer, gold),
            answer=answer))
    entries.sort(key=lambda c: c.serialization)
    return CandidateSet(entries, ActionFeaturizer(question_tokens, table))


class Objectives:
    """J_MML, J_MMR, J_MAVER over one candidate set, as explicit functions
    of theta; margin structure (reference, violations) is recomputed at
    every call so finite differences see the true objective."""

    def __init__(self, K: CandidateSet, question_tokens, table: Table):
        self.K = K
        self.q = tuple(question_tokens)
        self.table = table
        self.features = [featurize(c.program, self.q, table) for c in K.entries]
        self.rewards = [c.reward for c in K.entries]
        self.sers = [c.serialization for c in K.entries]
        self.compatible = [i for i, c in enumerate(K.entries) if c.compatible]

    def scores(self, theta: ParamVector):
        return [theta.dot(f) for f in self.features]

    def j_mml(self, theta: ParamVector) -> float:
        p = softmax_plain(self.scores(theta))
        return math.log(sum(p[i] for i in self.compatible))

    def margin_state(self, theta: ParamVector):
        s = self.scores(theta)
        ref = min(self.compatible, key=lambda i: (-s[i], self.sers[i]))
        bar = s[ref] - self.rewards[ref]
        violations = [i for i in range(len(s))
                      if i != ref and s[i] - self.rewards[i] >= bar]
        return s, ref, violations

    def j_mmr(self, theta: ParamVector) -> float:
        s, ref, violations = self.margin_state(theta)
        if not violations:
            return 0.0
        ybar = min(violations, key=lambda i: (-(s[i] - self.rewards[i]), self.sers[i]))
        hinge = s[ybar] - s[ref] + self.rewards[ref] - self.rewards[ybar]
        return -max(0.0, hinge)

    def j_maver(self, theta: ParamVector) -> float:
        s, ref, violations = self.margin_state(theta)
        if not violations:
            return 0.0
        return -sum(s[i] - s[ref] + self.rewards[ref] - self.rewards[i]
                    for i in violations) / len(violations)

    def j_expected_reward(self, theta: ParamVector) -> float:
        p = softmax_plain(self.scores(theta))
        return sum(pi * r for pi, r in zip(p, self.rewards))

    def feature_ids(self):
        out = set()
        for f in self.features:
            out.update(f)
        return sorted(out)


def margin_structure_stable(obj: Objectives, theta: ParamVector, gap=1e-3) -> bool:
    s = obj.scores(theta)
    comp = obj.compatible
    if not comp:
        return False
    ordered = sorted(comp, key=lambda i: -s[i])
    if len(ordered) >= 2 and abs(s[ordered[0]] - s[ordered[1]]) < gap:
        return False
    _, ref, violations = obj.margin_state(theta)
    bar = s[ref] - obj.rewards[ref]
    for i in range(len(s)):
        if i == ref:
            continue
        margin = s[i] - obj.rewards[i] - bar
        if abs(margin) < gap:
            return False
    if violations:
        vio = sorted(violations, key=lambda i: -(s[i] - obj.rewards[i]))
        if len(vio) >= 2 and abs((s[vio[0]] - obj.rewards[vio[0]])
                                 - (s[vio[1]] - obj.rewards[vio[1]])) < gap:
            return False
    return True


# --- random micro instances ------------------------------------------------

_WORDS = ("arc", "bell", "cove", "dune", "fen", "glen", "heath", "isle",
          "knoll", "loch", "mead", "nook")
_COLS = ("Name", "Group", "Points", "Score", "Rank", "Total")


def random_table(rng: random.Random, max_rows=4, max_cols=3) -> Table:
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    names = rng.sample(_COLS, cols)
    grid = []
    for r in range(rows):
        row = []
        for c in range(cols):
            if c == 0 and not names[c].lower() in ("points", "score", "rank", "total"):
                row.append(Cell.of(rng.choice(_WORDS)))
            else:
                row.append(Cell.of(str(rng.randint(1, 9))))
        grid.append(tuple(row))
    return Table(f"micro{rng.randint(0, 10**6)}", tuple(names), tuple(grid))


def random_question(rng: random.Random, table: Table) -> tuple[str, ...]:
    pool = sorted(table.all_tokens) + ["which", "had", "most", "more", "than", "not"]
    k = rng.randint(2, 6)
    return tuple(rng.choice(pool) for _ in range(k))


def random_micro_instance(rng: random.Random, require_compatible=True,
                          max_conditions=1):
    """(question_tokens, table, K, theta) with K from full enumeration and a
    gold answer produced by executing a random program."""
    while True:
        table = random_table(rng)
        qtokens = random_question(rng, table)
        numbers = tuple(t for t in qtokens if parse_number(t) is not None)
        programs = P.enumerate_programs(table, 0, max_conditions, numbers, cap=5000)
        gold_prog = rng.choice(programs)
        gold = P.execute(gold_prog, table)
        if not gold.values:
            continue
        theta = ParamVector()
        K = candidate_set(programs, qtokens, table, theta, gold)
        feats = set()
        for prog in programs:
            feats.update(featurize(prog, qtokens, table))
        for f in sorted(feats):
            theta.weights[f] = rng.uniform(-1.0, 1.0)
        K = candidate_set(programs, qtokens, table, theta, gold)
        if require_compatible and not K.compatible:
            continue
        return qtokens, table, K, theta
