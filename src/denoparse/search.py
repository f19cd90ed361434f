"""Beam search over program states.

Each step expands every beam state by its legal actions and ranks the
children. With lambda = infinity the ranking is lexicographic: partial
reward first (Jaccard of the partial execution against the gold answer),
model score second, serialization as the final tie-break. With finite
lambda the key is lambda * reward + score. When shaping is enabled the
score component becomes score + eta * critique, the log-space equivalent
of multiplying the behavior policy by the critique policy over the beam
pool; stored scores and rewards are never shaped.

Completed programs leave the beam and accumulate into the candidate set,
so a beam at least as wide as the program space collects the whole space.
Scores and critique values are maintained incrementally per child; tests
cross-check them against the direct featurize/critique path. Legality and
execution are not copied here: a state's legal kinds come from
`programs.legal_kinds`, which reads the grammar table and prunes children
that cannot reach Stop within the action and condition budgets, and its
rows come from `programs.step` over one `programs.ExecContext` per search.

Kind groups. Each search prepares every action of the table once, from
parts shared across actions, and groups the prepared actions by kind. A
group holds parallel lists of the actions' feature dot products, surface
masks (non-keyword, and in the question's table tokens), and condition
bits, with the kind's keyword mask and co-occurrence weights once. One
`scorer.ActionFeaturizer` per search builds each column's, value's and
anchor's features once; `action_dot` sums each kind's weights once and
continues that sum over an action's few entity weights, left to right,
which gives `theta.dot(action_features(...))` bit for bit. The candidate
set carries that featurizer on to the update. A parent's children are
handled one group at a time: the co-occurrence term is computed once per
(parent, group), and the parent's used conditions are dropped only from a
group that holds one.

Shared child rows. A condition, OR or Stop keeps the parent's head, and
the rows it leaves depend only on the parent's (phase, base, rows), so one
dict per search maps that triple and a group to the answer rows of each
child, filled through `programs.step`; parents that differ only in head or
condition count share the list. A partial reward depends only on the head
column and the answer rows, so each search projects and scores one
Jaccard per distinct pair and reads it back for every other child with
the same pair. The root's children are heads, each its own child's head,
so they go straight through `step`.

Reward-first selection. Children are ranked before they are built, in two
passes per beam step. Pass 1 collects each parent's legal children and,
when lambda is not 0, their rewards; completed children are built and
finalized there. When the rank is lexicographic (lambda = inf) and there
are more than beam_size children, the floor is the
beam_size-th largest reward: a child below it ranks after at least
beam_size others, so it cannot survive, and every child tied at the floor
stays in the running. Pass 2 gives only the children at or above the
floor (all of them, otherwise) a numeric rank value, `rank_key` without
its serialization tie-break, from the one rank function
`rank_value(config)` picks for the search: the score from the action's
dot product and the recall term, and the critique from token bitmasks
only when shaping puts it in the key. `heapq.nsmallest` finds the
beam_size-th smallest value; every child at or below it stays in the
running, so children tied at the cut are then told apart by
serialization, which is built only for them. Sorting those on (value,
serialization) and keeping beam_size of them gives the same survivors in
the same order as sorting every child on `rank_key`. `CandidateSet.ranked`
counts the rank values given. Only the survivors of each step and the
completed programs become full states: `make_child` derives the
serialization, token masks and execution state from the parent and the
action, and an action's serialization tokens are joined the first time one
is needed. Only a completed program's reward and critique are read, so
`finalize` computes them, with the same Jaccard memo and critique formula.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain, repeat

from . import programs as P
from .critique import EMPTY_LEXICON, Lexicon
from .scorer import (RECALL_FEATURE, ActionFeaturizer, ParamVector,
                     question_table_tokens, weight_sum)
# unused here; bench/tracing.py patches search.action_features, so the name stays
from .scorer import action_features  # noqa: F401
from .tables import AnswerSet, Example, Table, exact_match


@dataclass
class SearchConfig:
    beam_size: int = 32
    max_actions: int = 6
    max_conditions: int = 2
    lambda_weight: float = math.inf  # inf: sort by reward, score breaks ties
    shaping_enabled: bool = False
    eta: float = 5.0

    def validate(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.max_actions < 2:
            raise ValueError("max_actions must allow at least a head and Stop")
        if self.max_conditions < 0:
            raise ValueError("max_conditions must be >= 0")
        if self.lambda_weight != math.inf and (self.lambda_weight < 0
                                               or not math.isfinite(self.lambda_weight)):
            raise ValueError("lambda_weight must be >= 0 or infinity")
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")


@dataclass(frozen=True)
class Candidate:
    program: P.Program
    serialization: str
    score: float
    reward: float
    critique: float
    compatible: bool
    answer: AnswerSet


@dataclass
class CandidateSet:
    """Programs found for one example, ordered by the final beam ranking,
    with the featurizer the search scored them by: `featurizer.featurize`
    gives a candidate's features, the gradient of its score."""
    entries: list[Candidate]
    featurizer: ActionFeaturizer
    ranked: int = 0  # children given a rank value, summed over the steps

    @property
    def compatible(self) -> list[Candidate]:
        return [c for c in self.entries if c.compatible]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def rank_value(config: SearchConfig):
    """The function of (reward, score, critique) that gives `rank_key`
    without its serialization tie-break: a float, or a pair at lambda =
    inf. The critique is read only when shaping is enabled."""
    lam, eta = config.lambda_weight, config.eta
    if config.shaping_enabled:
        if lam == math.inf:
            return lambda reward, score, critique: (-reward, -(score + eta * critique))
        return lambda reward, score, critique: -(lam * reward + (score + eta * critique))
    if lam == math.inf:
        return lambda reward, score, critique: (-reward, -score)
    return lambda reward, score, critique: -(lam * reward + score)


def rank_key(serialization: str, reward: float, score: float, critique: float,
             config: SearchConfig):
    """Sort key: ascending sort yields the declared descending-numeric,
    ascending-serialization order."""
    return (rank_value(config)(reward, score, critique), serialization)


class _Hyp:
    __slots__ = ("actions", "ser", "state", "used", "score", "nonkw",
                 "keywords", "cooccur")

    def __init__(self, actions, ser, state, used, score, nonkw, keywords, cooccur):
        self.actions, self.ser, self.state, self.used = actions, ser, state, used
        self.score, self.nonkw, self.keywords, self.cooccur = score, nonkw, keywords, cooccur


def action_dot(featurizer: ActionFeaturizer, weights: dict[str, float],
               kind_sums: dict[str, float], action: P.Action) -> float:
    """theta . action_features(action), bit for bit: the weight sum of the
    action's kind ids, computed once per kind into kind_sums, continued
    left to right over its entity ids."""
    start = kind_sums.get(action.kind)
    if start is None:
        start = kind_sums[action.kind] = weight_sum(
            weights, zip(featurizer.kind_ids(action.kind), repeat(1.0)))
    return weight_sum(weights, zip(featurizer.entity_ids(action), repeat(1.0)), start)


def beam_search(example: Example, table: Table, theta: ParamVector,
                lexicon: Lexicon | None, config: SearchConfig,
                prev_answer: AnswerSet | None = None) -> CandidateSet:
    config.validate()
    lexicon = lexicon or EMPTY_LEXICON
    position = example.position
    if position >= 1 and prev_answer is None:
        raise ValueError("prev_answer is required for follow-up positions")
    gold = example.gold_answer
    qtokens = example.question_tokens
    qset = frozenset(qtokens)
    qnumbers = example.question_numbers

    e1 = question_table_tokens(qtokens, table)
    e1_len = len(e1)
    w_recall = theta.get(RECALL_FEATURE)
    use_reward = config.lambda_weight != 0.0
    shaping = config.shaping_enabled
    rank = rank_value(config)
    gold_values = gold.values

    ctx = P.ExecContext(table, prev_answer)

    # lexicon pairs whose question side fires, bucketed by keyword
    kw_weight: dict[str, int] = {}
    for tok, kw in lexicon.pairs:
        if tok in qset:
            kw_weight[kw] = kw_weight.get(kw, 0) + 1

    # token and keyword sets are int bitmasks over this search's vocabulary
    token_bit: dict[str, int] = {}

    def mask(tokens) -> int:
        m = 0
        for t in tokens:
            m |= token_bit.setdefault(t, 1 << len(token_bit))
        return m

    # a state keeps only its non-keyword surface mask: its tokens in the
    # question are that & q_mask, and those in e1 that & mask(e1)
    q_mask = mask(qset)

    class _Group:
        """The prepared actions of one kind, as parallel lists."""
        __slots__ = ("actions", "dots", "surf_nonkw", "surf_e1", "bits", "all_bits",
                     "keywords", "kw_weights", "tokens")

    featurizer = ActionFeaturizer(qtokens, table)
    weights = theta.weights
    kind_sums: dict[str, float] = {}
    # surface masks (non-keyword, in e1) are shared per (column, value)
    surface_masks: dict[tuple, tuple[int, int]] = {}

    def prepare(actions: list[P.Action], bits: list[int]) -> _Group:
        """The group of actions, all of one kind; bits[i] marks the use of
        actions[i] (conditions are distinct, so a bit per index; 0 for the
        other kinds)."""
        g = _Group()
        g.actions, g.bits = actions, bits
        g.all_bits = sum(bits)
        g.dots = [action_dot(featurizer, weights, kind_sums, a) for a in actions]
        g.surf_nonkw, g.surf_e1 = [], []
        for a in actions:
            key = (a.column, a.value)
            masks = surface_masks.get(key)
            if masks is None:
                surf = P.action_surface_tokens(a, table)
                masks = surface_masks[key] = (mask(surf), mask(surf & e1))
            g.surf_nonkw.append(masks[0])
            g.surf_e1.append(masks[1])
        keywords = P.action_keywords(actions[0])
        g.keywords = mask(keywords)
        g.kw_weights = tuple((mask((x,)), kw_weight[x]) for x in keywords if x in kw_weight)
        # serialization tokens [not after OR, after OR], joined on first use
        g.tokens = ([None] * len(actions), [None] * len(actions))
        return g

    # the groups each kind of the grammar stands for, in order; CONDITION
    # stands for one group per condition kind
    heads = P.head_actions(table, position)
    conditions = P.condition_actions(table, tuple(qnumbers))
    groups_of: dict[str, list[_Group]] = {
        k: [prepare(acts, [0] * len(acts))]
        for k in P.HEAD_KINDS if (acts := [a for a in heads if a.kind == k])}
    groups_of[P.CONDITION] = [
        prepare([conditions[i] for i in idx], [1 << i for i in idx])
        for k in P.CONDITION_KINDS
        if (idx := [i for i, a in enumerate(conditions) if a.kind == k])]
    groups_of[P.OR] = [prepare([P.Action(P.OR)], [0])]
    stop = prepare([P.Action(P.STOP)], [0])
    groups_of[P.STOP] = [stop]

    # head column -> answer rows -> Jaccard of that answer against the gold
    # answer. The column stands for the head: FOLLOWUP's is None, and SELECT
    # and FPCELL of one column project the same rows alike.
    jaccards: dict[int | None, dict[int, float]] = {}

    def jaccard(head: P.Action, rows: int) -> float:
        """Jaccard against the gold answer of head's cells in the rows of
        the mask `rows`: the partial reward of a state with that answer."""
        memo = jaccards.setdefault(head.column, {})
        reward = memo.get(rows)
        if reward is None:
            # a completed state answers with its rows
            values = P.answer_values(ctx, ("complete", 0, head, rows, rows))
            inter = len(values & gold_values)
            union = len(values) + len(gold_values) - inter
            reward = memo[rows] = inter / union if union else 1.0
        return reward

    # (phase, base, rows) of a parent and a group -> the answer rows of the
    # parent's child by each action of the group. A condition, OR or Stop
    # keeps the head, and the rows do not depend on it or on the condition
    # count, so every parent with the same key shares the list.
    child_rows: dict[tuple, list[int]] = {}

    def rewards(hyp: _Hyp, g: _Group, idx) -> list[float]:
        """The partial rewards of hyp's children by g.actions[i], i in idx."""
        state = hyp.state
        phase, _, head, base, rows = state
        if head is None:
            # the root's children are heads, each the head of its own child
            return [jaccard(a, P.answer_rows(P.step(ctx, state, a)))
                    for a in (g.actions[i] for i in idx)]
        key = (phase, base, rows, g)
        answers = child_rows.get(key)
        if answers is None:
            answers = child_rows[key] = [P.answer_rows(P.step(ctx, state, a))
                                         for a in g.actions]
        if len(idx) < len(answers):
            answers = [answers[i] for i in idx]
        # one lookup per child, and a projection only for rows not yet seen
        out = list(map(jaccards.setdefault(head.column, {}).get, answers))
        if None in out:
            out = [jaccard(head, a) if r is None else r for r, a in zip(out, answers)]
        return out

    def child_scores(hyp: _Hyp, g: _Group, idx) -> list[float]:
        """The scores of hyp's children by g.actions[i], i in idx: the
        action's dot product and the recall term for the question's table
        tokens it newly covers."""
        h_score, h_nonkw, dots, surf_e1 = hyp.score, hyp.nonkw, g.dots, g.surf_e1
        # x - 0.0 is x, so a child that covers nothing new keeps the sum
        return [h_score + dots[i] - (w_recall * (new_e1.bit_count() / e1_len)
                                     if (new_e1 := surf_e1[i] & ~h_nonkw) else 0.0)
                for i in idx]

    def cooccurrence(hyp: _Hyp, g: _Group) -> int:
        """The co-occurrence weight of hyp's children by the actions of g."""
        if g.kw_weights:
            return hyp.cooccur + sum(w for b, w in g.kw_weights if not hyp.keywords & b)
        return hyp.cooccur

    def critique(nonkw: int, cooccur: int) -> float:
        """The critique of a state with non-keyword surface mask nonkw."""
        n = nonkw.bit_count()
        return ((nonkw & q_mask).bit_count() / n if n else 0.0) + cooccur

    root = _Hyp((), "", ctx.start, 0, w_recall if e1_len else 0.0, 0, 0, 0)

    def legal(hyp: _Hyp) -> list[_Group]:
        """The groups of the kinds that extend hyp, in grammar order."""
        phase, cond_count = hyp.state[:2]
        return [g for kind in P.legal_kinds(phase, config.max_conditions - cond_count,
                                            config.max_actions - len(hyp.actions))
                for g in groups_of.get(kind, ())]

    def serialize(hyp: _Hyp, g: _Group, i: int) -> str:
        """The serialization of hyp's child by g.actions[i]."""
        after_or = hyp.state[0] == "or"
        tokens = g.tokens[after_or]
        tok = tokens[i]
        if tok is None:
            tok = tokens[i] = " ".join(
                P.action_tokens(g.actions[i], table, after_or=after_or))
        h_ser = hyp.ser
        return h_ser + " " + tok if h_ser and tok else (h_ser or tok)

    def make_child(hyp: _Hyp, g: _Group, i: int, score: float) -> _Hyp:
        action = g.actions[i]
        return _Hyp(hyp.actions + (action,), serialize(hyp, g, i),
                    P.step(ctx, hyp.state, action), hyp.used | g.bits[i], score,
                    hyp.nonkw | g.surf_nonkw[i], hyp.keywords | g.keywords,
                    cooccurrence(hyp, g))

    pool: dict[str, Candidate] = {}

    def finalize(hyp: _Hyp):
        """Add a completed program to the pool, with its reward and
        critique."""
        if hyp.ser in pool:
            return
        state = hyp.state
        program = P.ProgramState(hyp.actions, True)
        answer = P.answer(ctx, state)
        compatible = exact_match(answer, gold)
        pool[hyp.ser] = Candidate(program, hyp.ser, hyp.score,
                                  jaccard(state[2], P.answer_rows(state)),
                                  critique(hyp.nonkw, hyp.cooccur), compatible, answer)

    n = config.beam_size
    lexicographic = use_reward and config.lambda_weight == math.inf
    ranked = 0
    beam = [root]
    for _ in range(config.max_actions):
        # pass 1: each parent's incomplete children, one group at a time,
        # with their rewards; completed programs go straight to the pool
        children = []
        for hyp in beam:
            used = hyp.used
            for g in legal(hyp):
                if g is stop:
                    finalize(make_child(hyp, g, 0, child_scores(hyp, g, (0,))[0]))
                    continue
                idx = range(len(g.actions))
                if used & g.all_bits:
                    idx = [i for i in idx if not used & g.bits[i]]
                children.append((hyp, g, idx, rewards(hyp, g, idx) if use_reward else None))
        # at lambda = inf a child whose reward is below the beam_size-th
        # largest ranks after at least beam_size others, so it cannot
        # survive; every child at or above that floor is ranked
        floor = None
        if lexicographic and sum(len(c[2]) for c in children) > n:
            floor = heapq.nlargest(n, chain.from_iterable(c[3] for c in children))[-1]
        # pass 2: the rank value and (parent, group, index, score) of each
        # child in the running
        values: list = []
        pending: list = []
        for hyp, g, idx, rw in children:
            if floor is not None:
                if not rw or max(rw) < floor:
                    continue
                idx = [i for i, r in zip(idx, rw) if r >= floor]
                rw = [r for r in rw if r >= floor]
            scores = child_scores(hyp, g, idx)
            crits = repeat(0.0)
            if shaping:
                nonkw, cooccur, surf = hyp.nonkw, cooccurrence(hyp, g), g.surf_nonkw
                crits = [critique(nonkw | surf[i], cooccur) for i in idx]
            values += map(rank, repeat(0.0) if rw is None else rw, scores, crits)
            pending += zip(repeat(hyp), repeat(g), idx, scores)
        ranked += len(values)
        if not pending:
            break
        kept = range(len(values))
        if len(values) > n:
            # every child tied with the cut value stays in the running
            cut = heapq.nsmallest(n, values)[-1]
            kept = [i for i, v in enumerate(values) if v <= cut]
        # the stable sort on (value, serialization) is the rank_key order
        kept = sorted(kept, key=lambda i: (values[i], serialize(*pending[i][:3])))
        beam = [make_child(*pending[i]) for i in kept[:n]]

    # the candidate set is one beam's worth of completed programs under the
    # final ranking, so shaping governs retention, not just order
    entries = sorted(pool.values(),
                     key=lambda c: rank_key(c.serialization, c.reward, c.score,
                                            c.critique, config))[:n]
    return CandidateSet(entries, featurizer, ranked)


def dump_record(example: Example, candidates: CandidateSet) -> dict:
    """JSON-able record of a final beam, for the debug dump."""
    return {
        "sequence_id": example.sequence_id,
        "position": example.position,
        "question": example.question,
        "beam": [
            {"program": c.serialization, "score": c.score, "reward": c.reward,
             "critique": c.critique, "compatible": c.compatible}
            for c in candidates
        ],
    }
