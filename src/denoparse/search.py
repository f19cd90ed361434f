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
A partial reward depends only on the head and the answer rows, so each
search projects and scores one Jaccard per distinct (head, answer rows)
and reads it back for every other state with the same pair.

Each search prepares every action of the table once, from parts shared
across actions. One `scorer.ActionFeaturizer` per search builds each
column's, value's and anchor's features once; `action_dot` sums each kind's
weights once and continues that sum over an action's few entity weights,
left to right, which gives `theta.dot(action_features(...))` bit for bit.
The candidate set carries that featurizer on to the update.
Surface-token masks are stored once per (column, value), and the keyword
mask and co-occurrence weights once per kind.

Children are ranked before they are built. Expanding a state gives each
legal child a numeric rank value, `rank_key` without its serialization
tie-break, from the one rank function `rank_value(config)` picks for the
search: the score from the action's precomputed feature dot product and
the recall term, the critique from token bitmasks only when shaping puts
it in the key, and the partial reward only when lambda is not 0.
`heapq.nsmallest` finds the beam_size-th smallest value; every child at
or below it stays in the running, so children tied at the cut are then
told apart by serialization, which is built only for them. Sorting those
on (value, serialization) and keeping beam_size of them gives the same
survivors in the same order as sorting every child on `rank_key`. Only
the survivors of each step and the completed programs become full
states: `make_child` derives the serialization, token masks, critique,
execution state and reward from the parent and the action, and an
action's serialization tokens are joined the first time one is needed.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat

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

    @property
    def compatible(self) -> list[Candidate]:
        return [c for c in self.entries if c.compatible]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


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
                 "keywords", "cooccur", "reward", "critique")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


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
    use_reward = config.lambda_weight != 0.0 and gold is not None
    shaping = config.shaping_enabled
    rank = rank_value(config)
    gold_values = gold.values if gold is not None else None

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

    class _Pre:
        __slots__ = ("action", "bit", "dot", "surf_nonkw", "surf_e1",
                     "keywords", "kw_weights", "tokens")

    featurizer = ActionFeaturizer(qtokens, table)
    weights = theta.weights
    kind_sums: dict[str, float] = {}
    # parts shared across actions: surface masks (non-keyword, in e1) per
    # (column, value); keyword mask and co-occurrence weights per kind
    surface_masks: dict[tuple, tuple[int, int]] = {}
    kind_keywords: dict[str, tuple] = {}

    def prepare(action: P.Action, bit: int = 0) -> _Pre:
        pre = _Pre()
        pre.action = action
        pre.bit = bit  # conditions are distinct, so a bit per index marks use
        pre.dot = action_dot(featurizer, weights, kind_sums, action)
        key = (action.column, action.value)
        masks = surface_masks.get(key)
        if masks is None:
            surf = P.action_surface_tokens(action, table) - P.KEYWORD_WORDS
            masks = surface_masks[key] = (mask(surf), mask(surf & e1))
        pre.surf_nonkw, pre.surf_e1 = masks
        kw = kind_keywords.get(action.kind)
        if kw is None:
            keywords = P.action_keywords(action)
            kw = kind_keywords[action.kind] = (
                mask(keywords),
                tuple((mask((x,)), kw_weight[x]) for x in keywords if x in kw_weight))
        pre.keywords, pre.kw_weights = kw
        pre.tokens = [None, None]  # serialization tokens [not after OR, after OR]
        return pre

    # the prepared actions each kind of the grammar stands for, in order
    heads = P.head_actions(table, position)
    pre_kind = {k: [prepare(a) for a in heads if a.kind == k] for k in P.HEAD_KINDS}
    pre_kind[P.CONDITION] = [prepare(a, 1 << i) for i, a in
                             enumerate(P.condition_actions(table, tuple(qnumbers)))]
    pre_kind[P.OR] = [prepare(P.Action(P.OR))]
    pre_stop = prepare(P.Action(P.STOP))
    pre_kind[P.STOP] = [pre_stop]

    # (head column, answer rows) -> Jaccard of that answer against the gold
    # answer. The column stands for the head: FOLLOWUP's is None, and SELECT
    # and FPCELL of one column project the same rows alike.
    jaccards: dict[tuple, float] = {}

    def partial_reward(state) -> float:
        """Jaccard of a state's partial execution against the gold answer."""
        key = (state[2].column, P.answer_rows(state))
        reward = jaccards.get(key)
        if reward is None:
            values = P.answer_values(ctx, state)
            inter = len(values & gold_values)
            union = len(values) + len(gold_values) - inter
            reward = jaccards[key] = inter / union if union else 1.0
        return reward

    root = _Hyp(actions=(), ser="", state=ctx.start, used=0,
                score=(w_recall if e1_len else 0.0), nonkw=0, keywords=0, cooccur=0,
                reward=0.0, critique=0.0)

    def legal(hyp: _Hyp) -> list[_Pre]:
        """The prepared actions that extend hyp, in grammar order."""
        phase, cond_count = hyp.state[:2]
        used = hyp.used
        out = []
        for kind in P.legal_kinds(phase, config.max_conditions - cond_count,
                                  config.max_actions - len(hyp.actions)):
            out += [pre for pre in pre_kind[kind] if not used & pre.bit]
        return out

    def serialize(hyp: _Hyp, pre: _Pre) -> str:
        """The child's serialization; the action's tokens are joined on
        first use."""
        after_or = hyp.state[0] == "or"
        tok = pre.tokens[after_or]
        if tok is None:
            tok = pre.tokens[after_or] = " ".join(
                P.action_tokens(pre.action, table, after_or=after_or))
        h_ser = hyp.ser
        return h_ser + " " + tok if h_ser and tok else (h_ser or tok)

    def critique_parts(hyp: _Hyp, pre: _Pre):
        """(non-keyword tokens, co-occurrence, critique) of the child of hyp
        by pre."""
        nonkw = hyp.nonkw | pre.surf_nonkw
        cooccur = hyp.cooccur
        if pre.kw_weights:
            cooccur += sum(w for b, w in pre.kw_weights if not hyp.keywords & b)
        n = nonkw.bit_count()
        return nonkw, cooccur, ((nonkw & q_mask).bit_count() / n if n else 0.0) + cooccur

    def expand(hyp: _Hyp, values: list, pending: list) -> None:
        """Append the rank value and (parent, action, score) of each
        incomplete child of hyp; completed children go straight to the pool."""
        h_score, h_nonkw, h_state = hyp.score, hyp.nonkw, hyp.state
        for pre in legal(hyp):
            score = h_score + pre.dot
            new_e1 = pre.surf_e1 & ~h_nonkw
            if new_e1:
                score -= w_recall * (new_e1.bit_count() / e1_len)
            if pre is pre_stop:
                finalize(make_child(hyp, pre, score))
                continue
            critique = critique_parts(hyp, pre)[2] if shaping else 0.0
            reward = (partial_reward(P.step(ctx, h_state, pre.action))
                      if use_reward else 0.0)
            values.append(rank(reward, score, critique))
            pending.append((hyp, pre, score))

    def make_child(hyp: _Hyp, pre: _Pre, score: float) -> _Hyp:
        nonkw, cooccur, critique = critique_parts(hyp, pre)
        state = P.step(ctx, hyp.state, pre.action)
        reward = 0.0
        if (use_reward or pre is pre_stop) and gold_values is not None:
            reward = partial_reward(state)
        return _Hyp(actions=hyp.actions + (pre.action,), ser=serialize(hyp, pre),
                    state=state, used=hyp.used | pre.bit, score=score, nonkw=nonkw,
                    keywords=hyp.keywords | pre.keywords, cooccur=cooccur,
                    reward=reward, critique=critique)

    pool: dict[str, Candidate] = {}

    def finalize(hyp: _Hyp):
        if hyp.ser in pool:
            return
        program = P.ProgramState(hyp.actions, True)
        answer = P.answer(ctx, hyp.state)
        compatible = gold is not None and exact_match(answer, gold)
        pool[hyp.ser] = Candidate(program, hyp.ser, hyp.score, hyp.reward,
                                  hyp.critique, compatible, answer)

    n = config.beam_size
    beam = [root]
    for _ in range(config.max_actions):
        values: list = []
        pending: list = []
        for hyp in beam:
            expand(hyp, values, pending)
        if not pending:
            break
        kept = range(len(values))
        if len(values) > n:
            # every child tied with the cut value stays in the running
            cut = heapq.nsmallest(n, values)[-1]
            kept = [i for i, v in enumerate(values) if v <= cut]
        # the stable sort on (value, serialization) is the rank_key order
        kept = sorted(kept, key=lambda i: (values[i], serialize(*pending[i][:2])))
        beam = [make_child(*pending[i]) for i in kept[:n]]

    # the candidate set is one beam's worth of completed programs under the
    # final ranking, so shaping governs retention, not just order
    entries = sorted(pool.values(),
                     key=lambda c: rank_key(c.serialization, c.reward, c.score,
                                            c.critique, config))[:n]
    return CandidateSet(entries, featurizer)


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
