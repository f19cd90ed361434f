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

Children are ranked before they are built. Expanding a state computes,
for each legal action, only what the rank key reads: the score from the
action's precomputed feature dot product and the recall term, the
critique from token bitmasks, the partial reward only when lambda is not
0, and the serialization for the tie-break. Of the thousands of children
a search ranks, only the beam_size survivors of each step and the
completed programs become full states with executed row sets.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from . import programs as P
from .critique import EMPTY_LEXICON, Lexicon
from .scorer import (RECALL_FEATURE, ParamVector, action_features,
                     question_table_tokens)
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
    """Programs found for one example, ordered by the final beam ranking."""
    entries: list[Candidate] = field(default_factory=list)

    @property
    def compatible(self) -> list[Candidate]:
        return [c for c in self.entries if c.compatible]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


def rank_key(serialization: str, reward: float, score: float, critique: float,
             config: SearchConfig):
    """Sort key: ascending sort yields the declared descending-numeric,
    ascending-serialization order."""
    s = score + config.eta * critique if config.shaping_enabled else score
    if config.lambda_weight == math.inf:
        return (-reward, -s, serialization)
    return (-(config.lambda_weight * reward + s), serialization)


class _Hyp:
    __slots__ = ("actions", "ser", "state", "used", "score", "covered", "nonkw",
                 "present", "keywords", "cooccur", "reward", "critique")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


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

    class _Pre:
        __slots__ = ("action", "bit", "dot", "surf_nonkw", "surf_present",
                     "surf_e1", "keywords", "kw_weights", "tokens",
                     "tokens_after_or")

    def prepare(action: P.Action, bit: int = 0) -> _Pre:
        pre = _Pre()
        pre.action = action
        pre.bit = bit  # conditions are distinct, so a bit per index marks use
        pre.dot = theta.dot(action_features(action, qtokens, table))
        surf = P.action_surface_tokens(action, table) - P.KEYWORD_WORDS
        pre.surf_nonkw = mask(surf)
        pre.surf_present = mask(surf & qset)
        pre.surf_e1 = mask(surf & e1)
        keywords = P.action_keywords(action)
        pre.keywords = mask(keywords)
        pre.kw_weights = tuple((mask((x,)), kw_weight[x]) for x in keywords
                               if x in kw_weight)
        pre.tokens = " ".join(P.action_tokens(action, table, after_or=False))
        pre.tokens_after_or = " ".join(P.action_tokens(action, table, after_or=True))
        return pre

    # the prepared actions each kind of the grammar stands for, in order
    heads = P.head_actions(table, position)
    pre_kind = {k: [prepare(a) for a in heads if a.kind == k] for k in P.HEAD_KINDS}
    pre_kind[P.CONDITION] = [prepare(a, 1 << i) for i, a in
                             enumerate(P.condition_actions(table, tuple(qnumbers)))]
    pre_kind[P.OR] = [prepare(P.Action(P.OR))]
    pre_stop = prepare(P.Action(P.STOP))
    pre_kind[P.STOP] = [pre_stop]

    def partial_reward(state) -> float:
        """Jaccard of a state's partial execution against the gold answer."""
        values = P.answer_values(ctx, state)
        if not values and not gold_values:
            return 1.0
        inter = len(values & gold_values)
        return inter / (len(values) + len(gold_values) - inter)

    root = _Hyp(actions=(), ser="", state=ctx.start, used=0,
                score=(w_recall if e1_len else 0.0), covered=0,
                nonkw=0, present=0, keywords=0, cooccur=0,
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

    # A child is ranked from its parts: score, serialization and critique
    # bookkeeping, plus its partial reward when the key uses one. The full
    # _Hyp is built only for the beam_size survivors and for completed
    # programs, from the same parts, so the two paths agree bit for bit.

    def expand(hyp: _Hyp, keys: list, pending: list) -> None:
        """Append the rank key and parts of each incomplete child of hyp;
        completed children go straight to the pool."""
        h_score, h_ser, h_covered = hyp.score, hyp.ser, hyp.covered
        h_nonkw, h_present, h_keywords = hyp.nonkw, hyp.present, hyp.keywords
        h_state = hyp.state
        last_or = h_state[0] == "or"
        for pre in legal(hyp):
            new_e1 = pre.surf_e1 & ~h_covered
            score = h_score + pre.dot
            if new_e1:
                score -= w_recall * (new_e1.bit_count() / e1_len)
            tok = pre.tokens_after_or if last_or else pre.tokens
            ser = h_ser + " " + tok if h_ser and tok else (h_ser or tok)
            nonkw = h_nonkw | pre.surf_nonkw
            present = h_present | pre.surf_present
            cooccur = hyp.cooccur
            if pre.kw_weights:
                cooccur += sum(w for b, w in pre.kw_weights if not h_keywords & b)
            n = nonkw.bit_count()
            critique = (present.bit_count() / n if n else 0.0) + cooccur
            parts = (hyp, pre, score, ser, h_covered | new_e1, nonkw, present,
                     cooccur, critique)
            if pre is pre_stop:
                finalize(make_child(parts))
                continue
            reward = (partial_reward(P.step(ctx, h_state, pre.action))
                      if use_reward else 0.0)
            keys.append(rank_key(ser, reward, score, critique, config))
            pending.append(parts)

    def make_child(parts) -> _Hyp:
        hyp, pre, score, ser, covered, nonkw, present, cooccur, critique = parts
        state = P.step(ctx, hyp.state, pre.action)
        reward = 0.0
        if (use_reward or pre is pre_stop) and gold_values is not None:
            reward = partial_reward(state)
        return _Hyp(actions=hyp.actions + (pre.action,), ser=ser, state=state,
                    used=hyp.used | pre.bit, score=score, covered=covered,
                    nonkw=nonkw, present=present,
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

    beam = [root]
    for _ in range(config.max_actions):
        keys: list = []
        pending: list = []
        for hyp in beam:
            expand(hyp, keys, pending)
        if not pending:
            break
        # nsmallest keeps equal keys in expansion order
        best = heapq.nsmallest(config.beam_size, range(len(keys)), key=keys.__getitem__)
        beam = [make_child(pending[i]) for i in best]

    # the candidate set is one beam's worth of completed programs under the
    # final ranking, so shaping governs retention, not just order
    entries = sorted(pool.values(),
                     key=lambda c: rank_key(c.serialization, c.reward, c.score,
                                            c.critique, config))[:config.beam_size]
    return CandidateSet(entries)


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
