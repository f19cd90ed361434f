"""Beam search over program states.

Each step expands every beam state by its legal actions and ranks the
children. With lambda = infinity the ranking is lexicographic: partial
reward first (Jaccard of the partial execution against the gold answer),
model score second, serialization as the final tie-break. With finite
lambda the key is lambda * reward + score. When shaping is enabled the
score component becomes score + eta * critique, the log-space equivalent
of multiplying the behavior policy by the critique policy over the beam
pool; stored scores and rewards are never shaped.

Completed programs leave the beam for a pool of the beam_size best so
far, the final beam; a beam as wide as the program space collects it all.
Scores and critique values are maintained incrementally per child; tests
cross-check them against the direct featurize/critique path. Legality and
execution are not copied here: a state's legal kinds come from
`programs.legal_kinds`, which reads the grammar table and prunes children
that cannot reach Stop within the action and condition budgets, and its
rows come from `programs.step` over one `programs.ExecContext` per search.
One `_Search` holds a search's state; `beam_search` drives its phases.

Only children that can reach the beam get a rank value. At lambda =
infinity a child below the beam_size-th best reward cannot. At finite
lambda each action has a bound that does not depend on the parent: its
dot product plus the most the recall term can add. Each group's actions
are sorted by it once per search; when shaping is on at eta > 0 they are
first bucketed by their surface tokens' counts in and outside the
question, which with the parent's counts bound the child's critique.
Ranking scans the (parent, group) pairs best parent first, scoring only
the prefix of each bucket whose optimistic key (parent score + bound +
lambda * the pair's best reward + the critique bound) reaches the
beam_size-th best key so far. The bound and the score add in different
orders, so the prefix widens by a relative float margin, and a child
whose bound ties the cut is scored. Likewise a completed child whose key
is above the pool's worst is never built, and one that enters a full pool
pushes the worst out.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import chain, repeat

from . import programs as P
from .critique import EMPTY_LEXICON, Lexicon
from .scorer import RECALL_FEATURE, ActionFeaturizer, ParamVector, weight_sum
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
    inf. Unshaped, the critique weighs 0.0, and s + 0.0 * c == s."""
    lam = config.lambda_weight
    eta = config.eta if config.shaping_enabled else 0.0
    if lam == math.inf:
        return lambda reward, score, critique: (-reward, -(score + eta * critique))
    return lambda reward, score, critique: -(lam * reward + (score + eta * critique))


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


class _Group:
    """The prepared actions of one kind, as parallel lists: the actions'
    feature dot products, surface masks (non-keyword, and in the question's
    table tokens), and condition bits, with the kind's keyword mask and
    co-occurrence weights once. `tokens` holds each action's serialization
    tokens [not after OR, after OR], joined the first time one is needed."""
    __slots__ = ("actions", "dots", "surf_nonkw", "surf_e1", "bits", "all_bits",
                 "keywords", "kw_weights", "tokens", "bound_order")


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


def _critique(nonkw: int, cooccur: int, q_mask: int) -> float:
    """The critique of a state with non-keyword surface mask nonkw, given
    the question's mask q_mask."""
    n = nonkw.bit_count()
    return ((nonkw & q_mask).bit_count() / n if n else 0.0) + cooccur


def _fraction_bound(a: int, aq: int, sq: int, sn: int) -> float:
    """The most the match fraction of a child can be, for a parent whose
    non-keyword surface mask has a tokens, aq of them in the question, and
    an action whose mask has sq tokens in the question and sn outside it
    (the argument is in `_Search.rank`)."""
    d = a + sq + max(0, sn - (a - aq))
    return (aq + sq) / d if d else 0.0


def _cooccurrence(hyp: _Hyp, g: _Group) -> int:
    """The co-occurrence weight of hyp's children by the actions of g."""
    if g.kw_weights:
        return hyp.cooccur + sum(w for b, w in g.kw_weights if not hyp.keywords & b)
    return hyp.cooccur


class _Search:
    """The state of one beam search, built by candidate preparation, and
    its phases: `expand`, `rank` and `select` make one beam step,
    `complete` pools each completed program that can be kept, and
    `candidates` gives the result. A parent's children are
    handled one group at a time."""

    def __init__(self, example: Example, table: Table, theta: ParamVector,
                 lexicon: Lexicon, config: SearchConfig, prev_answer: AnswerSet | None):
        """Candidate preparation: every action of the table is prepared
        once, from parts shared across actions, into the kind groups. One
        `scorer.ActionFeaturizer` builds each column's, value's and
        anchor's features once; `action_dot` gives each action's score
        term. The candidate set carries that featurizer on to the update.
        Token and keyword sets are int bitmasks over this search's
        vocabulary; a state keeps only its non-keyword surface mask, whose
        tokens in the question are that & q_mask."""
        self.config, self.table, self.gold = config, table, example.gold_answer
        self.ctx = P.ExecContext(table, prev_answer)
        qtokens = example.question_tokens
        qset = frozenset(qtokens)
        self.featurizer = ActionFeaturizer(qtokens, table)
        self.e1 = self.featurizer.e1
        self.w_recall = theta.get(RECALL_FEATURE)
        self.rank_value = rank_value(config)
        # lexicon pairs whose question side fires, bucketed by keyword
        self.kw_weight: dict[str, int] = {}
        for tok, kw in lexicon.pairs:
            if tok in qset:
                self.kw_weight[kw] = self.kw_weight.get(kw, 0) + 1
        self.token_bit: dict[str, int] = {}
        self.q_mask = self.mask(qset)
        self.weights, self.kind_sums = theta.weights, {}
        # surface masks (non-keyword, in e1) are shared per (column, value)
        self.surface_masks: dict[tuple, tuple[int, int]] = {}
        # the groups each kind of the grammar stands for, in order; CONDITION
        # stands for one group per condition kind
        heads = P.head_actions(table, example.position)
        conditions = P.condition_actions(table, tuple(example.question_numbers))
        self.groups_of: dict[str, list[_Group]] = {
            k: [self.prepare(acts, [0] * len(acts))]
            for k in P.HEAD_KINDS if (acts := [a for a in heads if a.kind == k])}
        self.groups_of[P.CONDITION] = [
            self.prepare([conditions[i] for i in idx], [1 << i for i in idx])
            for k in P.CONDITION_KINDS
            if (idx := [i for i, a in enumerate(conditions) if a.kind == k])]
        self.groups_of[P.OR] = [self.prepare([P.Action(P.OR)], [0])]
        self.stop = self.prepare([P.Action(P.STOP)], [0])
        self.groups_of[P.STOP] = [self.stop]
        # head column -> answer rows -> Jaccard of that answer against the
        # gold answer. The column stands for the head: FOLLOWUP's is None,
        # and SELECT and FPCELL of one column project the same rows alike.
        self.jaccards: dict[int | None, dict[int, float]] = {}
        # (phase, base, rows) of a parent and a group -> the answer rows of
        # the parent's child by each action of the group
        self.child_rows: dict[tuple, list[int]] = {}
        self.pool: dict[str, Candidate] = {}  # the beam_size best completed programs so far
        self.best_keys: list = []  # their rank_keys, ascending
        self.ranked = 0
        self.root = _Hyp((), "", self.ctx.start, 0, self.w_recall if self.e1 else 0.0,
                         0, 0, 0)

    def mask(self, tokens) -> int:
        """The bitmask of tokens, giving each new token the next bit."""
        token_bit, m = self.token_bit, 0
        for t in tokens:
            m |= token_bit.setdefault(t, 1 << len(token_bit))
        return m

    def prepare(self, actions: list[P.Action], bits: list[int]) -> _Group:
        """The group of actions, all of one kind; bits[i] marks the use of
        actions[i] (conditions are distinct, so a bit per index; 0 for the
        other kinds)."""
        g = _Group()
        g.actions, g.bits = actions, bits
        g.all_bits = sum(bits)
        g.dots = [action_dot(self.featurizer, self.weights, self.kind_sums, a)
                  for a in actions]
        g.surf_nonkw, g.surf_e1 = [], []
        for a in actions:
            key = (a.column, a.value)
            masks = self.surface_masks.get(key)
            if masks is None:
                surf = P.action_surface_tokens(a, self.table)
                masks = self.surface_masks[key] = (self.mask(surf), self.mask(surf & self.e1))
            g.surf_nonkw.append(masks[0])
            g.surf_e1.append(masks[1])
        keywords = P.action_keywords(actions[0])
        g.keywords = self.mask(keywords)
        g.kw_weights = tuple((self.mask((x,)), self.kw_weight[x])
                             for x in keywords if x in self.kw_weight)
        g.tokens = ([None] * len(actions), [None] * len(actions))
        g.bound_order = None
        return g

    def legal(self, hyp: _Hyp) -> list[_Group]:
        """The groups of the kinds that extend hyp, in grammar order."""
        phase, cond_count = hyp.state[:2]
        config = self.config
        return [g for kind in P.legal_kinds(phase, config.max_conditions - cond_count,
                                            config.max_actions - len(hyp.actions))
                for g in self.groups_of.get(kind, ())]

    def jaccard(self, head: P.Action, rows: int) -> float:
        """Jaccard against the gold answer of head's cells in the rows of
        the mask `rows`: the partial reward of a state with that answer."""
        memo = self.jaccards.setdefault(head.column, {})
        reward = memo.get(rows)
        if reward is None:
            # a completed state answers with its rows
            values = P.answer_values(self.ctx, ("complete", 0, head, rows, rows))
            gold_values = self.gold.values
            inter = len(values & gold_values)
            union = len(values) + len(gold_values) - inter
            reward = memo[rows] = inter / union if union else 1.0
        return reward

    def rewards(self, hyp: _Hyp, g: _Group, idx) -> list[float]:
        """The partial rewards of hyp's children by g.actions[i], i in idx.
        The rows a child leaves depend only on the parent's (phase, base,
        rows) and the action, so parents that differ only in head or
        condition count share one list of child rows, filled through
        `programs.step`. A partial reward depends only on the head column
        and the answer rows, so each (column, rows) pair is scored once
        per search. A condition, OR or Stop keeps the parent's head; the
        root's children are heads, each the head of its own child."""
        state = hyp.state
        phase, _, head, base, rows = state
        key = (phase, base, rows, g)
        answers = self.child_rows.get(key)
        if answers is None:
            ctx = self.ctx
            answers = self.child_rows[key] = [P.answer_rows(P.step(ctx, state, a))
                                              for a in g.actions]
        if len(idx) < len(answers):
            answers = [answers[i] for i in idx]
        if head is None:
            return [self.jaccard(g.actions[i], a) for i, a in zip(idx, answers)]
        # one lookup per child, and a projection only for rows not yet seen
        out = list(map(self.jaccards.setdefault(head.column, {}).get, answers))
        if None in out:
            out = [self.jaccard(head, a) if r is None else r for r, a in zip(out, answers)]
        return out

    def child_scores(self, hyp: _Hyp, g: _Group, idx) -> list[float]:
        """The scores of hyp's children by g.actions[i], i in idx: the
        action's dot product and the recall term for the question's table
        tokens it newly covers."""
        h_score, h_nonkw, dots, surf_e1 = hyp.score, hyp.nonkw, g.dots, g.surf_e1
        w_recall, e1_len = self.w_recall, len(self.e1)
        # x - 0.0 is x, so a child that covers nothing new keeps the sum
        return [h_score + dots[i] - (w_recall * (new_e1.bit_count() / e1_len)
                                     if (new_e1 := surf_e1[i] & ~h_nonkw) else 0.0)
                for i in idx]

    def expand(self, beam: list[_Hyp]) -> list[tuple]:
        """Pass 1: each parent's legal incomplete children, one group at a
        time, as (parent, group, indices, rewards); rewards is None when
        lambda is 0. A parent's used conditions are dropped only from a
        group that holds one. Completed children go to `complete`."""
        children = []
        use_reward, stop = self.config.lambda_weight != 0.0, self.stop
        for hyp in beam:
            used = hyp.used
            for g in self.legal(hyp):
                if g is stop:
                    self.complete(hyp)
                    continue
                idx = range(len(g.actions))
                if used & g.all_bits:
                    idx = [i for i in idx if not used & g.bits[i]]
                children.append((hyp, g, idx, self.rewards(hyp, g, idx) if use_reward else None))
        return children

    def bounds(self, g: _Group) -> tuple:
        """g's buckets and the most an action's score terms weigh, made the
        first time the scan bounds a pair of g's. The bound b_i = dots[i] +
        max(0, -w_recall) * popcount(surf_e1[i]) / |e1| is at least what
        action i adds to any parent's score, since the question's table
        tokens a child newly covers are among the action's own.

        A bucket is (sq, sn, its indices sorted by b_i largest first, their
        negated bounds). When shaping is on at eta > 0, g's actions are
        bucketed by the counts of their non-keyword surface mask S in the
        question's mask Q and outside it, sq = |S & Q| and sn = |S - Q|,
        which bound the critique of any parent's child (see `rank`); at
        any other setting the critique term needs no bound per action, and
        g is one bucket with sq = sn = 0."""
        if g.bound_order is None:
            per_token = max(0.0, -self.w_recall) / len(self.e1) if self.e1 else 0.0
            b = [d + per_token * m.bit_count() for d, m in zip(g.dots, g.surf_e1)]
            order = sorted(range(len(b)), key=b.__getitem__, reverse=True)
            buckets = {(0, 0): order}
            if self.config.shaping_enabled and self.config.eta > 0:
                q_mask, surf, buckets = self.q_mask, g.surf_nonkw, {}
                for i in order:
                    s = surf[i]
                    buckets.setdefault(((s & q_mask).bit_count(), (s & ~q_mask).bit_count()),
                                       []).append(i)
            g.bound_order = ([(sq, sn, idx, [-b[i] for i in idx])
                              for (sq, sn), idx in buckets.items()],
                             max(map(abs, g.dots)) + abs(self.w_recall))
        return g.bound_order

    def rank(self, children: list[tuple]) -> tuple[list, list]:
        """Pass 2: the rank value and (parent, group, index, score) of each
        child in the running, in (parent, group, index) order. A rank value
        is `rank_key` without its serialization tie-break: the score from
        the action's dot product and the recall term, and the critique from
        token bitmasks only when shaping puts it in the key.
        `CandidateSet.ranked` counts the children given one.

        At lambda = inf, with more than beam_size children, the floor is
        the beam_size-th largest reward: a child below it ranks after at
        least beam_size others, so it cannot survive. Only the children at
        or above the floor (all of them, otherwise) are ranked.

        At finite lambda the (parent, group) pairs are scanned in beam
        order, best parent first, keeping the beam_size best values seen.
        A child's key is at most hyp.score + b_i + lambda * max(rewards)
        + the critique bound. For eta > 0 that is eta * (fb + co), with co
        the pair's co-occurrence weight and fb a bound on the child's
        match fraction from four counts: the parent's non-keyword surface
        mask A has a = |A| tokens, aq = |A & Q| in the question and an =
        a - aq outside it, and the action's bucket gives sq and sn. The
        child A | S adds x <= sq question tokens and y >= max(0, sn - an)
        others, and (aq + x) / (a + x + y) grows with x and falls with y,
        so the fraction is at most fb = (aq + sq) / (a + sq + max(0, sn -
        an)), or 0 when that denominator is 0 (then A | S is empty).
        Correctly rounded division and addition are monotone, so the float
        critique is at most the float fb + co as well. For eta <= 0 the
        bound is eta * co, the fraction being at least 0, and unshaped it
        is 0. Each pair ranks only the prefix of each bucket whose
        optimistic key reaches the beam_size-th best so far; a child below
        it ranks after beam_size others. The bound adds in another order
        than the score, so the prefix widens by 1e-9 times the sum of the
        magnitudes of a key's terms, far above their rounding error, and a
        child whose bound ties the cut is ranked."""
        n, lam = self.config.beam_size, self.config.lambda_weight
        shaping, eta = self.config.shaping_enabled, self.config.eta
        values: list = []
        pending: list = []
        if lam == math.inf:
            floor = None
            if sum(len(c[2]) for c in children) > n:
                floor = heapq.nlargest(n, chain.from_iterable(c[3] for c in children))[-1]
            for hyp, g, idx, rw in children:
                if floor is not None:
                    if not rw or max(rw) < floor:
                        continue
                    idx = [i for i, r in zip(idx, rw) if r >= floor]
                    rw = [r for r in rw if r >= floor]
                self.add_values(values, pending, hyp, g, idx, rw,
                                _cooccurrence(hyp, g) if shaping else 0)
            return values, pending
        crit_weight = eta if shaping else 0.0
        split, q_mask = shaping and eta > 0, self.q_mask
        best: list = []  # the beam_size smallest values so far, ascending
        for hyp, g, idx, rw in children:
            if not idx:
                continue
            cooccur = _cooccurrence(hyp, g) if shaping else 0
            if len(best) == n:
                buckets, scale = self.bounds(g)
                h_score = hyp.score
                # a child can reach the beam only if hyp.score + b_i +
                # extra + its critique bound >= -cut, less the margin
                extra, size = (lam * max(rw), lam) if rw else (0.0, 0.0)
                size += abs(h_score) + abs(best[-1]) + scale + abs(crit_weight) * (1 + cooccur)
                base = h_score + extra + best[-1] + 1e-9 * size
                if split:
                    a, aq = hyp.nonkw.bit_count(), (hyp.nonkw & q_mask).bit_count()
                order = []
                for sq, sn, b_order, neg_bounds in buckets:
                    frac = _fraction_bound(a, aq, sq, sn) if split else 0.0
                    order += b_order[:bisect_right(neg_bounds,
                                                   base + crit_weight * (frac + cooccur))]
                if not order:
                    continue
                order.sort()
                if hyp.used & g.all_bits:
                    order = [i for i in order if not hyp.used & g.bits[i]]
                if rw is not None:
                    rw = list(map(dict(zip(idx, rw)).__getitem__, order))
                idx = order
            best += self.add_values(values, pending, hyp, g, idx, rw, cooccur)
            best.sort()
            del best[n:]
        return values, pending

    def add_values(self, values: list, pending: list, hyp: _Hyp, g: _Group, idx, rw,
                   cooccur: int) -> list:
        """Append the rank values and (parent, group, index, score) of
        hyp's children by g.actions[i], i in idx, to values and pending,
        given their rewards rw (None at lambda = 0) and the pair's
        co-occurrence weight; return the new values."""
        scores = self.child_scores(hyp, g, idx)
        crits = repeat(0.0)
        if self.config.shaping_enabled:
            nonkw, surf, q_mask = hyp.nonkw, g.surf_nonkw, self.q_mask
            crits = [_critique(nonkw | surf[i], cooccur, q_mask) for i in idx]
        new = list(map(self.rank_value, repeat(0.0) if rw is None else rw, scores, crits))
        values += new
        pending += zip(repeat(hyp), repeat(g), idx, scores)
        self.ranked += len(new)
        return new

    def select(self, values: list, pending: list) -> list[_Hyp]:
        """The next beam. `heapq.nsmallest` finds the beam_size-th smallest
        value; every child at or below it stays in the running, so children
        tied at the cut are then told apart by serialization, which is
        built only for them. Sorting those on (value, serialization, index)
        and keeping beam_size of them gives the same survivors in the same
        order as sorting every child on `rank_key`. Only the survivors
        become full states, each from the serialization its key holds."""
        n = self.config.beam_size
        kept = range(len(values))
        if len(values) > n:
            cut = heapq.nsmallest(n, values)[-1]
            kept = [i for i, v in enumerate(values) if v <= cut]
        keys = sorted((values[i], self.serialize(*pending[i][:3]), i) for i in kept)
        return [self.make_child(*pending[i], ser) for _, ser, i in keys[:n]]

    def serialize(self, hyp: _Hyp, g: _Group, i: int) -> str:
        """The serialization of hyp's child by g.actions[i]."""
        after_or = hyp.state[0] == "or"
        tokens = g.tokens[after_or]
        tok = tokens[i]
        if tok is None:
            tok = tokens[i] = " ".join(
                P.action_tokens(g.actions[i], self.table, after_or=after_or))
        h_ser = hyp.ser
        return h_ser + " " + tok if h_ser and tok else (h_ser or tok)

    def make_child(self, hyp: _Hyp, g: _Group, i: int, score: float, ser: str) -> _Hyp:
        """hyp's child by g.actions[i], with serialization ser: its token
        masks and execution state, derived from the parent and the action."""
        action = g.actions[i]
        return _Hyp(hyp.actions + (action,), ser,
                    P.step(self.ctx, hyp.state, action), hyp.used | g.bits[i], score,
                    hyp.nonkw | g.surf_nonkw[i], hyp.keywords | g.keywords,
                    _cooccurrence(hyp, g))

    def complete(self, hyp: _Hyp):
        """Pool hyp's Stop child, unless it cannot be kept. The child's
        score, critique and reward are computed once, for its key and its
        `Candidate`. The key reads the reward only at lambda != 0, where it
        comes from the child rows and the Jaccard memo as in ranking; at
        lambda = 0 only a kept child's is computed, from its state. The
        serialization is built only for a value at or below the worst key.
        A serialization names one program, so a child whose serialization
        was pooled before has that key, and is skipped."""
        g, keys, n = self.stop, self.best_keys, self.config.beam_size
        score = self.child_scores(hyp, g, (0,))[0]
        reward = self.rewards(hyp, g, (0,))[0] if self.config.lambda_weight != 0.0 else None
        critique = _critique(hyp.nonkw | g.surf_nonkw[0], _cooccurrence(hyp, g), self.q_mask)
        value = self.rank_value(reward or 0.0, score, critique)
        if len(keys) == n and value > keys[-1][0]:
            return
        ser = self.serialize(hyp, g, 0)
        if ser in self.pool or len(keys) == n and (value, ser) > keys[-1]:
            return
        child = self.make_child(hyp, g, 0, score, ser)
        if reward is None:
            reward = self.jaccard(child.state[2], P.answer_rows(child.state))
        answer = P.answer(self.ctx, child.state)
        self.pool[ser] = Candidate(P.ProgramState(child.actions, True), ser, score, reward,
                                   critique, exact_match(answer, self.gold), answer)
        insort(keys, (value, ser))
        if len(keys) > n:
            del self.pool[keys.pop()[1]]

    def candidates(self) -> CandidateSet:
        """One beam's worth of completed programs under the final ranking,
        so shaping governs retention, not just order."""
        return CandidateSet([self.pool[s] for _, s in self.best_keys], self.featurizer,
                            self.ranked)


def beam_search(example: Example, table: Table, theta: ParamVector,
                lexicon: Lexicon | None, config: SearchConfig,
                prev_answer: AnswerSet | None = None) -> CandidateSet:
    """The candidate set of one example: candidate preparation, then one
    expand, rank and select per beam step until the beam is empty."""
    config.validate()
    if example.position >= 1 and prev_answer is None:
        raise ValueError("prev_answer is required for follow-up positions")
    search = _Search(example, table, theta, lexicon or EMPTY_LEXICON, config, prev_answer)
    beam = [search.root]
    for _ in range(config.max_actions):
        beam = search.select(*search.rank(search.expand(beam)))
        if not beam:
            break
    return search.candidates()


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
