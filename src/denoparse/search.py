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
A caller that reads fewer, as `training.evaluate` reads only the top
program, passes `keep`, and the pool holds that many: the beam does not
depend on the pool, so they are the full pool's first. Scores and critique
values are maintained incrementally per child; tests cross-check them
against the direct featurize/critique path. Legality and execution are not
copied here: a state's legal kinds come from `programs.legal_kinds`, which
reads the grammar table and prunes children that cannot reach Stop within
the action and condition budgets. A kept child takes its phase, condition
count and head from `programs.advance`, the grammar half of `programs.step`,
and keeps its parent; its rows are stepped by `programs.step` over one
`programs.ExecContext` per search from its parent's the first time something
reads them, and kept. Rating children by partial reward at lambda != 0
reads each parent it rates, and the candidates read each returned program,
so no state is stepped twice and one that nothing reads never is. Each
kind of the grammar stands for one group of actions, and CONDITION for
every condition, a segment per kind. To rate a parent's children, the
search takes the rows of all its conditions in one pass of
`programs.condition_rows`, the rule `step` applies: a fixed condition's
mask is prepared per table, and an extremum's is the first of its
column's per-value masks, sorted by value, that meets the clause's scope.
It steps only the root's heads, and a kept head takes its rows from those
steps. One `_Search` holds a search's state; `beam_search` drives its
phases.

Candidate preparation keeps what depends on neither theta nor the question
in `_prepared`, an LRU of 128 (table, question numbers, follow-ups allowed)
keys whose per-kind preparations are shared per table where question
numbers cannot change them: each kind's actions, token masks over the
table's vocabulary and each condition's masks: a fixed condition's is the
mask of the table's rows it keeps, which `step` reads too, and an
extremum's those of its column's rows per distinct value. An action's
features are its kind's, then its column's, then its value's and those
near its anchor, and a value with no token in the question adds none, so
each search sums theta over one (kind, column) part per kind and column
and gives an action its own sum only when its value shares a token with
the question. `weight_sum` adds left to right, so both are the action's
dot product bit for bit. Only the pooled programs become `Candidate`s.

Only children that can reach the beam get a rank value. At lambda =
infinity a child below the beam_size-th best reward cannot. At finite
lambda each action has a bound that does not depend on the parent: its
dot product plus the most the recall term can add. Each segment's actions
are sorted by it once per search; when shaping is on at eta > 0 they are
first bucketed by their surface tokens' counts in and outside the
question, which with the parent's counts bound the child's critique.
Ranking scans the (parent, segment) pairs best parent first, scoring only
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
import weakref
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, groupby, repeat
from operator import attrgetter

from . import programs as P
from .critique import EMPTY_LEXICON, Lexicon
from .scorer import RECALL_FEATURE, ActionFeaturizer, ParamVector, weight_sum
# unused here; bench/tracing.py patches search.action_features, so the name stays
from .scorer import action_features  # noqa: F401
from .tables import AnswerSet, Example, Table, exact_match
from .text import parse_number, tokenize


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
    """A state of the search. `grammar` is its execution state's (phase,
    condition count, head), `state` the whole execution state, or None
    until `_Search.resolve` steps it from its parent's."""
    __slots__ = ("actions", "ser", "grammar", "parent", "state", "used", "score", "nonkw",
                 "keywords", "cooccur")

    def __init__(self, actions, ser, grammar, parent, state, used, score, nonkw, keywords,
                 cooccur):
        self.actions, self.ser, self.grammar, self.parent = actions, ser, grammar, parent
        self.state, self.used, self.score, self.nonkw = state, used, score, nonkw
        self.keywords, self.cooccur = keywords, cooccur


class _Group:
    """The actions a kind of the grammar stands for in one search: one
    kind's, or for CONDITION every condition kind's, with a `_Segment` per
    kind in grammar order. They come as parallel lists: the actions'
    feature dot products, surface masks (non-keyword, and in the question's
    table tokens) and `seg_of`, each action's segment. A search that rates
    children by reward takes `masks`, the fixed conditions' row masks, and
    `extrema`, the extrema's value masks, from the `_Prep`s. A condition
    used by a parent is the bit of its index in the parent's `used`;
    `all_bits` has a bit per action of the condition group, and is 0 for
    any other. `tokens` holds each action's serialization tokens [not
    after OR, after OR], joined the first time one is needed, and
    `bound_order` the segments' bound orders (see `_Search.bounds`)."""
    __slots__ = ("actions", "dots", "surf_nonkw", "surf_e1", "seg_of", "all_bits", "masks",
                 "extrema", "segs", "tokens", "bound_order")


class _Segment:
    """The actions of one kind in a group, its actions[start:stop], with
    the mask of their bits in `_Group.all_bits` and the kind's keyword
    mask and co-occurrence weights."""
    __slots__ = ("start", "stop", "bits", "keywords", "kw_weights")


class _Prep:
    """What a kind's preparation takes from the table alone, as tuples:
    the actions of one kind in preparation order, their non-keyword
    surface masks over the table's token vocabulary, the masks of their
    values' tokens (None for a kind without a value), and the kind's
    keyword mask. The actions of one column are adjacent; `runs` holds
    (first action, count) per column. `masks` holds each condition's
    masks from the first search that rates its children by reward, and is
    None until then and for any other kind: a fixed condition's is the
    mask of the table's rows it keeps, and an extremum's are the masks of
    its column's rows per distinct numeric value, in the order it tries
    them (largest value first for MAX, smallest first for MIN)."""
    __slots__ = ("actions", "surf_nonkw", "val_masks", "masks", "runs", "keywords")


class _TablePrep:
    """The preparation a table's searches share: the table's token
    vocabulary (token -> bit), the `_Prep` of every kind at no question
    numbers, and the row mask of each fixed condition that a search has
    needed: the `masks` of the _Preps made so far, and those
    `programs.step` matched itself, as the searches' ExecContexts share
    it."""
    __slots__ = ("vocab", "groups", "masks", "__weakref__")


# keyword masks use their own bits; they meet only each other
_KEYWORD_BITS = {kw: 1 << i for i, kw in enumerate(sorted(P.KEYWORD_TOKENS))}


@lru_cache(maxsize=None)
def _bit(i: int) -> int:
    """1 << i, one int for every table's bit i. The cache holds as many
    ints as the largest table has condition or vocabulary bits."""
    return 1 << i


class _Masks:
    """Token masks over a vocabulary (token -> bit); a token outside it
    takes the next bit in `extra`. Each (column, value)'s surface mask and
    each value's token mask are made once, and equal tuples are shared
    (EQ and NEQ list the same values, as do GT and LT)."""

    def __init__(self, vocab: dict[str, int], extra: dict[str, int], table: Table):
        self.vocab, self.extra, self.table = vocab, extra, table
        self._surface: dict[tuple, int] = {}
        self._values: dict[str, int] = {}
        self._tuples: dict[tuple, tuple] = {}

    def share(self, items) -> tuple:
        """tuple(items), or an equal tuple made before."""
        t = tuple(items)
        return self._tuples.setdefault(t, t)

    def seed(self, p: _Prep):
        """Take the masks of p's actions as made."""
        for a, surface, value in zip(p.actions, p.surf_nonkw, p.val_masks):
            self._surface[a.column, a.value] = surface
            self._values[a.value] = value

    def mask(self, tokens) -> int:
        """The mask of tokens; a token in neither vocabulary takes the next
        bit in `extra`."""
        vocab, extra, m = self.vocab, self.extra, 0
        for t in tokens:
            b = vocab.get(t) or extra.get(t)
            if b is None:
                b = extra[t] = _bit(len(vocab) + len(extra))
            m = m | b if m else b  # one token's mask is its shared bit
        return m

    def surface(self, action: P.Action) -> int:
        key = (action.column, action.value)
        m = self._surface.get(key)
        if m is None:
            m = self._surface[key] = self.mask(P.action_surface_tokens(action, self.table))
        return m

    def value(self, value: str) -> int:
        m = self._values.get(value)
        if m is None:
            m = self._values[value] = self.mask(tokenize(value))
        return m

    def prep(self, actions: list[P.Action]) -> _Prep:
        """The _Prep of actions, all of one kind."""
        p = _Prep()
        p.actions = tuple(actions)
        p.masks = None
        p.surf_nonkw = self.share(map(self.surface, actions))
        p.val_masks = (None if actions[0].value is None
                       else self.share(self.value(a.value) for a in actions))
        runs: dict[int | None, list[int]] = {}
        for i, a in enumerate(actions):
            runs.setdefault(a.column, [i, 0])[1] += 1
        p.runs = self.share(map(tuple, runs.values()))
        p.keywords = 0
        for kw in P.action_keywords(actions[0]):
            p.keywords |= _KEYWORD_BITS[kw]
        return p


_FIXED_KINDS = (P.EQ, P.NEQ, P.GT, P.LT)  # the conditions whose rows are fixed


def _row_masks(table: Table, kind: str, actions) -> list:
    """The `_Prep.masks` of actions, conditions of one kind. A fixed
    condition's is the mask of the table's rows that satisfy it, what
    `programs.match_rows` gives over every row: per column, EQ and NEQ
    read a map from each cell to the rows of its normalized value, and GT
    and LT bisect the column's numeric cells, in ascending order, for the
    rows below or above the value. An extremum's are the masks of the
    rows of each distinct numeric value of its column, largest first for
    MAX and smallest first for MIN: within a scope, the first of them
    that meets it holds the extremum, ties included, among numeric cells
    only, as `match_rows` picks it."""
    out: list = []
    flip = (1 << table.row_count) - 1 if kind == P.NEQ else 0
    for col, acts in groupby(actions, attrgetter("column")):
        cells = [row[col] for row in table.cells]
        if kind == P.EQ or kind == P.NEQ:
            norm, by_norm = table.normalized_column_values[col], {}
            for r, v in enumerate(norm):
                by_norm[v] = by_norm.get(v, 0) | _bit(r)
            rows_of = {c.raw: by_norm[v] for c, v in zip(cells, norm)}
            out += [flip ^ rows_of[a.value] for a in acts]
            continue
        numeric = sorted((c.numeric, r) for r, c in enumerate(cells) if c.numeric is not None)
        if kind == P.MAX or kind == P.MIN:
            by_value: dict[float, int] = {}
            for v, r in numeric:
                by_value[v] = by_value.get(v, 0) | _bit(r)
            ascending = tuple(by_value.values())
            out += [ascending[::-1] if kind == P.MAX else ascending for _ in acts]
            continue
        values, below = [v for v, _ in numeric], [0]  # below[i]: the rows of values[:i]
        for _, r in numeric:
            below.append(below[-1] | _bit(r))
        number_of = {c.raw: c.numeric for c in cells}
        for a in acts:
            x = number_of.get(a.value)
            if x is None:  # a number of the question's
                x = parse_number(a.value)
            out.append(below[-1] ^ below[bisect_right(values, x)] if kind == P.GT
                       else below[bisect_left(values, x)])
    return out


def _table_prep(table: Table) -> _TablePrep:
    """The _TablePrep of table. Its vocabulary holds every token of the
    table, so only a question's numbers can add one."""
    tp = _TablePrep()
    tp.vocab = {t: _bit(i) for i, t in enumerate(sorted(table.all_tokens))}
    masks = _Masks(tp.vocab, {}, table)
    tp.groups = {}
    heads = P.head_actions(table, 1)
    for kind in P.HEAD_KINDS:
        if acts := [a for a in heads if a.kind == kind]:
            tp.groups[kind] = masks.prep(acts)
    conditions = P.condition_actions(table)
    for kind in P.CONDITION_KINDS:
        if acts := [a for a in conditions if a.kind == kind]:
            tp.groups[kind] = masks.prep(acts)
    for kind in (P.OR, P.STOP):
        tp.groups[kind] = masks.prep([P.Action(kind)])
    tp.masks = {}
    return tp


# table -> its _TablePrep, for as long as a _prepared entry holds it
_TABLE_PREPS: "weakref.WeakValueDictionary[Table, _TablePrep]" = weakref.WeakValueDictionary()


@lru_cache(maxsize=128)
def _prepared(table: Table, question_numbers: tuple[str, ...], followups: bool) -> tuple:
    """(table prep, extra vocabulary, layout) of the searches on table
    whose question has these numbers, at a position that allows
    follow-ups or not. The layout maps each kind of the grammar to the
    _Preps of its group, in order: CONDITION's are those of every
    condition kind. The GT and LT preps are the table's unless the
    question's numbers add values to them; then they are built here, with
    any new value token in the extra vocabulary."""
    tp = _TABLE_PREPS.get(table)
    if tp is None:
        tp = _TABLE_PREPS[table] = _table_prep(table)
    groups, extra = dict(tp.groups), {}
    if question_numbers and P.GT in groups:
        # each numeric column (one MAX each) compared with its cells and the
        # question's numbers, in `programs.condition_actions`'s order
        values = [(a.column, v) for a in groups[P.MAX].actions
                  for v in P.comparison_values(table, a.column, question_numbers)]
        if len(values) > len(groups[P.GT].actions):
            # the table's comparisons keep their actions and masks
            masks = _Masks(tp.vocab, extra, table)
            masks.seed(groups[P.GT])
            known = {a: a for k in (P.GT, P.LT) for a in groups[k].actions}
            for kind in (P.GT, P.LT):
                acts = [known.get(a, a) for a in (P.Action(kind, c, v) for c, v in values)]
                groups[kind] = masks.prep(acts)
    heads = P.HEAD_KINDS if followups else (P.SELECT,)
    layout = [(k, (groups[k],)) for k in heads if k in groups]
    layout.append((P.CONDITION, tuple(groups[k] for k in P.CONDITION_KINDS if k in groups)))
    layout += [(P.OR, (groups[P.OR],)), (P.STOP, (groups[P.STOP],))]
    return tp, extra, tuple(layout)


def _kind_sum(featurizer: ActionFeaturizer, weights: dict[str, float],
              kind_sums: dict[str, float], kind: str) -> float:
    """The weight sum of kind's ids, computed once per kind into kind_sums."""
    start = kind_sums.get(kind)
    if start is None:
        start = kind_sums[kind] = weight_sum(weights, zip(featurizer.kind_ids(kind), repeat(1.0)))
    return start


def action_dot(featurizer: ActionFeaturizer, weights: dict[str, float],
               kind_sums: dict[str, float], action: P.Action) -> float:
    """theta . action_features(action), bit for bit: the weight sum of the
    action's kind ids, computed once per kind into kind_sums, continued
    left to right over its entity ids."""
    return weight_sum(weights, zip(featurizer.entity_ids(action), repeat(1.0)),
                      _kind_sum(featurizer, weights, kind_sums, action.kind))


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


def _cooccurrence(hyp: _Hyp, seg: _Segment) -> int:
    """The co-occurrence weight of hyp's children by the actions of seg."""
    if seg.kw_weights:
        return hyp.cooccur + sum(w for b, w in seg.kw_weights if not hyp.keywords & b)
    return hyp.cooccur


def _without(seq, used: int) -> list:
    """The items of seq but those at the indices of used's bits."""
    out, start = [], 0
    while used:
        i = (used & -used).bit_length() - 1
        out += seq[start:i]
        start, used = i + 1, used & (used - 1)
    out += seq[start:]
    return out


class _Search:
    """The state of one beam search, built by candidate preparation, and
    its phases: `expand`, `rank` and `select` make one beam step,
    `complete` pools each completed program that can be kept, and
    `candidates` gives the result. A parent's children are
    handled one group at a time."""

    def __init__(self, example: Example, table: Table, theta: ParamVector,
                 lexicon: Lexicon, config: SearchConfig, prev_answer: AnswerSet | None,
                 keep: int | None = None):
        """Candidate preparation: what neither theta nor the question
        changes comes from `_prepared`, and `group` adds the rest. A state
        keeps only its non-keyword surface mask over the table's
        vocabulary, whose tokens in the question are that & q_mask. The
        candidate set carries the search's `scorer.ActionFeaturizer` on to
        the update. The pool keeps the keep best completed programs, by
        default beam_size."""
        self.config, self.table, self.gold = config, table, example.gold_answer
        tp, extra, layout = _prepared(table, tuple(example.question_numbers),
                                      example.position >= 1)
        self.ctx = P.ExecContext(table, prev_answer)
        self.ctx.masks = tp.masks
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
        vocab = tp.vocab
        self.q_mask = self.e1_mask = 0
        for t in qset:
            if b := vocab.get(t) or extra.get(t):
                self.q_mask |= b
        for t in self.e1:
            self.e1_mask |= vocab[t]
        self.weights, self.kind_sums = theta.weights, {}
        # the group each kind of the grammar stands for, in a list; CONDITION's
        # holds every condition
        self.groups_of: dict[str, list[_Group]] = {
            kind: [self.group(preps)] for kind, preps in layout if preps}
        self.stop, self.or_ = self.groups_of[P.STOP][0], self.groups_of[P.OR][0]
        # head column -> answer rows -> Jaccard of that answer against the
        # gold answer. The column stands for the head: FOLLOWUP's is None,
        # and SELECT and FPCELL of one column project the same rows alike.
        self.jaccards: dict[int | None, dict[int, float]] = {}
        # (phase, base, rows) of a parent and a group -> (the answer rows
        # of the parent's child by each action of the group, head column ->
        # those children's partial rewards, and the children's states if
        # they are the root's heads, else None)
        self.reward_lists: dict[tuple, tuple[list[int], dict, list | None]] = {}
        # the keep best completed programs so far, serialization -> (parent,
        # score, reward or None, critique); `candidates` builds them
        self.keep = config.beam_size if keep is None else keep
        self.pool: dict[str, tuple] = {}
        self.best_keys: list = []  # their rank_keys, ascending
        self.ranked = 0
        start = self.ctx.start
        self.root = _Hyp((), "", start[:3], None, start, 0,
                         self.w_recall if self.e1 else 0.0, 0, 0, 0)

    def group(self, preps) -> _Group:
        """The group of preps' actions in this search, a segment per prep.
        Each action's dot product is its (kind, column) part's sum, the
        kind's sum continued over `column_ids`, unless its value shares a
        token with the question; only such an action gets `action_dot`. A
        search that rates children by reward makes a condition prep's
        masks if no search did, and shares a fixed condition's with
        `programs.step` through the table's masks."""
        g = _Group()
        featurizer, weights, kind_sums = self.featurizer, self.weights, self.kind_sums
        rate = self.config.lambda_weight != 0.0
        g.actions, g.surf_nonkw, g.dots, g.seg_of, g.segs = [], [], [], [], []
        g.masks, g.extrema, g.all_bits = [], [], 0
        for p in preps:
            actions = p.actions
            kind = actions[0].kind
            if rate and kind in P.CONDITION_KINDS:
                if p.masks is None:
                    p.masks = tuple(_row_masks(self.table, kind, actions))
                    if kind in _FIXED_KINDS:
                        self.ctx.masks.update(zip(actions, p.masks))
                (g.masks if kind in _FIXED_KINDS else g.extrema).extend(p.masks)
            g.seg_of += repeat(len(g.segs), len(actions))
            g.actions += actions
            g.surf_nonkw += p.surf_nonkw
            seg = _Segment()
            seg.start = len(g.dots)
            start = _kind_sum(featurizer, weights, kind_sums, kind)
            sums = [weight_sum(weights, zip(featurizer.column_ids(actions[i]), repeat(1.0)), start)
                    for i, _ in p.runs]
            g.dots += chain.from_iterable(map(repeat, sums, [n for _, n in p.runs]))
            if p.val_masks is not None:
                for i in compress(range(len(actions)), map(self.q_mask.__and__, p.val_masks)):
                    g.dots[seg.start + i] = action_dot(featurizer, weights, kind_sums, actions[i])
            seg.stop, seg.keywords = len(g.dots), p.keywords
            seg.bits = (1 << seg.stop) - (1 << seg.start) if kind in P.CONDITION_KINDS else 0
            g.all_bits |= seg.bits
            seg.kw_weights = tuple((_KEYWORD_BITS[x], self.kw_weight[x])
                                   for x in P.action_keywords(actions[0]) if x in self.kw_weight)
            g.segs.append(seg)
        n = len(g.dots)
        g.surf_e1 = list(map(self.e1_mask.__and__, g.surf_nonkw))
        g.tokens = ([None] * n, [None] * n)
        g.bound_order = None
        return g

    def legal(self, hyp: _Hyp) -> list[_Group]:
        """The groups of the kinds that extend hyp, in grammar order."""
        phase, cond_count = hyp.grammar[:2]
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

    def rewards(self, hyp: _Hyp, g: _Group) -> list[float]:
        """The partial rewards of hyp's children by each of g.actions, which
        read hyp's rows. A partial reward depends only on the head column
        and the answer rows, so each (column, rows) pair is scored once per
        search. A Stop child answers with the parent's rows, and an OR
        child, whose arm has not run, with the parent's base. The rows of a
        condition child depend only on the parent's (phase, base, rows) and
        the action, and one pass gives all of them: `programs.condition_rows`
        over the fixed conditions' row masks and, for each extremum, the
        first of its value masks that meets the clause's scope, whose rows
        in the scope are `match_rows`'s. No condition is stepped; the
        root's heads are, and `make_child` takes a kept head's state from
        those steps. So parents that differ only in head or condition count
        share one list of child rows, and those that share the head column
        too one list of rewards, which callers must not change. A condition
        keeps the parent's head; the root's children are heads, each the
        head of its own child."""
        state = hyp.state or self.resolve(hyp)
        phase, _, head, base, rows = state
        if g is self.stop:
            return [self.jaccard(head, rows)]
        if g is self.or_:
            return [self.jaccard(head, base)]
        key = (phase, base, rows, g)
        lists = self.reward_lists.get(key)
        if lists is None:
            states = None
            if head is None:
                ctx = self.ctx
                states = [P.step(ctx, state, a) for a in g.actions]
                answers = list(map(P.answer_rows, states))
            else:
                scope = base if phase == "or" else rows
                extrema = [next(filter(scope.__and__, ms), 0) for ms in g.extrema]
                answers = P.condition_rows(phase, base, rows, chain(g.masks, extrema))
            lists = self.reward_lists[key] = (answers, {}, states)
        answers, by_column, _ = lists
        if head is None:
            return list(map(self.jaccard, g.actions, answers))
        out = by_column.get(head.column)
        if out is None:
            memo = self.jaccards.setdefault(head.column, {})
            # a projection only for rows not yet seen
            for a in set(answers).difference(memo):
                self.jaccard(head, a)
            out = by_column[head.column] = list(map(memo.__getitem__, answers))
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
        time, as (parent, group, rewards): the rewards of its children by
        every action of the group, or None when lambda is 0. Completed
        children go to `complete`."""
        children = []
        use_reward, stop = self.config.lambda_weight != 0.0, self.stop
        for hyp in beam:
            for g in self.legal(hyp):
                if g is stop:
                    self.complete(hyp)
                else:
                    children.append((hyp, g, self.rewards(hyp, g) if use_reward else None))
        return children

    def bounds(self, g: _Group) -> list[tuple]:
        """The buckets of each of g's segments and the most an action's
        score terms weigh there, made the first time the scan bounds a pair
        of g's. The bound b_i = dots[i] + max(0, -w_recall) *
        popcount(surf_e1[i]) / |e1| is at least what action i adds to any
        parent's score, since the question's table tokens a child newly
        covers are among the action's own.

        A bucket is (sq, sn, its indices sorted by b_i largest first, their
        negated bounds). When shaping is on at eta > 0, a segment's actions
        are bucketed by the counts of their non-keyword surface mask S in
        the question's mask Q and outside it, sq = |S & Q| and sn = |S - Q|,
        which bound the critique of any parent's child (see `rank`); at any
        other setting the critique term needs no bound per action, and a
        segment is one bucket with sq = sn = 0."""
        if g.bound_order is None:
            per_token = max(0.0, -self.w_recall) / len(self.e1) if self.e1 else 0.0
            b = [d + per_token * m.bit_count() for d, m in zip(g.dots, g.surf_e1)]
            q_mask, surf, g.bound_order = self.q_mask, g.surf_nonkw, []
            for seg in g.segs:
                order = sorted(range(seg.start, seg.stop), key=b.__getitem__, reverse=True)
                buckets = {(0, 0): order}
                if self.config.shaping_enabled and self.config.eta > 0:
                    buckets = {}
                    for i in order:
                        s = surf[i]
                        buckets.setdefault(((s & q_mask).bit_count(),
                                            (s & ~q_mask).bit_count()), []).append(i)
                g.bound_order.append(
                    ([(sq, sn, idx, [-b[i] for i in idx]) for (sq, sn), idx in buckets.items()],
                     max(map(abs, g.dots[seg.start:seg.stop])) + abs(self.w_recall)))
        return g.bound_order

    def rank(self, children: list[tuple]) -> tuple[list, list]:
        """Pass 2: the rank value and (parent, group, index, score) of each
        child in the running, in (parent, group, index) order. A rank value
        is `rank_key` without its serialization tie-break: the score from
        the action's dot product and the recall term, and the critique from
        token bitmasks only when shaping puts it in the key. A parent's
        used conditions are dropped by index. `CandidateSet.ranked` counts
        the children given one.

        At lambda = inf, with more than beam_size children, the floor is
        the beam_size-th largest reward: a child below it ranks after at
        least beam_size others, so it cannot survive. Only the children at
        or above the floor (all of them, otherwise) are ranked, a parent's
        children by one group at once.

        At finite lambda the (parent, segment) pairs are scanned in beam
        order, best parent first, and a group's segments in order, keeping
        the beam_size best values seen. A child's key is at most
        hyp.score + b_i + lambda * the pair's best reward + the critique
        bound. For eta > 0 that is eta * (fb + co), with co the pair's
        co-occurrence weight and fb a bound on the child's match fraction
        from four counts: the parent's non-keyword surface mask A has a =
        |A| tokens, aq = |A & Q| in the question and an = a - aq outside
        it, and the action's bucket gives sq and sn. The child A | S adds x
        <= sq question tokens and y >= max(0, sn - an) others, and (aq + x)
        / (a + x + y) grows with x and falls with y, so the fraction is at
        most fb = (aq + sq) / (a + sq + max(0, sn - an)), or 0 when that
        denominator is 0 (then A | S is empty). Correctly rounded division
        and addition are monotone, so the float critique is at most the
        float fb + co as well. For eta <= 0 the bound is eta * co, the
        fraction being at least 0, and unshaped it is 0. Each pair ranks
        only the prefix of each bucket whose optimistic key reaches the
        beam_size-th best so far; a child below it ranks after beam_size
        others. The bound adds in another order than the score, so the
        prefix widens by 1e-9 times the sum of the magnitudes of a key's
        terms, far above their rounding error, and a child whose bound ties
        the cut is ranked."""
        n, lam = self.config.beam_size, self.config.lambda_weight
        shaping, eta = self.config.shaping_enabled, self.config.eta
        values: list = []
        pending: list = []
        if lam == math.inf:
            pairs = []
            for hyp, g, rw in children:
                idx = range(len(rw))
                if used := hyp.used & g.all_bits:
                    idx, rw = _without(idx, used), _without(rw, used)
                pairs.append((hyp, g, idx, rw))
            floor = None
            if sum(len(p[3]) for p in pairs) > n:
                floor = heapq.nlargest(n, chain.from_iterable(p[3] for p in pairs))[-1]
            for hyp, g, idx, rw in pairs:
                if floor is not None:
                    if not rw or max(rw) < floor:
                        continue
                    keep = list(map(floor.__le__, rw))
                    idx, rw = list(compress(idx, keep)), list(compress(rw, keep))
                cos = None
                if shaping:
                    co = list(map(_cooccurrence, repeat(hyp), g.segs))
                    cos = map(co.__getitem__, map(g.seg_of.__getitem__, idx))
                self.add_values(values, pending, hyp, g, idx, rw, cos)
            return values, pending
        crit_weight = eta if shaping else 0.0
        split, q_mask = shaping and eta > 0, self.q_mask
        best: list = []  # the beam_size smallest values so far, ascending
        for hyp, g, rw in children:
            used = hyp.used & g.all_bits
            co = map(_cooccurrence, repeat(hyp), g.segs) if shaping else repeat(0)
            for k, (seg, cooccur) in enumerate(zip(g.segs, co)):
                if len(best) < n:
                    idx = range(seg.start, seg.stop)
                    if used & seg.bits:
                        idx = [i for i in idx if not used >> i & 1]
                else:
                    extra = size = 0.0
                    if rw is not None:
                        legal = [rw[i] for i in range(seg.start, seg.stop) if not used >> i & 1]
                        if not legal:
                            continue
                        extra, size = lam * max(legal), lam
                    buckets, scale = self.bounds(g)[k]
                    h_score = hyp.score
                    # a child can reach the beam only if hyp.score + b_i +
                    # extra + its critique bound >= -cut, less the margin
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
                    if used & seg.bits:
                        order = [i for i in order if not used >> i & 1]
                    idx = order
                best += self.add_values(values, pending, hyp, g, idx,
                                        None if rw is None else list(map(rw.__getitem__, idx)),
                                        repeat(cooccur))
                best.sort()
                del best[n:]
        return values, pending

    def add_values(self, values: list, pending: list, hyp: _Hyp, g: _Group, idx, rw,
                   cos) -> list:
        """Append the rank values and (parent, group, index, score) of
        hyp's children by g.actions[i], i in idx, to values and pending,
        given their rewards rw (None at lambda = 0) and, when shaping,
        their co-occurrence weights cos; return the new values."""
        scores = self.child_scores(hyp, g, idx)
        crits = repeat(0.0)
        if self.config.shaping_enabled:
            nonkw, surf, q_mask = hyp.nonkw, g.surf_nonkw, self.q_mask
            crits = [_critique(nonkw | surf[i], c, q_mask) for i, c in zip(idx, cos)]
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
        after_or = hyp.grammar[0] == "or"
        tokens = g.tokens[after_or]
        tok = tokens[i]
        if tok is None:
            tok = tokens[i] = " ".join(
                P.action_tokens(g.actions[i], self.table, after_or=after_or))
        h_ser = hyp.ser
        return h_ser + " " + tok if h_ser and tok else (h_ser or tok)

    def make_child(self, hyp: _Hyp, g: _Group, i: int, score: float, ser: str) -> _Hyp:
        """hyp's child by g.actions[i], with serialization ser: its token
        masks, and the grammar half of its execution state from
        `programs.advance`. Its rows are not stepped here: a head's are
        those `rewards` stepped, if it rated the root's children, and any
        other child's wait for `resolve`."""
        action, seg = g.actions[i], g.segs[g.seg_of[i]]
        grammar, state = P.advance(*hyp.grammar, action), None
        if hyp is self.root:
            root = hyp.state
            lists = self.reward_lists.get((root[0], root[3], root[4], g))
            if lists is not None:
                state = grammar + lists[2][i][3:]
        return _Hyp(hyp.actions + (action,), ser, grammar, hyp, state,
                    hyp.used | (g.all_bits & 1 << i), score, hyp.nonkw | g.surf_nonkw[i],
                    hyp.keywords | seg.keywords, _cooccurrence(hyp, seg))

    def resolve(self, hyp: _Hyp) -> tuple:
        """hyp's execution state. A child's is stepped by `programs.step`
        from its parent's the first time something reads it, and kept, so
        no state is stepped twice and one that nothing reads never is:
        `rewards` reads each parent it rates at lambda != 0, and
        `candidates` each returned program."""
        state = hyp.state
        if state is None:
            state = hyp.state = P.step(self.ctx, self.resolve(hyp.parent), hyp.actions[-1])
        return state

    def complete(self, hyp: _Hyp):
        """Pool hyp's Stop child, unless it cannot be kept: the pool holds
        the keep best keys so far, and a child above the keep-th is
        dropped. The child's score, critique and, at lambda != 0, reward
        are computed once, for its key and its `Candidate`. The key reads
        the reward only at lambda != 0, where it is the Jaccard of the
        parent's rows, from the memo ranking fills. The serialization is
        built only for a value at or below the worst key. A serialization
        names one program, so a child whose serialization was pooled before
        has that key, and is skipped. The beam does not depend on the pool,
        so a pool of keep holds the first keep programs of a full one."""
        g, keys, n = self.stop, self.best_keys, self.keep
        score = self.child_scores(hyp, g, (0,))[0]
        reward = self.rewards(hyp, g)[0] if self.config.lambda_weight != 0.0 else None
        critique = _critique(hyp.nonkw | g.surf_nonkw[0], _cooccurrence(hyp, g.segs[0]),
                             self.q_mask)
        value = self.rank_value(reward or 0.0, score, critique)
        if len(keys) == n and value > keys[-1][0]:
            return
        ser = self.serialize(hyp, g, 0)
        if ser in self.pool or len(keys) == n and (value, ser) > keys[-1]:
            return
        self.pool[ser] = (hyp, score, reward, critique)
        insort(keys, (value, ser))
        if len(keys) > n:
            del self.pool[keys.pop()[1]]

    def candidates(self) -> CandidateSet:
        """The pooled programs under the final ranking, so shaping governs
        retention, not just order: a beam's worth, or the keep best. Only
        these become `Candidate`s: the child, its execution state, stepped
        from its prefixes' as far as nothing stepped them yet, its answer
        and, at lambda = 0, its reward are made here."""
        entries = []
        for _, ser in self.best_keys:
            hyp, score, reward, critique = self.pool[ser]
            child = self.make_child(hyp, self.stop, 0, score, ser)
            state = self.resolve(child)
            if reward is None:
                reward = self.jaccard(state[2], P.answer_rows(state))
            answer = P.answer(self.ctx, state)
            entries.append(Candidate(P.ProgramState(child.actions, True), ser, score, reward,
                                     critique, exact_match(answer, self.gold), answer))
        return CandidateSet(entries, self.featurizer, self.ranked)


def beam_search(example: Example, table: Table, theta: ParamVector,
                lexicon: Lexicon | None, config: SearchConfig,
                prev_answer: AnswerSet | None = None, *, keep: int | None = None) -> CandidateSet:
    """The candidate set of one example: candidate preparation, then one
    expand, rank and select per beam step until the beam is empty. It holds
    the keep best completed programs, by default beam_size: the beam does
    not depend on keep, so the entries are the first keep of a full
    pool's."""
    config.validate()
    if keep is not None and (type(keep) is not int or not 1 <= keep <= config.beam_size):
        raise ValueError(f"keep must be an int from 1 to beam_size ({config.beam_size}), "
                         f"not {keep!r}")
    if example.position >= 1 and prev_answer is None:
        raise ValueError("prev_answer is required for follow-up positions")
    search = _Search(example, table, theta, lexicon or EMPTY_LEXICON, config, prev_answer,
                     keep)
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
