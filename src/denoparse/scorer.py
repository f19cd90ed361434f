"""Featurized linear scorer over programs.

score(y) = theta . featurize(y), summed from per-action features: the
action kind, exact/overlap token match between the question and the
column or value the action touches, a related-column indicator (some
question token occurs in the column's cells), and a whole-program recall
feature measuring how much of the question's table vocabulary the program
leaves uncovered. Linearity makes the gradient of the score exactly the
feature vector, which the update identities in tests lean on.

One featurizer, `ActionFeaturizer`, computes the per-action features for a
(question, table) pair. It splits an action's feature ids into a kind part,
shared by every action of a kind, and an entity part assembled from
per-column, per-value and per-anchor pieces that it computes once each.
`action_features`, `featurize`, the beam search and the update all go
through it: the search returns its featurizer with the candidate set, and
the update reads each candidate's features from it. `weight_sum` adds
every dot product left to right, so the search's score, the kind part's
sum continued over the entity part, equals `theta.dot(action_features(...))`
bit for bit.
"""
from __future__ import annotations

import math

from .programs import KEYWORD_WORDS, ProgramState, program_surface_tokens
from .tables import Table
from .text import tokenize

# A FeatureVector is a plain dict feature_id -> value with no zero entries.
FeatureVector = dict

RECALL_FEATURE = "recall"


def question_table_tokens(question_tokens, table: Table) -> frozenset[str]:
    """Question tokens that also occur somewhere in the table."""
    return frozenset(question_tokens) & table.all_tokens


_NEAR_WINDOW = 2
_ATTACH_DISTANCE = 3


class ActionFeaturizer:
    """The features of every action and program over one (question, table)
    pair: `ids` gives an action's, `featurize` a whole program's.

    Besides kind indicators and entity match/overlap/related indicators,
    each action gets question-word conjunctions (kind x token, bag level)
    and proximity features anchored at the question position of the
    action's value (or its column, for value-less conditions): an
    attachment indicator when value and column tokens sit close together,
    and kind x nearby-token conjunctions. Proximity is what lets a linear
    model attach "more than 10" to the right column in a two-clause
    question.

    Every feature has the value 1.0, and an action's ids come in two parts.
    `kind_ids(kind)` is `act=K` followed by `K~t` for each question token
    t, the same for every action of kind K. `entity_ids(action)` is the
    rest, in this order: the column's exact, overlap and related flags, the
    value's exact and overlap flags, the value-near-column flag and the
    kind x nearby-token conjunctions. A column's flags and question
    positions, a value's, and the nearby tokens of an anchor tuple are each
    computed once, on first use, and shared by every action that has them.
    """

    def __init__(self, question_tokens, table: Table):
        self.question_tokens = tuple(question_tokens)
        self.table = table
        self._qset = frozenset(self.question_tokens)
        # iteration over token sets is sorted so feature insertion order, and
        # with it float summation order, is identical across processes
        self._qsorted = sorted(self._qset)
        self._kinds: dict[str, list[str]] = {}
        self._columns: dict[int, tuple[list[str], tuple[int, ...]]] = {}
        self._values: dict[str, tuple[list[str], tuple[int, ...]]] = {}
        self._near: dict[tuple[int, ...], list[str]] = {}

    def kind_ids(self, kind: str) -> list[str]:
        ids = self._kinds.get(kind)
        if ids is None:
            ids = self._kinds[kind] = [f"act={kind}"] + [f"{kind}~{t}" for t in self._qsorted]
        return ids

    def _match(self, name: str, toks: list[str]) -> tuple[list[str], tuple[int, ...]]:
        """The exact and overlap id suffixes of an entity's tokens, and the
        question positions that hold one of them."""
        if not toks:
            return [], ()
        inq = [t in self._qset for t in toks]
        suffixes = []
        if all(inq):
            suffixes.append(f":{name}_exact")
        if any(inq):
            suffixes.append(f":{name}_overlap")
        tset = set(toks)
        return suffixes, tuple(i for i, t in enumerate(self.question_tokens) if t in tset)

    def _column(self, col: int) -> tuple[list[str], tuple[int, ...]]:
        part = self._columns.get(col)
        if part is None:
            suffixes, positions = self._match("col", tokenize(self.table.column_names[col]))
            if self.table.column_cell_tokens[col] & self._qset:
                suffixes.append(":col_related")
            part = self._columns[col] = (suffixes, positions)
        return part

    def _value(self, value: str) -> tuple[list[str], tuple[int, ...]]:
        part = self._values.get(value)
        if part is None:
            part = self._values[value] = self._match("val", tokenize(value))
        return part

    def _near_suffixes(self, anchors: tuple[int, ...]) -> list[str]:
        """`@t` for each distinct token t within the window of an anchor,
        in question order."""
        suffixes = self._near.get(anchors)
        if suffixes is None:
            q = self.question_tokens
            near = set()
            for p in anchors:
                lo, hi = max(0, p - _NEAR_WINDOW), min(len(q), p + _NEAR_WINDOW + 1)
                near.update(i for i in range(lo, hi) if i != p)
            suffixes = self._near[anchors] = list(dict.fromkeys(
                f"@{q[i]}" for i in sorted(near)))
        return suffixes

    def entity_ids(self, action) -> list[str]:
        suffixes: list[str] = []
        col_positions = val_positions = ()
        if action.column is not None:
            col_suffixes, col_positions = self._column(action.column)
            suffixes += col_suffixes
        if action.value is not None:
            val_suffixes, val_positions = self._value(action.value)
            suffixes += val_suffixes
        if val_positions and col_positions and min(
                abs(i - j) for i in val_positions for j in col_positions) <= _ATTACH_DISTANCE:
            suffixes.append(":val_near_col")
        anchors = val_positions if action.value is not None else col_positions
        if anchors:
            suffixes += self._near_suffixes(anchors)
        kind = action.kind
        return [kind + s for s in suffixes]

    def ids(self, action) -> list[str]:
        """Every feature id of the action, each once, in insertion order."""
        return self.kind_ids(action.kind) + self.entity_ids(action)

    def featurize(self, state: ProgramState) -> FeatureVector:
        """The program's features: its actions' ids summed, then recall."""
        feats: dict[str, float] = {}
        for a in state.actions:
            for fid in self.ids(a):
                feats[fid] = feats.get(fid, 0.0) + 1.0
        e1 = question_table_tokens(self.question_tokens, self.table)
        if e1:
            e2 = program_surface_tokens(state, self.table) - KEYWORD_WORDS
            uncovered = len(e1 - e2) / len(e1)
            if uncovered:
                feats[RECALL_FEATURE] = uncovered
        return feats


def action_features(action, question_tokens, table: Table) -> FeatureVector:
    """Per-action features; everything in featurize except recall."""
    return dict.fromkeys(ActionFeaturizer(question_tokens, table).ids(action), 1.0)


def featurize(state: ProgramState, question_tokens, table: Table) -> FeatureVector:
    return ActionFeaturizer(question_tokens, table).featurize(state)


def weight_sum(weights: dict[str, float], terms, start: float = 0.0) -> float:
    """start + the sum of weight * value over (feature id, value) terms,
    added one term at a time from the left. Every dot product in the
    package is summed here, so a sum continued from a partial sum equals
    the sum taken at once, bit for bit; `sum()` promises no order (CPython
    3.12 and later add floats with compensation)."""
    total = start
    for f, v in terms:
        total += weights.get(f, 0.0) * v
    return total


def left_sum(values) -> float:
    """The sum of floats, added one at a time from the left as `weight_sum`
    adds its terms. Every float sum in the package goes through here, so
    results do not depend on the CPython version."""
    total = 0.0
    for v in values:
        total += v
    return total


class ParamVector:
    """Sparse weight vector; the only mutable learning state."""

    def __init__(self, weights: dict[str, float] | None = None):
        self.weights: dict[str, float] = dict(weights) if weights else {}

    def get(self, fid: str) -> float:
        return self.weights.get(fid, 0.0)

    def dot(self, feats: FeatureVector) -> float:
        return weight_sum(self.weights, feats.items())

    def add_scaled(self, delta: FeatureVector, scale: float) -> None:
        """theta += scale * delta; refuses to store non-finite weights."""
        w = self.weights
        for f, v in delta.items():
            nv = w.get(f, 0.0) + scale * v
            if not math.isfinite(nv):
                raise ValueError(f"non-finite weight for feature {f!r}: {nv}")
            if nv == 0.0 and f not in w:
                continue
            w[f] = nv

    def copy(self) -> "ParamVector":
        return ParamVector(self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for fid in sorted(self.weights):
                f.write(f"{fid}\t{self.weights[fid]!r}\n")

    @classmethod
    def load(cls, path: str) -> "ParamVector":
        weights = {}
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(f"{path}: line {i + 1}: expected 'feature<TAB>weight'")
                try:
                    weights[parts[0]] = float(parts[1])
                except ValueError:
                    raise ValueError(f"{path}: line {i + 1}: bad weight {parts[1]!r}")
        return cls(weights)


def score(state: ProgramState, question_tokens, table: Table, theta: ParamVector) -> float:
    return theta.dot(featurize(state, question_tokens, table))


def softmax(values) -> list[float]:
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    z = left_sum(exps)
    return [e / z for e in exps]
