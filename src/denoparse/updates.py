"""The generalized parameter update.

Every supported learning rule has the form

    delta(K) = sum_y w(y) * (grad score(y) - sum_y' q(y') * grad score(y'))

over the candidate set K, where w is a non-negative per-program intensity
and q is a competing distribution. Each algorithm is one (w, q) pair in
`_ALGORITHMS`; `mix:<a>,<b>` pairs a's intensity with b's competing side:

    mml         marginal-likelihood weights over compatible programs, q = model
    merit:<b>   mml intensity with probabilities raised to b (inf = argmax)
    reinforce   one draw from the model policy, intensity = its reward
    offpg       one draw from an exploration policy, importance-corrected
    mmr         point mass on the reference program, q = most violating
    maver       point mass on the reference program, q = uniform over violations

All distributions are normalized over K. Reference program: the highest
scoring compatible candidate. A program violates the margin when
score - reward >= that of the reference.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from .scorer import FeatureVector, left_sum, softmax
# unused here; bench/tracing.py patches updates.featurize, so the name stays
from .scorer import featurize  # noqa: F401
from .search import CandidateSet

# algorithm name -> (intensity side, competing side); merit, and only merit,
# is written with its beta, merit:<beta>
_ALGORITHMS = {
    "mml": ("mml", "model"),
    "merit": ("merit", "model"),
    "reinforce": ("reinforce", "model"),
    "offpg": ("offpg", "model"),
    "mmr": ("reference", "most_violating"),
    "maver": ("reference", "violation_uniform"),
}


class UpdateSpecError(ValueError):
    pass


class NonFiniteUpdateError(ValueError):
    pass


@dataclass(frozen=True)
class UpdateSpec:
    name: str
    intensity_kind: str
    competing_kind: str
    beta: float | None = None


def _algorithm(token: str) -> tuple[str, str, float | None]:
    """(intensity side, competing side, beta) of one algorithm name."""
    name, colon, raw = token.partition(":")
    if name not in _ALGORITHMS or (name == "merit") != bool(colon):
        raise UpdateSpecError(f"unknown algorithm {token!r}, expected one of " + ", ".join(
            n + ":<beta>" * (n == "merit") for n in _ALGORITHMS))
    beta = None
    if colon:
        try:
            beta = float(raw)
        except ValueError:
            beta = math.nan  # refused below, with the token named
        if not beta >= 0:
            raise UpdateSpecError(f"beta in {token!r} must be a number >= 0 or inf")
    return (*_ALGORITHMS[name], beta)


def parse_update_spec(spec: str) -> UpdateSpec:
    """Parse one algorithm name (`mml`, `merit:<beta|inf>`, `reinforce`,
    `offpg`, `mmr`, `maver`) or `mix:<a>,<b>`, which takes its intensity
    side and beta from a and its competing side from b."""
    s = spec.strip().lower()
    if not s.startswith("mix:"):
        return UpdateSpec(s, *_algorithm(s))
    a, comma, b = s[4:].rpartition(",")
    if not comma:
        raise UpdateSpecError(f"mix needs two algorithms, mix:<a>,<b>: {spec!r}")
    intensity_kind, _, beta = _algorithm(a)
    return UpdateSpec(s, intensity_kind, _algorithm(b)[1], beta)


CANONICAL_SPECS = ("mml", "merit:0.5", "reinforce", "offpg", "mmr", "maver")


@dataclass
class UpdateContext:
    """Everything one update needs: the candidate set, whose featurizer
    gives each candidate's features, the trainer's rng, effective scores
    (model score, plus the critique term under model shaping), rewards,
    and the exploration distribution u."""
    K: CandidateSet
    rng: random.Random
    scores: list[float]
    rewards: list[float]
    u: list[float] | None = None
    _features: list[FeatureVector | None] = field(default_factory=list)

    def __post_init__(self):
        if not self._features:
            self._features = [None] * len(self.K)

    def feature(self, i: int) -> FeatureVector:
        if self._features[i] is None:
            self._features[i] = self.K.featurizer.featurize(self.K.entries[i].program)
        return self._features[i]

    @cached_property
    def model_distribution(self) -> list[float]:
        return softmax(self.scores)

    @cached_property
    def compatible_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.K.entries) if c.compatible]


def make_context(K: CandidateSet, rng: random.Random,
                 model_shaping_eta: float | None = None,
                 shaping_eta: float | None = None) -> UpdateContext:
    scores = [c.score for c in K.entries]
    if model_shaping_eta is not None:
        scores = [s + model_shaping_eta * c.critique for s, c in zip(scores, K.entries)]
    rewards = [c.reward for c in K.entries]
    u = exploration_distribution(K, shaping_eta=shaping_eta)
    return UpdateContext(K, rng, scores, rewards, u)


def exploration_distribution(K: CandidateSet,
                             shaping_eta: float | None = None) -> list[float]:
    """Reward-biased sampling distribution over K: a Boltzmann over
    5 * reward + score (+ eta * critique when the search shaped)."""
    if not K:
        return []
    vals = []
    for c in K.entries:
        v = 5.0 * c.reward + c.score
        if shaping_eta is not None:
            v += shaping_eta * c.critique
        vals.append(v)
    return softmax(vals)


def reference_index(ctx: UpdateContext) -> int | None:
    """Highest-scoring compatible candidate; serialization breaks ties."""
    return min(ctx.compatible_indices, default=None,
               key=lambda i: (-ctx.scores[i], ctx.K.entries[i].serialization))


def violation_indices(ctx: UpdateContext, ref: int) -> list[int]:
    """Programs whose score - reward matches or beats the reference's."""
    bar = ctx.scores[ref] - ctx.rewards[ref]
    return [i for i in range(len(ctx.K)) if i != ref
            and ctx.scores[i] - ctx.rewards[i] >= bar]


def most_violating_index(ctx: UpdateContext, ref: int) -> int | None:
    """Argmax of score - reward among the violations, serialization ties."""
    return min(violation_indices(ctx, ref), default=None,
               key=lambda i: (-(ctx.scores[i] - ctx.rewards[i]),
                              ctx.K.entries[i].serialization))


def sample_from(probs: list[float], serializations: list[str],
                rng: random.Random) -> int:
    """Inverse-CDF draw over the serialization-sorted support."""
    total = left_sum(probs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {total}, not 1")
    order = sorted(range(len(probs)), key=lambda i: serializations[i])
    x = rng.random()
    acc = 0.0
    last = order[-1]
    for i in order:
        if probs[i] <= 0.0:
            continue
        acc += probs[i]
        last = i
        if x < acc:
            return i
    return last


@dataclass
class UpdateResult:
    delta: FeatureVector
    skipped: bool = False          # no compatible program: signal to count
    zero: bool = False             # margin methods with nothing violating
    sampled_index: int | None = None
    reference: int | None = None
    violations: list[int] | None = None


def intensity(spec: UpdateSpec, ctx: UpdateContext) -> tuple[list[float] | None, UpdateResult]:
    """Per-program intensity weights, or None with a skip marker."""
    res = UpdateResult(delta={})
    kind = spec.intensity_kind
    w = [0.0] * len(ctx.K)
    if kind == "reinforce" or kind == "offpg":
        # r_i * p_i / u_i is not always r_i in floats when u = p, so each
        # keeps its own weight
        u = ctx.model_distribution if kind == "reinforce" else ctx.u
        if u is None:
            raise ValueError("off-policy update needs the exploration distribution u")
        i = res.sampled_index = sample_from(u, [c.serialization for c in ctx.K.entries],
                                            ctx.rng)
        w[i] = (ctx.rewards[i] if kind == "reinforce"
                else ctx.rewards[i] * ctx.model_distribution[i] / u[i])
        return w, res
    comp = ctx.compatible_indices
    if not comp:
        res.skipped = True
        return None, res
    if kind == "reference":
        res.reference = reference_index(ctx)
        w[res.reference] = 1.0
        return w, res
    if kind != "mml" and kind != "merit":
        raise UpdateSpecError(f"unknown intensity kind {kind!r}")
    beta = 1.0 if kind == "mml" else spec.beta
    p = ctx.model_distribution
    sub = [p[i] for i in comp]
    if beta == math.inf:
        m = max(sub)
        chosen = [i for i, v in zip(comp, sub) if v == m]
        for i in chosen:
            w[i] = 1.0 / len(chosen)
        return w, res
    powered = [v ** beta for v in sub]
    z = left_sum(powered)
    if z == 0.0:
        raise NonFiniteUpdateError(
            f"{spec.name} weights are undefined: the model probability of "
            "every compatible program underflows to 0")
    for i, v in zip(comp, powered):
        w[i] = v / z
    return w, res


def competing(spec: UpdateSpec, ctx: UpdateContext,
              res: UpdateResult | None = None) -> list[float] | None:
    """The distribution the update pushes down, or None for a zero update."""
    res = res if res is not None else UpdateResult(delta={})
    kind = spec.competing_kind
    if kind == "model":
        return ctx.model_distribution
    if res.reference is None:
        res.reference = reference_index(ctx)
    ref = res.reference
    if ref is None:
        res.skipped = True
        return None
    violations = res.violations = violation_indices(ctx, ref)
    if not violations:
        res.zero = True
        return None
    q = [0.0] * len(ctx.K)
    if kind == "most_violating":
        q[most_violating_index(ctx, ref)] = 1.0
    elif kind == "violation_uniform":
        for i in violations:
            q[i] = 1.0 / len(violations)
    else:
        raise UpdateSpecError(f"unknown competing kind {kind!r}")
    return q


def generalized_update(spec: UpdateSpec, ctx: UpdateContext) -> UpdateResult:
    """delta = sum_y w(y) (phi(y) - sum_y' q(y') phi(y')); zero on skips."""
    if not ctx.K:
        return UpdateResult(delta={}, skipped=True)
    w, res = intensity(spec, ctx)
    if w is None:
        return res
    q = competing(spec, ctx, res)
    if q is None:
        return res
    w_total = left_sum(w)
    delta: dict[str, float] = {}
    for i, wi in enumerate(w):
        if wi == 0.0:
            continue
        for f, v in ctx.feature(i).items():
            delta[f] = delta.get(f, 0.0) + wi * v
    if w_total != 0.0:
        for i, qi in enumerate(q):
            if qi == 0.0:
                continue
            coef = w_total * qi
            for f, v in ctx.feature(i).items():
                delta[f] = delta.get(f, 0.0) - coef * v
    for f, v in delta.items():
        if not math.isfinite(v):
            raise NonFiniteUpdateError(f"non-finite update component for feature {f!r}")
    res.delta = {f: v for f, v in delta.items() if v != 0.0}
    return res
