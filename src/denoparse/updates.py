"""The generalized parameter update.

Every supported learning rule has the form

    delta(K) = sum_y w(y) * (grad score(y) - sum_y' q(y') * grad score(y'))

over the candidate set K, where w is a non-negative per-program intensity
and q is a competing distribution. The canonical algorithms are fixed
(w, q) pairs; mixes pair any intensity with any competing side:

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

from .scorer import FeatureVector, left_sum, softmax
# unused here; bench/tracing.py patches updates.featurize, so the name stays
from .scorer import featurize  # noqa: F401
from .search import CandidateSet

# algorithm name -> (intensity side, competing side)
_ALGORITHMS = {
    "mml": ("mml", "model"),
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


def _intensity_of(token: str) -> tuple[str, float | None]:
    if token in _ALGORITHMS:
        return _ALGORITHMS[token][0], None
    if token.startswith("merit:"):
        raw = token.split(":", 1)[1]
        beta = math.inf if raw == "inf" else float(raw)
        if beta < 0:
            raise UpdateSpecError(f"beta must be >= 0, got {raw}")
        return "merit", beta
    raise UpdateSpecError(f"unknown intensity {token!r}")


def parse_update_spec(spec: str) -> UpdateSpec:
    """Parse `mml`, `merit:<beta|inf>`, `reinforce`, `offpg`, `mmr`, `maver`,
    or `mix:<intensity>,<competing>` with both sides named by algorithm."""
    s = spec.strip().lower()
    try:
        if s in _ALGORITHMS:
            i, c = _ALGORITHMS[s]
            return UpdateSpec(s, i, c)
        if s.startswith("merit:"):
            kind, beta = _intensity_of(s)
            return UpdateSpec(s, kind, "model", beta)
        if s.startswith("mix:"):
            body = s[4:]
            parts = body.rsplit(",", 1)
            if len(parts) != 2:
                raise UpdateSpecError(f"mix needs two components: {spec!r}")
            ikind, beta = _intensity_of(parts[0])
            comp = parts[1]
            if comp.startswith("merit:"):
                comp = "merit"
            if comp in _ALGORITHMS:
                ckind = _ALGORITHMS[comp][1]
            elif comp == "merit":
                ckind = "model"
            else:
                raise UpdateSpecError(f"unknown competing side {parts[1]!r}")
            return UpdateSpec(s, ikind, ckind, beta)
    except ValueError as e:
        if isinstance(e, UpdateSpecError):
            raise
        raise UpdateSpecError(f"bad update spec {spec!r}: {e}")
    raise UpdateSpecError(f"unknown update spec {spec!r}")


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

    @property
    def model_distribution(self) -> list[float]:
        return softmax(self.scores)

    @property
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
    best = None
    for i in ctx.compatible_indices:
        if best is None or ctx.scores[i] > ctx.scores[best] or (
                ctx.scores[i] == ctx.scores[best]
                and ctx.K.entries[i].serialization < ctx.K.entries[best].serialization):
            best = i
    return best


def violation_indices(ctx: UpdateContext, ref: int) -> list[int]:
    """Programs whose score - reward matches or beats the reference's."""
    bar = ctx.scores[ref] - ctx.rewards[ref]
    return [i for i in range(len(ctx.K)) if i != ref
            and ctx.scores[i] - ctx.rewards[i] >= bar]


def most_violating_index(ctx: UpdateContext, ref: int) -> int | None:
    """Argmax of score - reward among the violations, serialization ties."""
    violations = set(violation_indices(ctx, ref))
    if not violations:
        return None
    return min(violations,
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
    reason: str | None = None
    sampled_index: int | None = None
    reference: int | None = None
    violations: list[int] | None = None


def intensity(spec: UpdateSpec, ctx: UpdateContext) -> tuple[list[float] | None, UpdateResult]:
    """Per-program intensity weights, or None with a skip marker."""
    n = len(ctx.K)
    res = UpdateResult(delta={})
    kind = spec.intensity_kind
    if kind in ("mml", "merit", "reference"):
        comp = ctx.compatible_indices
        if not comp:
            res.skipped, res.reason = True, "no compatible program"
            return None, res
    if kind == "mml" or kind == "merit":
        p = ctx.model_distribution
        beta = 1.0 if kind == "mml" else spec.beta
        sub = [p[i] for i in comp]
        if beta == math.inf:
            m = max(sub)
            chosen = [i for i, v in zip(comp, sub) if v == m]
            w = [0.0] * n
            for i in chosen:
                w[i] = 1.0 / len(chosen)
            return w, res
        powered = [v ** beta for v in sub]
        z = left_sum(powered)
        if z == 0.0:
            raise NonFiniteUpdateError(
                f"{spec.name} weights are undefined: the model probability of "
                "every compatible program underflows to 0")
        w = [0.0] * n
        for i, v in zip(comp, powered):
            w[i] = v / z
        return w, res
    if kind == "reference":
        ref = reference_index(ctx)
        res.reference = ref
        w = [0.0] * n
        w[ref] = 1.0
        return w, res
    sers = [c.serialization for c in ctx.K.entries]
    if kind == "reinforce":
        p = ctx.model_distribution
        i = sample_from(p, sers, ctx.rng)
        res.sampled_index = i
        w = [0.0] * n
        w[i] = ctx.rewards[i]
        return w, res
    if kind == "offpg":
        if ctx.u is None:
            raise ValueError("off-policy update needs the exploration distribution u")
        p = ctx.model_distribution
        i = sample_from(ctx.u, sers, ctx.rng)
        res.sampled_index = i
        w = [0.0] * n
        w[i] = ctx.rewards[i] * p[i] / ctx.u[i]
        return w, res
    raise UpdateSpecError(f"unknown intensity kind {kind!r}")


def competing(spec: UpdateSpec, ctx: UpdateContext,
              res: UpdateResult | None = None) -> list[float] | None:
    """The distribution the update pushes down, or None for a zero update."""
    res = res if res is not None else UpdateResult(delta={})
    kind = spec.competing_kind
    if kind == "model":
        return ctx.model_distribution
    ref = res.reference if res.reference is not None else reference_index(ctx)
    if ref is None:
        res.skipped, res.reason = True, "no compatible program"
        return None
    res.reference = ref
    violations = violation_indices(ctx, ref)
    res.violations = violations
    if not violations:
        res.zero, res.reason = True, "no margin violation"
        return None
    n = len(ctx.K)
    q = [0.0] * n
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
        return UpdateResult(delta={}, skipped=True, reason="empty candidate set")
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
