import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from denoparse import programs as P
from denoparse.scorer import ActionFeaturizer, ParamVector, featurize, softmax
from denoparse.tables import AnswerSet
from denoparse.updates import (CANONICAL_SPECS, NonFiniteUpdateError, UpdateContext,
                               UpdateSpecError, competing, exploration_distribution, generalized_update,
                               intensity, make_context, most_violating_index,
                               parse_update_spec, reference_index,
                               sample_from, violation_indices)

from conftest import make_table
from helpers import (Objectives, candidate_set, finite_difference,
                     margin_structure_stable, random_micro_instance, rel_err)


def ctx_from_scores(scores, rewards, compatible_flags, rng=None):
    """Synthetic context over dummy programs with prescribed scores."""
    table = make_table("dummy", ("A",), [("x",)] * max(2, len(scores)))
    entries = []
    from denoparse.search import Candidate
    for i, (s, r, ok) in enumerate(zip(scores, rewards, compatible_flags)):
        prog = P.ProgramState((P.Action(P.SELECT, 0), P.Action(P.EQ, 0, f"v{i}"),
                               P.Action(P.STOP)), True)
        entries.append(Candidate(prog, f"p{i:02d}", s, r, 0.0, ok,
                                 AnswerSet.from_texts([str(i)])))
    from denoparse.search import CandidateSet
    K = CandidateSet(entries, ActionFeaturizer(("q",), table))
    return UpdateContext(K, rng or random.Random(0), list(scores), list(rewards))


def test_parse_update_spec_canonical_pairs():
    assert parse_update_spec("mml").intensity_kind == "mml"
    assert parse_update_spec("mml").competing_kind == "model"
    assert parse_update_spec("mmr").competing_kind == "most_violating"
    assert parse_update_spec("maver").competing_kind == "violation_uniform"
    assert parse_update_spec("maver").intensity_kind == "reference"
    merit = parse_update_spec("merit:0.5")
    assert merit.intensity_kind == "merit" and merit.beta == 0.5
    assert parse_update_spec("merit:inf").beta == math.inf
    mix = parse_update_spec("mix:mmr,mml")
    assert (mix.intensity_kind, mix.competing_kind) == ("reference", "model")
    mix2 = parse_update_spec("mix:offpg,mmr")
    assert (mix2.intensity_kind, mix2.competing_kind) == ("offpg", "most_violating")
    mix3 = parse_update_spec("mix:merit:2,maver")
    assert (mix3.intensity_kind, mix3.competing_kind, mix3.beta) == \
        ("merit", "violation_uniform", 2.0)


def test_parse_update_spec_rejects_junk():
    for bad in ("bogus", "merit:", "merit:-1", "mix:mmr", "mix:bogus,mml",
                "mix:mml,bogus"):
        with pytest.raises(UpdateSpecError):
            parse_update_spec(bad)


def test_reference_prefers_score_then_serialization():
    ctx = ctx_from_scores([2.0, 5.0, 9.0], [1.0, 1.0, 0.0], [True, True, False])
    assert reference_index(ctx) == 1
    tie = ctx_from_scores([3.0, 3.0], [1.0, 1.0], [True, True])
    assert reference_index(tie) == 0  # "p00" < "p01"
    none = ctx_from_scores([3.0], [0.0], [False])
    assert reference_index(none) is None


def test_violation_set_inequality():
    # y' violates iff score(y') - R(y') >= score(y*) - R(y*)
    ctx = ctx_from_scores([1.0, 1.5, 0.1], [1.0, 0.0, 0.0], [True, False, False])
    assert violation_indices(ctx, 0) == [1, 2]  # both beat the bar of 0.0
    ctx2 = ctx_from_scores([1.0, 1.5, -0.1], [1.0, 0.0, 0.0],
                           [True, False, False])
    assert violation_indices(ctx2, 0) == [1]  # -0.1 - 0 < 0 is excluded
    ctx3 = ctx_from_scores([1.0, -0.5], [1.0, 0.0], [True, False])
    assert violation_indices(ctx3, 0) == []


def test_most_violating_argmax_and_ties():
    ctx = ctx_from_scores([1.0, 1.5, 2.2], [1.0, 0.0, 0.0], [True, False, False])
    assert most_violating_index(ctx, 0) == 2
    tie = ctx_from_scores([1.0, 1.5, 1.5], [1.0, 0.0, 0.0], [True, False, False])
    assert most_violating_index(tie, 0) == 1  # smaller serialization
    quiet = ctx_from_scores([1.0, -9.0], [1.0, 0.0], [True, False])
    assert most_violating_index(quiet, 0) is None


def test_mml_intensity_renormalizes_over_compatible():
    scores = [math.log(0.2), math.log(0.6), math.log(0.2)]
    ctx = ctx_from_scores(scores, [1.0, 1.0, 0.0], [True, True, False])
    w, _ = intensity(parse_update_spec("mml"), ctx)
    assert w[0] == pytest.approx(0.25)
    assert w[1] == pytest.approx(0.75)
    assert w[2] == 0.0


def test_meritocratic_beta_limits():
    scores = [math.log(0.2), math.log(0.6), math.log(0.2)]
    ctx = ctx_from_scores(scores, [1.0, 1.0, 0.0], [True, True, False])
    w0, _ = intensity(parse_update_spec("merit:0"), ctx)
    assert w0[:2] == [0.5, 0.5] and w0[2] == 0.0
    w1, _ = intensity(parse_update_spec("merit:1"), ctx)
    wm, _ = intensity(parse_update_spec("mml"), ctx)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(w1, wm))
    winf, _ = intensity(parse_update_spec("merit:inf"), ctx)
    assert winf == [0.0, 1.0, 0.0]


def test_intensity_raises_when_compatible_mass_underflows():
    # softmax([0, 2000]) gives the compatible program exp(-2000) = 0
    ctx = ctx_from_scores([0.0, 2000.0], [1.0, 0.0], [True, False])
    for spec in ("mml", "merit:0.5"):
        with pytest.raises(NonFiniteUpdateError, match=f"^{spec} weights are undefined"):
            intensity(parse_update_spec(spec), ctx)


def test_intensity_skips_without_compatible():
    ctx = ctx_from_scores([1.0, 2.0], [0.2, 0.0], [False, False])
    for spec in ("mml", "merit:0.5", "mmr", "maver"):
        w, res = intensity(parse_update_spec(spec), ctx)
        assert w is None and res.skipped
        out = generalized_update(parse_update_spec(spec), ctx)
        assert out.delta == {} and out.skipped


def test_competing_distributions():
    ctx = ctx_from_scores([1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0],
                          [True, False, False, False])
    q_model = competing(parse_update_spec("mml"), ctx)
    assert q_model == pytest.approx([0.25] * 4)
    q_uniform = competing(parse_update_spec("maver"), ctx)
    assert q_uniform == pytest.approx([0.0, 1 / 3, 1 / 3, 1 / 3])
    q_point = competing(parse_update_spec("mmr"), ctx)
    assert sum(1 for v in q_point if v > 0) == 1 and sum(q_point) == 1.0


def test_margin_methods_zero_update_without_violations():
    ctx = ctx_from_scores([5.0, 0.0], [1.0, 0.0], [True, False])
    for name in ("mmr", "maver"):
        res = generalized_update(parse_update_spec(name), ctx)
        assert res.delta == {} and res.zero and not res.skipped


def micro(seed, **kw):
    rng = random.Random(seed)
    qtokens, table, K, theta = random_micro_instance(rng, **kw)
    return qtokens, table, K, theta, rng


def test_mmr_delta_is_reference_minus_most_violating():
    qtokens, table, K, theta, rng = micro(21)
    ctx = make_context(K, rng)
    res = generalized_update(parse_update_spec("mmr"), ctx)
    if res.zero or res.skipped:
        return
    ref, bar = res.reference, most_violating_index(ctx, res.reference)
    want_pos = featurize(K.entries[ref].program, qtokens, table)
    want_neg = featurize(K.entries[bar].program, qtokens, table)
    want = dict(want_pos)
    for f, v in want_neg.items():
        want[f] = want.get(f, 0.0) - v
    want = {f: v for f, v in want.items() if v != 0.0}
    assert set(res.delta) == set(want)
    for f in want:
        assert res.delta[f] == pytest.approx(want[f], abs=1e-12)


@pytest.mark.parametrize("algo,objective", [
    ("mml", "j_mml"), ("mmr", "j_mmr"), ("maver", "j_maver")])
def test_deltas_match_finite_differences(algo, objective):
    checked = 0
    seed = 0
    while checked < 12:
        seed += 1
        qtokens, table, K, theta, rng = micro(seed)
        obj = Objectives(K, qtokens, table)
        if algo != "mml" and not margin_structure_stable(obj, theta):
            continue
        ctx = make_context(K, rng)
        res = generalized_update(parse_update_spec(algo), ctx)
        fn = getattr(obj, objective)
        grads = finite_difference(fn, theta, obj.feature_ids())
        for fid, g in grads.items():
            assert rel_err(res.delta.get(fid, 0.0), g) < 1e-6, (algo, seed, fid)
        checked += 1


def test_reinforce_matches_log_policy_gradient_expansion():
    qtokens, table, K, theta, rng = micro(33)
    ctx = make_context(K, rng)
    res = generalized_update(parse_update_spec("reinforce"), ctx)
    i = res.sampled_index
    p = softmax(ctx.scores)
    feats = [featurize(c.program, qtokens, table) for c in K.entries]
    pbar = {}
    for pi, fv in zip(p, feats):
        for f, v in fv.items():
            pbar[f] = pbar.get(f, 0.0) + pi * v
    R = K.entries[i].reward
    for f in set(feats[i]) | set(pbar):
        want = R * (feats[i].get(f, 0.0) - pbar.get(f, 0.0))
        assert res.delta.get(f, 0.0) == pytest.approx(want, abs=1e-12)


def test_reinforce_expectation_equals_expected_reward_gradient():
    qtokens, table, K, theta, rng = micro(34)
    obj = Objectives(K, qtokens, table)
    p = softmax(obj.scores(theta))
    pbar = {}
    for pi, fv in zip(p, obj.features):
        for f, v in fv.items():
            pbar[f] = pbar.get(f, 0.0) + pi * v
    expectation = {}
    for pi, fv, r in zip(p, obj.features, obj.rewards):
        for f in set(fv) | set(pbar):
            expectation[f] = expectation.get(f, 0.0) + \
                pi * r * (fv.get(f, 0.0) - pbar.get(f, 0.0))
    grads = finite_difference(obj.j_expected_reward, theta, obj.feature_ids(),
                              eps=3e-6)
    for f, g in grads.items():
        assert rel_err(expectation.get(f, 0.0), g) < 1e-6


def test_offpolicy_with_u_equal_p_is_reinforce():
    qtokens, table, K, theta, _ = micro(35)
    p_list = softmax([c.score for c in K.entries])
    ctx1 = make_context(K, random.Random(99))
    res1 = generalized_update(parse_update_spec("reinforce"), ctx1)
    ctx2 = make_context(K, random.Random(99))
    ctx2.u = p_list
    res2 = generalized_update(parse_update_spec("offpg"), ctx2)
    assert res1.sampled_index == res2.sampled_index
    assert res1.delta == res2.delta  # importance weight is exactly 1


def test_exploration_distribution_biases_toward_reward():
    qtokens, table, K, theta, _ = micro(36)
    u = exploration_distribution(K)
    assert sum(u) == pytest.approx(1.0, abs=1e-12)
    best_reward = max(range(len(K)), key=lambda i: (K.entries[i].reward,
                                                    -K.entries[i].score))
    flat = softmax([c.score for c in K.entries])
    assert u[best_reward] >= flat[best_reward] - 1e-9


def test_sample_from_point_mass_and_determinism():
    probs = [0.0, 1.0, 0.0]
    sers = ["a", "b", "c"]
    assert sample_from(probs, sers, random.Random(0)) == 1
    seq1 = [sample_from([0.25, 0.75], ["a", "b"], random.Random(5)) for _ in range(10)]
    seq2 = [sample_from([0.25, 0.75], ["a", "b"], random.Random(5)) for _ in range(10)]
    assert seq1 == seq2


def test_sample_from_validates_normalization():
    with pytest.raises(ValueError, match="sums"):
        sample_from([0.5, 0.2], ["a", "b"], random.Random(0))


def test_sample_from_law_of_large_numbers():
    rng = random.Random(123)
    counts = Counter(sample_from([0.25, 0.75], ["a", "b"], rng)
                     for _ in range(100_000))
    assert abs(counts[0] / 100_000 - 0.25) < 0.01
    assert abs(counts[1] / 100_000 - 0.75) < 0.01


def test_shift_invariance_of_matched_updates():
    # adding a constant feature to every program leaves the delta unchanged
    # whenever the intensity sums to 1 and q sums to 1
    qtokens, table, K, theta, rng = micro(44)
    for name in ("mml", "merit:0.5", "maver", "mmr"):
        spec = parse_update_spec(name)
        ctx = make_context(K, random.Random(7))
        base = generalized_update(spec, ctx)
        shifted_features = [dict(featurize(c.program, qtokens, table),
                                 __bias__=1.0) for c in K.entries]
        ctx2 = replace(make_context(K, random.Random(7)),
                       _features=shifted_features)
        shifted = generalized_update(spec, ctx2)
        for f in set(base.delta) | set(shifted.delta) - {"__bias__"}:
            assert shifted.delta.get(f, 0.0) == pytest.approx(
                base.delta.get(f, 0.0), abs=1e-12)
        assert abs(shifted.delta.get("__bias__", 0.0)) < 1e-12


def test_intensities_nonnegative_and_competing_normalized():
    for seed in range(50, 56):
        qtokens, table, K, theta, rng = micro(seed)
        for name in ("mml", "merit:2", "reinforce", "offpg", "mmr", "maver"):
            spec = parse_update_spec(name)
            ctx = make_context(K, random.Random(seed))
            w, res = intensity(spec, ctx)
            if w is None:
                continue
            assert all(v >= 0.0 for v in w)
            q = competing(spec, ctx, res)
            if q is not None:
                assert sum(q) == pytest.approx(1.0, abs=1e-9)


def test_non_finite_update_raises():
    qtokens, table, K, theta, rng = micro(61)
    ctx = replace(make_context(K, rng),
                  _features=[{f: math.inf for f in feats} if i == 0 else feats
                             for i, feats in enumerate(
                                 featurize(c.program, qtokens, table) for c in K.entries)])
    with pytest.raises((NonFiniteUpdateError, ValueError)):
        generalized_update(parse_update_spec("mml"), ctx)


_ZOO_TABLE = make_table("zoo", ("Club", "Losses"), [
    ("Harlequins", "25"), ("Saracens", "21"), ("Wasps", "10")])
_ZOO_GOLD = AnswerSet.from_texts(["Harlequins"], coords={(0, 0)})
_ZOO_QUESTION = ("which", "club", "had", "more", "than", "21", "losses")
_ZOO_PROGRAMS = P.enumerate_programs(_ZOO_TABLE, 0, 1, ("21",))[:12]


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=-3.0, max_value=6.0),
       st.lists(st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                          st.floats(min_value=0.0, max_value=1.0), st.booleans()),
                min_size=1, max_size=len(_ZOO_PROGRAMS)),
       st.integers(0, 2**32 - 1))
def test_updates_are_finite_or_named_errors_at_extreme_scales(log_scale, draws, seed):
    # scores from 1e-3 to 1e6 in size: every update either returns finite
    # deltas or raises NonFiniteUpdateError, never a NaN or another error
    base = candidate_set(_ZOO_PROGRAMS[:len(draws)], _ZOO_QUESTION, _ZOO_TABLE,
                         ParamVector(), _ZOO_GOLD)
    scale = 10.0 ** log_scale
    entries = [replace(c, score=x * scale, reward=r, compatible=ok)
               for c, (x, r, ok) in zip(base.entries, draws)]
    K = replace(base, entries=entries)
    for spec in CANONICAL_SPECS + ("merit:inf", "mix:mmr,mml", "mix:offpg,maver"):
        try:
            res = generalized_update(parse_update_spec(spec),
                                     make_context(K, random.Random(seed)))
        except NonFiniteUpdateError:
            continue
        assert all(math.isfinite(v) for v in res.delta.values()), (spec, res.delta)
