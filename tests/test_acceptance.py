"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s`). Criterion 6 trains
dozens of models and takes 140-185 s on a 2-core machine with Python 3.11,
against its 600 s gate; everything else is fast.
"""
import json
import math
import random
import time

from denoparse import programs as P
from denoparse.critique import critique_policy, default_lexicon, shape
from denoparse.scorer import ParamVector, softmax
from denoparse.search import SearchConfig, beam_search
from denoparse.tables import AnswerSet
from denoparse.updates import generalized_update, make_context, parse_update_spec

from conftest import example_for, make_table
from helpers import (Objectives, finite_difference, margin_structure_stable,
                     random_micro_instance, rel_err)


def report(n, name, detail=""):
    print(f"\n[acceptance] criterion {n} ({name}): PASS {detail}")


def test_criterion_1_generalized_update_reductions():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 2000, "could not build enough stable micro instances"
        qtokens, table, K, theta = random_micro_instance(rng)
        obj = Objectives(K, qtokens, table)
        if not margin_structure_stable(obj, theta):
            # finite differences need the piecewise margin objectives to be
            # smooth around theta; ties and boundary cases are resampled
            continue
        fids = obj.feature_ids()
        for algo, objective in (("mml", obj.j_mml), ("mmr", obj.j_mmr),
                                ("maver", obj.j_maver)):
            ctx = make_context(K, random.Random(0))
            res = generalized_update(parse_update_spec(algo), ctx)
            grads = finite_difference(objective, theta, fids)
            for fid, g in grads.items():
                assert rel_err(res.delta.get(fid, 0.0), g) < 1e-6, (algo, fid)
        ctx = make_context(K, random.Random(0))
        d_mml = generalized_update(parse_update_spec("mml"), ctx).delta
        ctx = make_context(K, random.Random(0))
        d_merit = generalized_update(parse_update_spec("merit:1"), ctx).delta
        assert set(d_mml) == set(d_merit)
        for f in d_mml:
            assert abs(d_mml[f] - d_merit[f]) <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"reduction suite took {elapsed:.1f}s"
    report(1, "generalized-update reductions",
           f"({checked} instances, {elapsed:.1f}s)")


def test_criterion_2_policy_gradient_identities():
    rng = random.Random(77)
    for _ in range(30):
        qtokens, table, K, theta = random_micro_instance(rng)
        obj = Objectives(K, qtokens, table)
        p = softmax(obj.scores(theta))
        feats, rewards = obj.features, obj.rewards
        fids = obj.feature_ids()

        # sampled delta equals R(y_hat) * grad log p(y_hat)
        ctx = make_context(K, random.Random(5))
        res = generalized_update(parse_update_spec("reinforce"), ctx)
        i = res.sampled_index
        pbar = {f: sum(pk * fv.get(f, 0.0) for pk, fv in zip(p, feats))
                for f in fids}
        for f in fids:
            want = rewards[i] * (feats[i].get(f, 0.0) - pbar[f])
            assert abs(res.delta.get(f, 0.0) - want) <= 1e-12

        # its exact expectation over K equals the gradient of sum_y p(y)R(y),
        # computed independently through the softmax Jacobian
        expectation = {f: 0.0 for f in fids}
        for yi in range(len(K)):
            for f in fids:
                expectation[f] += p[yi] * rewards[yi] * (
                    feats[yi].get(f, 0.0) - pbar[f])
        for j in fids:
            grad_j = 0.0
            for yi in range(len(K)):
                dp = sum(p[yi] * ((1.0 if yi == k else 0.0) - p[k])
                         * feats[k].get(j, 0.0) for k in range(len(K)))
                grad_j += rewards[yi] * dp
            assert abs(expectation[j] - grad_j) <= 1e-9 * max(1.0, abs(grad_j))

        # off-policy with u = p reproduces the same draw and the same delta
        ctx_r = make_context(K, random.Random(5))
        res_r = generalized_update(parse_update_spec("reinforce"), ctx_r)
        ctx_o = make_context(K, random.Random(5))
        ctx_o.u = list(p)
        res_o = generalized_update(parse_update_spec("offpg"), ctx_o)
        assert res_o.sampled_index == res_r.sampled_index
        assert res_o.delta == res_r.delta

    # corroborate the expectation identity by finite differences as well
    qtokens, table, K, theta = random_micro_instance(random.Random(3))
    obj = Objectives(K, qtokens, table)
    p = softmax(obj.scores(theta))
    pbar = {f: sum(pk * fv.get(f, 0.0) for pk, fv in zip(p, obj.features))
            for f in obj.feature_ids()}
    grads = finite_difference(obj.j_expected_reward, theta, obj.feature_ids(),
                              eps=3e-6)
    for f, g in grads.items():
        expect = sum(pi * r * (fv.get(f, 0.0) - pbar[f])
                     for pi, r, fv in zip(p, obj.rewards, obj.features))
        assert rel_err(expect, g) < 2e-6
    report(2, "policy-gradient identities", "(30 instances)")


def test_criterion_3_shaping_properties():
    rng = random.Random(9)
    # two-sided identity and normalization
    for _ in range(200):
        n = rng.randint(1, 8)
        raw = [rng.random() + 1e-9 for _ in range(n)]
        b = [x / sum(raw) for x in raw]
        shaped = shape(b, [1.0 / n] * n)
        assert all(abs(x - y) < 1e-12 for x, y in zip(shaped, b))
        raw2 = [rng.random() + 1e-9 for _ in range(n)]
        c = [x / sum(raw2) for x in raw2]
        assert abs(sum(shape(b, c)) - 1.0) < 1e-12

    # eta-monotonicity on a fixed two-program support
    table = make_table("m", ("A", "B"), [("x", "1"), ("y", "2")])
    hi = P.ProgramState((P.Action(P.SELECT, 0), P.Action(P.EQ, 0, "x"),
                         P.Action(P.STOP)), True)
    lo = P.ProgramState((P.Action(P.SELECT, 1), P.Action(P.EQ, 1, "2"),
                         P.Action(P.STOP)), True)
    q = ("a", "x")
    lex = default_lexicon()
    last = -1.0
    for eta in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        prob = critique_policy([hi, lo], q, table, lex, eta)[0]
        assert prob > last
        last = prob

    # with the whole space in the beam, shaping only reorders candidates
    from denoparse.tables import Example
    for seed in range(6):
        seeded = random.Random(seed)
        qtokens, table, K, theta = random_micro_instance(seeded)
        gold = next(c for c in K.entries if c.compatible).answer
        ex = Example("s0/0", 0, " ".join(qtokens), table.id, gold)
        space = P.enumerate_programs(table, 0, 1, ex.question_numbers)
        cfg = dict(beam_size=len(space) + 8, max_actions=5, max_conditions=1,
                   lambda_weight=math.inf, eta=5.0)
        on = beam_search(ex, table, theta, lex, SearchConfig(shaping_enabled=True, **cfg))
        off = beam_search(ex, table, theta, lex, SearchConfig(shaping_enabled=False, **cfg))
        assert {c.serialization for c in on.compatible} == \
            {c.serialization for c in off.compatible}
        assert {c.serialization for c in on} == {c.serialization for c in off}
    report(3, "shaping properties")


def test_criterion_4_executor_oracle_equivalence():
    from helpers import oracle_execute, random_table
    rng = random.Random(41)

    # beam search with a beam wider than the program space reproduces the
    # enumerator exactly, on every table shape up to 3x3
    table_seeds = 0
    for rows in (1, 2, 3):
        for cols in (1, 2, 3):
            for variant in range(2):
                table_seeds += 1
                local = random.Random(100 * rows + 10 * cols + variant)
                while True:
                    t = random_table(local, max_rows=3, max_cols=3)
                    if t.row_count == rows and t.col_count == cols:
                        break
                question = "which one has more than 2 points"
                ex = example_for(t, question, [t.cells[0][0].raw],
                                 coords={(0, 0)})
                space = P.enumerate_programs(t, 0, 2, ex.question_numbers,
                                             cap=100_000)
                cfg = SearchConfig(beam_size=len(space) + 10,
                                   max_actions=1 + 2 + 1 + 1 + 1,
                                   max_conditions=2,
                                   lambda_weight=math.inf)
                K = beam_search(ex, t, ParamVector(), None, cfg)
                assert sorted(c.serialization for c in K) == \
                    sorted(P.serialize(pr, t) for pr in space), (rows, cols)

    # executor agrees with the independent row-by-row interpreter
    pairs = 0
    while pairs < 1000:
        t = random_table(rng)
        numbers = (str(rng.randint(1, 9)),)
        position = rng.choice((0, 1))
        prev = None
        if position == 1:
            r = rng.randrange(t.row_count)
            c = rng.randrange(t.col_count)
            prev = AnswerSet.from_texts([t.cells[r][c].raw], coords={(r, c)})
        programs = P.enumerate_programs(t, position, 2, numbers, cap=100_000)
        for prog in rng.sample(programs, min(25, len(programs))):
            mine = P.execute(prog, t, prev)
            ref = oracle_execute(prog, t, prev)
            assert mine.values == ref.values, P.serialize(prog, t)
            assert mine.coords == ref.coords
            pairs += 1
    report(4, "executor oracle equivalence",
           f"(18 beam/enumerator tables, {pairs} interpreter pairs)")


def test_criterion_5_index_swap_spuriousness():
    original = make_table("idx", ("Index", "Name", "Nation", "Points"), [
        ("1", "Karen Andrew", "England", "21"),
        ("2", "Jen Kish", "Canada", "12"),
        ("3", "Sara Marchetti", "Italy", "8"),
    ])
    # the same rows with the first two swapped; the index column then
    # renumbers by position, which preserves the gold answer's cells
    swapped = make_table("idx", ("Index", "Name", "Nation", "Points"), [
        ("1", "Jen Kish", "Canada", "12"),
        ("2", "Karen Andrew", "England", "21"),
        ("3", "Sara Marchetti", "Italy", "8"),
    ])
    gold = AnswerSet.from_texts(["England"])
    spurious = P.parse("SELECT Nation WHERE Index MIN", original)
    correct = P.parse("SELECT Nation WHERE Points = 21", original)

    assert P.execute(spurious, original).values == gold.values  # passes here
    assert P.execute(spurious, swapped).values != gold.values   # breaks here
    assert P.execute(correct, original).values == gold.values
    assert P.execute(correct, swapped).values == gold.values    # order-free

    # permute_rows reconstructs exactly that swapped table
    assert P.permute_rows(original, [1, 0, 2]) == swapped
    assert P.is_spurious(spurious, original, gold, trials=4, rng_seed=0)
    assert not P.is_spurious(correct, original, gold, trials=10, rng_seed=0)
    report(5, "index-swap spuriousness reproduction")


def test_criterion_6_directional_trends():
    from denoparse.experiments import TrendsConfig, directional_trends
    result = directional_trends(TrendsConfig(n_seeds=5, sequences=50))
    # the trends first, so a slow run still reports whether they held
    checks = result["checks"]
    assert checks["shaping_improves_maver"]["passed"], checks
    assert checks["shaping_reduces_spurious"]["passed"], checks
    assert checks["averaged_violations_steadier_than_most_violating"]["passed"], checks
    assert checks["offpolicy_beats_single_sample"]["passed"], checks
    assert result["elapsed_seconds"] < 600.0, result["elapsed_seconds"]
    report(6, "desk-scale directional trends",
           f"({result['elapsed_seconds']:.0f}s: "
           f"maver {checks['shaping_improves_maver']['maver_shaped_mean']:.3f}"
           f" > {checks['shaping_improves_maver']['maver_plain_mean']:.3f}; "
           f"audit {checks['shaping_reduces_spurious']['seeds_passed']}/5; "
           f"stability {checks['averaged_violations_steadier_than_most_violating']['seeds_passed']}/5; "
           f"offpg {checks['offpolicy_beats_single_sample']['offpg_mean']:.3f}"
           f" > {checks['offpolicy_beats_single_sample']['reinforce_mean']:.3f})")


def test_criterion_7_update_zoo_runs_end_to_end(tmp_path):
    from denoparse.cli import main
    from denoparse.experiments import DEFAULT_ZOO_SPECS, ZooConfig, update_zoo

    corpus_dir = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus_dir), "--sequences", "12",
                 "--seed", "3"]) == 0
    rc = main(["train", "--data", str(corpus_dir / "questions.tsv"),
               "--tables", str(corpus_dir / "tables"),
               "--algo", "mix:mmr,mml", "--epochs", "2", "--beam", "8",
               "--max-actions", "4", "--max-conditions", "1", "--lambda", "0",
               "--shaping", "on", "--seed", "1",
               "--out", str(tmp_path / "hybrid.tsv"),
               "--report", str(tmp_path / "hybrid.json")])
    assert rc == 0
    hybrid_report = json.loads((tmp_path / "hybrid.json").read_text())
    assert hybrid_report["algo"] == "mix:mmr,mml"
    assert len(hybrid_report["history"]["epochs"]) == 2

    zoo = update_zoo(ZooConfig())
    assert set(zoo) == set(DEFAULT_ZOO_SPECS)
    assert len(zoo) == 8  # six canonical rules and two mixes
    for spec, entry in zoo.items():
        assert len(entry["history"]["epochs"]) == 2, spec
        assert 0.0 <= entry["final_accuracy"] <= 1.0
    report(7, "update registry end-to-end",
           f"({', '.join(DEFAULT_ZOO_SPECS)})")
