import math
import os
import random

import pytest

from denoparse.critique import default_lexicon
from denoparse.scorer import ParamVector
from denoparse.search import SearchConfig, beam_search
from denoparse.tables import AnswerSet, Example
from denoparse.training import (EpochStats, TrainConfig, TrainHistory, TrainingError,
                                evaluate, run_report, split_sequences, spurious_audit,
                                stability, train, _initial_theta)
from denoparse.updates import generalized_update, make_context, parse_update_spec

from conftest import example_for, make_table


def history_with(dev_accuracies):
    h = TrainHistory()
    for a in dev_accuracies:
        h.epochs.append(EpochStats(a, None, 0, 0, 0.0))
    return h


def one_example_corpus():
    # training needs 2 sequences for its dev split; tests train on this one
    # passed twice, so the dev split is a copy of the training sequence
    table = make_table("t0", ("Name", "Points"), [("Ada", "3"), ("Bo", "7")])
    ex = example_for(table, "how many points did ada have?", ["3"],
                     coords={(0, 1)}, sequence_id="q0/0")
    return [[ex]], {"t0": table}


def small_config(algo="mmr", **kw):
    base = dict(update_spec=parse_update_spec(algo), learning_rate=0.1, epochs=4,
                search=SearchConfig(beam_size=8, max_actions=4, max_conditions=1,
                                    lambda_weight=math.inf),
                seed=0, train_accuracy_sample=0)
    base.update(kw)
    return TrainConfig(**base)


def test_overfit_single_example_with_margin_updates():
    sequences, tables = one_example_corpus()
    theta, history = train(sequences * 2, tables, None, small_config(epochs=8))
    assert evaluate(sequences, tables, theta, small_config().search) == 1.0


def test_zero_learning_rate_changes_nothing():
    sequences, tables = one_example_corpus()
    cfg = small_config(learning_rate=0.0, epochs=3)
    theta, history = train(sequences * 2, tables, None, cfg)
    assert theta.weights == _initial_theta(cfg).weights
    assert len(set(history.dev_accuracies)) == 1


def test_training_is_bitwise_reproducible():
    from denoparse.synth import SynthConfig, generate_corpus
    corpus = generate_corpus(SynthConfig(sequences=6, seed=3))
    lex = default_lexicon()
    cfg = small_config("maver", epochs=2, seed=11)
    out1 = train(corpus.sequences, corpus.tables, lex, cfg)
    out2 = train(corpus.sequences, corpus.tables, lex, cfg)
    assert out1[0].weights == out2[0].weights
    assert out1[1].to_dict()["epochs"] == out2[1].to_dict()["epochs"] or \
        out1[1].dev_accuracies == out2[1].dev_accuracies


def test_update_is_exactly_learning_rate_times_delta():
    sequences, tables = one_example_corpus()
    ex = sequences[0][0]
    cfg = small_config("mml", epochs=1)
    theta, _ = train(sequences * 2, tables, None, cfg)
    # recompute the single update by hand from the initial parameters
    init = _initial_theta(cfg)
    K = beam_search(ex, tables["t0"], init, None, cfg.search)
    ctx = make_context(K, random.Random(cfg.seed))
    res = generalized_update(cfg.update_spec, ctx)
    want = dict(init.weights)
    for f, v in res.delta.items():
        want[f] = want.get(f, 0.0) + cfg.learning_rate * v
    assert set(theta.weights) == {f for f, v in want.items()}
    for f, v in want.items():
        assert theta.weights.get(f, 0.0) == pytest.approx(v, abs=1e-12)


def test_dev_split_is_by_sequence():
    seqs = [[example_for(make_table(f"t{i}", ("A",), [("x",)]), "q?", ["x"],
                         sequence_id=f"s{i}/0", position=0)]
            for i in range(10)]
    train_seqs, dev_seqs = split_sequences(seqs, 0.2, seed=1)
    assert len(dev_seqs) == 2 and len(train_seqs) == 8
    train_ids = {e.sequence_id for s in train_seqs for e in s}
    dev_ids = {e.sequence_id for s in dev_seqs for e in s}
    assert not train_ids & dev_ids


def test_one_sequence_has_no_dev_split():
    table = make_table("t0", ("A",), [("x",)])
    seqs = [[example_for(table, "q?", ["x"], sequence_id="s0/0", position=0)]]
    with pytest.raises(TrainingError, match="needs at least 2 sequences, got 1"):
        train(seqs, {table.id: table}, None, TrainConfig(epochs=1))


def test_stability_arithmetic():
    assert stability(history_with([0.40, 0.42, 0.38])) == pytest.approx(0.03)
    assert stability(history_with([0.5, 0.5, 0.5])) == 0.0
    with pytest.raises(ValueError):
        stability(history_with([0.5]))


def test_run_report_summarizes_history():
    h = history_with([0.40, 0.42])
    h.epochs[1].skipped, h.epochs[1].zero_updates = 2, 3
    h.best_epoch = 1
    report = run_report(h, ParamVector({"a": 1.0, "b": 2.0}))
    assert report == {
        "history": h.to_dict(), "final_accuracy": 0.42,
        "stability": pytest.approx(0.02), "skipped_total": 2,
        "zero_updates_total": 3, "n_weights": 2}
    assert list(report["history"]["epochs"][0]) == [
        "dev_accuracy", "train_accuracy", "skipped", "zero_updates", "wall_time"]
    assert run_report(history_with([0.5]), ParamVector())["stability"] is None


def test_evaluate_requires_examples():
    with pytest.raises(ValueError, match="no examples"):
        evaluate([], {}, ParamVector(), SearchConfig())


def test_evaluate_zero_theta_is_deterministic_baseline():
    from denoparse.synth import SynthConfig, generate_corpus
    corpus = generate_corpus(SynthConfig(sequences=5, seed=9))
    cfg = SearchConfig(beam_size=6, max_actions=4, max_conditions=1)
    a1 = evaluate(corpus.sequences, corpus.tables, ParamVector(), cfg)
    a2 = evaluate(corpus.sequences, corpus.tables, ParamVector(), cfg)
    assert a1 == a2
    assert 0.0 <= a1 <= 1.0


def test_evaluate_uses_predicted_prev_answers():
    table = make_table("t0", ("Name", "Points"), [("Ada", "3"), ("Bo", "7")])
    first = example_for(table, "who had the most points?", ["Bo"],
                        coords={(1, 0)}, sequence_id="q/0", position=0)
    second = Example("q/0", 1, "how many points did that one have?",
                     "t0", AnswerSet.from_texts(["7"], {(1, 1)}))
    # weights that nail question 1 and make FPCELL Points the pick for q2
    theta = ParamVector({"MAX:col_exact": 5.0, "act=FPCELL": 3.0,
                         "FPCELL:col_exact": 3.0})
    cfg = SearchConfig(beam_size=12, max_actions=4, max_conditions=1)
    preds = []
    acc = evaluate([[first, second]], {"t0": table}, theta, cfg, predictions=preds)
    assert preds[0]["correct"]
    assert preds[1]["program"].startswith("FPCELL")
    assert acc == 1.0


def test_evaluate_never_ranks_with_reward():
    # a model that loves nothing still yields the same candidates whatever
    # the gold answer says, because eval ranking is score-only
    table = make_table("t0", ("Name", "Points"), [("Ada", "3"), ("Bo", "7")])
    cfg = SearchConfig(beam_size=4, max_actions=4, max_conditions=1)
    ex_a = example_for(table, "who?", ["Ada"], coords={(0, 0)})
    ex_b = example_for(table, "who?", ["Bo"], coords={(1, 0)})
    from dataclasses import replace
    eval_cfg = replace(cfg, lambda_weight=0.0, shaping_enabled=False)
    K_a = beam_search(ex_a, table, ParamVector(), None, eval_cfg)
    K_b = beam_search(ex_b, table, ParamVector(), None, eval_cfg)
    assert [c.serialization for c in K_a] == [c.serialization for c in K_b]


def test_skip_counting_without_compatible_candidates():
    table = make_table("t0", ("Name", "Points"), [("Ada", "3"), ("Bo", "7")])
    impossible = example_for(table, "who is missing?", ["nobody"],
                             sequence_id="q/0")
    cfg = small_config("maver", epochs=1, dev_fraction=0.5)
    theta, history = train([[impossible]] * 2, {"t0": table}, None, cfg)
    assert history.epochs[0].skipped == 1


@pytest.mark.parametrize("algo", ["mml", "merit:0.5"])
def test_underflowing_update_names_the_example(algo):
    # every compatible program needs a condition, so a condition prior of
    # -2000 leaves each of them with a model probability of exp(-2000) = 0
    sequences, tables = one_example_corpus()
    cfg = small_config(algo, epochs=1, condition_prior=-2000.0)
    with pytest.raises(TrainingError, match="at example q0/0:0: .*underflows to 0"):
        train(sequences * 2, tables, None, cfg)


def test_spurious_audit_sample_zero():
    sequences, tables = one_example_corpus()
    assert spurious_audit(sequences, tables, ParamVector(), 0, 0,
                          SearchConfig()) == (0, 0)


def test_spurious_audit_order_invariant_corpus():
    sequences, tables = one_example_corpus()
    cfg = small_config(epochs=4)
    theta, _ = train(sequences * 2, tables, None, cfg)
    s, t = spurious_audit(sequences, tables, theta, 5, 0, cfg.search)
    assert s == 0 and t == 1


def test_model_shaping_flag_runs():
    from denoparse.synth import SynthConfig, generate_corpus
    corpus = generate_corpus(SynthConfig(sequences=4, seed=5))
    lex = default_lexicon()
    cfg = small_config("maver", epochs=1, model_shaping=True)
    theta, history = train(corpus.sequences, corpus.tables, lex, cfg)
    assert len(history.epochs) == 1


def test_refit_retrains_on_everything():
    from denoparse.synth import SynthConfig, generate_corpus
    corpus = generate_corpus(SynthConfig(sequences=6, seed=3))
    lex = default_lexicon()
    plain_cfg = small_config("mml", epochs=2, seed=2)
    refit_cfg = small_config("mml", epochs=2, seed=2, refit=True)
    theta_plain, hist_plain = train(corpus.sequences, corpus.tables, lex, plain_cfg)
    theta_refit, hist_refit = train(corpus.sequences, corpus.tables, lex, refit_cfg)
    assert hist_plain.best_epoch == hist_refit.best_epoch
    # refit saw the dev sequences too, so the weights differ in general
    assert theta_refit.weights != {} and len(hist_refit.epochs) == 2


def test_training_is_deterministic_across_hash_seeds(tmp_path):
    # (seed, config, data) fully determine the outputs: string-set hashing
    # must not leak into feature order or float summation order
    script = tmp_path / "fit.py"
    script.write_text(
        "import sys\n"
        "from denoparse.synth import SynthConfig, generate_corpus\n"
        "from denoparse.critique import default_lexicon\n"
        "from denoparse.search import SearchConfig\n"
        "from denoparse.training import TrainConfig, train\n"
        "from denoparse.updates import parse_update_spec\n"
        "corpus = generate_corpus(SynthConfig(sequences=6, seed=7))\n"
        "cfg = TrainConfig(update_spec=parse_update_spec('maver'), epochs=2,\n"
        "                  search=SearchConfig(beam_size=8, max_actions=4,\n"
        "                                      max_conditions=2, lambda_weight=0.0,\n"
        "                                      shaping_enabled=True),\n"
        "                  seed=1, train_accuracy_sample=0)\n"
        "theta, hist = train(corpus.sequences, corpus.tables, default_lexicon(), cfg)\n"
        "theta.save(sys.argv[1])\n")
    import subprocess
    import sys as _sys
    outs = []
    for hash_seed in ("1", "9001"):
        out = tmp_path / f"model{hash_seed}.tsv"
        # the child imports the package from where this process does, so
        # the test also runs from a checkout with no install
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(_sys.path))
        subprocess.run([_sys.executable, str(script), str(out)], check=True,
                       env=env, capture_output=True)
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_train_config_validation():
    with pytest.raises(ValueError):
        small_config(learning_rate=-1.0).validate()
    with pytest.raises(ValueError):
        small_config(epochs=0).validate()
    with pytest.raises(ValueError):
        small_config(dev_fraction=1.5).validate()
    small_config(learning_rate=0.0).validate()  # zero is allowed
