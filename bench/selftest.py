"""The benchmark's own self-tests. Run from the repository root:

  python3 -m pytest -q bench/selftest.py

The file name keeps it out of the package's test run; these tests start
benchmark processes and retrain the infer checkpoint, about a minute in all.
"""
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import make_checkpoint  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from denoparse.scorer import ParamVector  # noqa: E402
from denoparse.search import beam_search  # noqa: E402

RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("arm", "infer", "train-wide")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))

# the end-to-end metrics each workload prints, gated or not
_COMMON = {"setup_s", "examples_per_s", "search_ms_p50", "search_ms_p90", "accuracy",
           "peak_rss_mb", "error_rate"}
_EVAL = {"eval_examples_per_s", "eval_seq_ms_p50", "eval_seq_ms_p90"}
_TRAIN = {"train_examples_per_s", "epoch_s"}
PRINTED = {
    "arm": _COMMON | _EVAL | _TRAIN | {"arm_s"},
    "infer": _COMMON | _EVAL,
    "train-wide": _COMMON | _TRAIN,
}
LAYERS = {
    "search.calls", "search.busy_s", "search.ms_p50", "search.ms_p90",
    "search.ranked_per_call", "search.finalized_per_call", "search.candidates_per_call",
    "search.compatible_ratio", "scorer.action_features.calls",
    "scorer.action_features.busy_s", "scorer.dot.calls", "scorer.featurize.calls",
    "scorer.featurize.busy_s", "scorer.add_scaled.calls", "scorer.add_scaled.busy_s",
    "programs.match_rows.calls", "programs.match_rows.busy_s",
    "programs.condition_actions.hit_ratio", "programs.execute.calls",
    "programs.execute.busy_s", "programs.is_spurious.calls", "programs.is_spurious.busy_s",
    "programs.spurious_ratio", "updates.make_context.busy_s",
    "updates.generalized_update.calls", "updates.generalized_update.busy_s",
    "updates.skipped_ratio", "updates.zero_ratio", "training.sgd_s",
    "training.evaluate.busy_s", "training.spurious_audit.busy_s",
    "synth.generate_corpus.busy_s", "tables.load_dataset.busy_s",
    "critique.lexicon_load.busy_s", "scorer.checkpoint_load.busy_s", "gc.collections",
    "gc.busy_s", "trace.overhead_ratio",
}


def _run(cwd, workload, trace, runner=RUN):
    proc = subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    digest = lambda seed: workloads.inputs_digest(  # noqa: E731
        workloads.setup(workload, seed, True, str(tmp_path)))
    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert (LAYERS if trace else PRINTED[workload]) <= printed


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "arm", 0, runner=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_catch_a_wrong_candidate(tmp_path):
    inputs = workloads.setup("infer", 1, True, str(tmp_path))
    sequences, tabs = inputs.test
    ex = sequences[0][0]
    table = tabs[ex.table_ref]
    config = workloads.check_plan("infer", inputs)[0][1]
    K = beam_search(ex, table, inputs.theta, inputs.lexicon, config)
    assert checks.candidate_problems(K, ex, table, inputs.theta, inputs.lexicon, None) == []
    good = K.entries[0]
    K.entries[0] = type(good)(good.program, good.serialization, good.score + 1.0,
                              good.reward, good.critique, not good.compatible,
                              good.answer)
    problems = checks.candidate_problems(K, ex, table, inputs.theta, inputs.lexicon, None)
    assert any("score" in p for p in problems)
    assert any("compatible" in p for p in problems)


def test_committed_checkpoint_reproduces():
    committed = ParamVector.load(workloads.CHECKPOINT)
    assert make_checkpoint.train_checkpoint().weights == committed.weights


def test_digest_disagreements_count_as_failures():
    units = lambda *digests: [SimpleNamespace(digest=d) for d in digests]  # noqa: E731
    assert run.digest_failures(units("a", "a"), None) == []
    assert run.digest_failures(units("a", "a"), "a") == []
    assert len(run.digest_failures(units("a", "b", "b"), None)) == 2
    assert len(run.digest_failures(units("a", "a"), "b")) == 1


def test_baseline_records_digests_by_workload_and_seed():
    for workload in WORKLOADS:
        assert len(run._baseline_digest(workload, 1)) == 64
        assert run._baseline_digest(workload, -1) is None
