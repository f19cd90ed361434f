"""Run the benchmark over several seeds and write one JSON record.

  python3 bench/record.py --seeds 1-10 --out record.json

Runs every workload once per seed with tracing off, then once per workload
with tracing on (first seed), one process at a time, each for the
`run_seconds` of BENCHMARK.json. For each metric the record holds the
median, the quartiles and the spread (interquartile range over median)
across seeds, next to the commit, the Python version and `nproc`, and the
output digest of every run. It also records which end-to-end metric each
per-layer metric should move. bench/baseline.json is such a record for the
parent commit of the benchmark; run.py checks each run's digest against it.
After a change that alters the outputs on purpose, move bench/baseline.json
away, record a new one and commit it with the change.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("arm", "infer", "train-wide")

# per-layer metric -> (end-to-end metrics it should move, workloads where mainly)
LAYER_MOVES = {
    "search.busy_s": ("examples_per_s train_examples_per_s epoch_s arm_s "
                      "eval_examples_per_s", "all"),
    "search.ms_p50": ("search_ms_p50 eval_seq_ms_p50", "all"),
    "search.ms_p90": ("search_ms_p90 eval_seq_ms_p90", "all"),
    "search.ranked_per_call": ("search.busy_s; work per search", "arm vs train-wide"),
    "search.finalized_per_call": ("search.busy_s; work per search", "arm vs train-wide"),
    "search.candidates_per_call": ("search.busy_s; work per search", "arm vs train-wide"),
    "search.compatible_ratio": ("none: must not move under a pure speed-up", "all"),
    "scorer.action_features.busy_s": ("examples_per_s train_examples_per_s", "arm"),
    "scorer.dot.calls": ("examples_per_s train_examples_per_s", "arm"),
    "scorer.featurize.busy_s": ("train_examples_per_s", "train-wide"),
    "scorer.add_scaled.busy_s": ("train_examples_per_s", "train-wide"),
    "programs.match_rows.busy_s": ("examples_per_s search_ms_p50", "all"),
    "programs.condition_actions.hit_ratio": ("examples_per_s; below 1 on infer and "
                                             "train-wide by design", "all"),
    "programs.execute.busy_s": ("arm_s", "arm"),
    "programs.is_spurious.busy_s": ("arm_s", "arm"),
    "updates.generalized_update.busy_s": ("train_examples_per_s", "train-wide"),
    "updates.make_context.busy_s": ("train_examples_per_s", "train-wide"),
    "training.sgd_s": ("epoch_s arm_s train_examples_per_s", "arm"),
    "training.evaluate.busy_s": ("epoch_s arm_s eval_examples_per_s", "arm"),
    "training.spurious_audit.busy_s": ("arm_s", "arm"),
    "synth.generate_corpus.busy_s": ("setup_s", "all"),
    "tables.load_dataset.busy_s": ("setup_s", "all"),
    "critique.lexicon_load.busy_s": ("setup_s", "all"),
    "scorer.checkpoint_load.busy_s": ("setup_s", "infer"),
    "gc.busy_s": ("every throughput metric", "all"),
    "trace.overhead_ratio": ("none: keeps the trace honest", "all"),
}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    metrics = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, n = line.split()[:5]
            metrics[name] = {"value": float(value), "unit": unit, "n": int(n[2:])}
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    print(f"{workload} seed {seed} trace {trace}: correct {result['correct']}"
          f" failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    return {"result": result, "metrics": metrics, "digest": digest}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) >= 2
                     else (values[0], None, values[0]))
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                     "values": values}
    return out


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        seconds = json.load(f)["run_seconds"]
    seeds = _seeds(args.seeds)
    record = {
        "commit": _commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "machine": platform.processor() or platform.machine(),
        "seeds": seeds, "seconds": seconds,
        "layer_moves": {k: {"end_to_end": v[0], "mainly_on": v[1]}
                        for k, v in LAYER_MOVES.items()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = run_once(workload, seeds[0], seconds, 1)
        record["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "digests": {str(s): r["digest"] for s, r in zip(seeds, runs)},
            "end_to_end": summarize(runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
