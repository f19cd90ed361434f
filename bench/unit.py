"""One timed unit of a benchmark workload, in a fresh interpreter.

  python3 bench/unit.py --workload arm --seed 1 [--trace] [--check] [--setup-only]

run.py starts one of these per unit, so no unit inherits a cache, a heap or
any other state from the one before. It imports the package from `src/` of
the same checkout, builds the workload's inputs from the seed
(workloads.setup), runs the unit once (workloads.run_unit) and prints one
JSON object as the last line of standard output: the import and setup
times, the unit's measurements and output digest, and its process's
ru_maxrss. `--check` adds the output checks of checks.py, `--trace` the
unit's per-layer metrics and span table (tracing.py; the spans are written
to .bench_out/trace-<workload>-<seed>.jsonl), and `--setup-only` stops
after setup. A failure exits non-zero with its traceback on standard error.
"""
import time

_T_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(part, whole):
    """part / whole, or 0 when nothing was attempted (the base is printed)."""
    return part / whole if whole else 0.0


def layer_metrics(tr, unit, setup_s):
    """Per-layer metrics of one traced unit: name -> (value, unit).
    run.py adds `trace.overhead_ratio`, which needs the untraced units."""
    st = tr.span_table()
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    row = lambda name: st.get(name, zero)  # noqa: E731
    train_ids = {s[0] for s in tr.spans if s[1] == "training.train"}
    durations = {}
    for _, name, t0, t1, parent, _, _ in tr.spans:
        durations.setdefault((name, parent in train_ids), []).append(t1 - t0)
    searches = [(t1 - t0) * 1000.0 for _, name, t0, t1, _, _, _ in tr.spans
                if name == "search.beam_search"]
    n = len(searches)
    sgd_s = sum(unit.sgd_s)
    sgd_search = sum(durations.get(("search.beam_search", True), []))
    sgd_updates = sum(sum(durations.get((name, True), [])) for name in (
        "updates.make_context", "updates.generalized_update", "scorer.add_scaled"))
    hits, misses = tr.tally["cache_hits"], tr.tally["cache_misses"]
    update = row("updates.generalized_update")
    spur = row("programs.is_spurious")
    m = {
        "search.calls": (n, "count"),
        "search.busy_s": (row("search.beam_search")["busy_s"], "s"),
        "search.self_s": (row("search.beam_search")["self_s"], "s"),
        "search.ms_p50": (median(searches), "ms"),
        "search.ms_p90": (p90(searches), "ms"),
        "search.ranked_per_call": (ratio(tr.calls["search.rank_key"], n), "count"),
        "search.finalized_per_call": (ratio(tr.calls["search.exact_match"], n), "count"),
        "search.candidates_per_call": (ratio(tr.tally["candidates"], n), "count"),
        "search.compatible_ratio": (ratio(tr.tally["compatible"], tr.tally["candidates"]),
                                    "ratio"),
        "search.sgd_share": (ratio(sgd_search, sgd_s), "ratio"),
        "scorer.action_features.calls": (row("scorer.action_features")["calls"], "count"),
        "scorer.action_features.busy_s": (row("scorer.action_features")["busy_s"], "s"),
        "scorer.dot.calls": (tr.calls["scorer.dot"], "count"),
        "scorer.featurize.calls": (row("scorer.featurize")["calls"], "count"),
        "scorer.featurize.busy_s": (row("scorer.featurize")["busy_s"], "s"),
        "scorer.add_scaled.calls": (row("scorer.add_scaled")["calls"], "count"),
        "scorer.add_scaled.busy_s": (row("scorer.add_scaled")["busy_s"], "s"),
        "scorer.checkpoint_load.busy_s": (setup_s.get("scorer.checkpoint_load", 0.0), "s"),
        "programs.match_rows.calls": (tr.calls["programs.match_rows"], "count"),
        "programs.match_rows.busy_s": (tr.busy["programs.match_rows"], "s"),
        "programs.condition_actions.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "programs.execute.calls": (row("programs.execute")["calls"], "count"),
        "programs.execute.busy_s": (row("programs.execute")["busy_s"], "s"),
        "programs.is_spurious.calls": (spur["calls"], "count"),
        "programs.is_spurious.busy_s": (spur["busy_s"], "s"),
        "programs.spurious_ratio": (ratio(tr.tally["spurious"], spur["calls"]), "ratio"),
        "updates.make_context.busy_s": (row("updates.make_context")["busy_s"], "s"),
        "updates.generalized_update.calls": (update["calls"], "count"),
        "updates.generalized_update.busy_s": (update["busy_s"], "s"),
        "updates.skipped_ratio": (ratio(tr.tally["updates_skipped"], update["calls"]),
                                  "ratio"),
        "updates.zero_ratio": (ratio(tr.tally["updates_zero"], update["calls"]), "ratio"),
        "updates.sgd_share": (ratio(sgd_updates, sgd_s), "ratio"),
        "training.sgd_s": (sgd_s, "s"),
        "training.evaluate.busy_s": (row("training.evaluate")["busy_s"], "s"),
        "training.spurious_audit.busy_s": (row("training.spurious_audit")["busy_s"], "s"),
        "synth.generate_corpus.busy_s": (setup_s.get("synth.generate_corpus", 0.0), "s"),
        "tables.load_dataset.busy_s": (setup_s.get("tables.load_dataset", 0.0), "s"),
        "critique.lexicon_load.busy_s": (setup_s.get("critique.lexicon_load", 0.0), "s"),
        "gc.collections": (sum(tr.gc_collections), "count"),
        "gc.busy_s": (sum(tr.gc_busy), "s"),
    }
    for g in range(3):
        m[f"gc.gen{g}.collections"] = (tr.gc_collections[g], "count")
        m[f"gc.gen{g}.busy_s"] = (tr.gc_busy[g], "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import denoparse
    import checks  # these import denoparse, so only once src/ is on the path
    import tracing
    import workloads
    import_s = time.perf_counter() - t0
    if not os.path.abspath(denoparse.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"denoparse was imported from {denoparse.__file__}, not from {SRC}")

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT)
    try:
        t0 = time.perf_counter()
        inputs = workloads.setup(args.workload, args.seed, args.smoke, scratch)
        setup_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = {"import_s": import_s, "setup_s": setup_s,
           "first_call_s": time.perf_counter() - _T_START}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            unit = workloads.run_unit(args.workload, inputs, tr.region)
        finally:
            tr.uninstall()
    else:
        unit = workloads.run_unit(args.workload, inputs)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.update((k, v) for k, v in vars(unit).items() if k != "theta")

    if args.trace:
        out["layers"] = layer_metrics(tr, unit, inputs.setup_s)
        out["spans"] = tr.span_table()
        tr.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
    if args.check:
        t0 = time.perf_counter()
        checked, failed, problems = checks.check_searches(
            workloads.check_plan(args.workload, inputs), unit.theta, inputs.lexicon)
        out["check"] = {"checked": checked, "failed": failed, "problems": problems,
                        "seconds": time.perf_counter() - t0}
        out["inputs_digest"] = workloads.inputs_digest(inputs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
