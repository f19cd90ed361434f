"""denoparse benchmark: end-to-end metrics per workload, per-layer metrics
from a traced run.

Run from the repository root:

  python3 bench/run.py --workload arm --seed 1 --seconds 36 --trace 0
  python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

`--workload all` runs arm, infer and train-wide one after another, each in
its own process. The package is imported from `src/` of the same checkout;
nothing needs installing or building. Workloads are described in
`workloads.py`; metric names, units and bounds are in BENCHMARK.json.

A run repeats the workload's unit (see workloads.py), each in a fresh
interpreter (unit.py), until the next would pass `--seconds`, and runs at
least two; an arm unit takes about 26 s, so an arm run measures two whole
arms. With `--trace 1` it alternates untraced and traced units; the
per-layer metrics come from the traced ones, and `trace.overhead_ratio`
compares the two kinds. The spans of the last traced unit are written to
.bench_out/trace-<workload>-<seed>.jsonl.

End-to-end metrics, from the untraced units:
  examples_per_s        examples searched (trained on, evaluated, audited)
                        per second of unit time
  search_ms_p50, _p90   latency of each beam_search in the unit
  peak_rss_mb           ru_maxrss of a unit's own process, median over units
  setup_s               import plus the time to synthesize, write and load
                        the corpora and load the lexicon and checkpoint, in
                        a fresh interpreter; median over every unit's own
                        setup and SETUPS_PER_UNIT setup-only interpreters
                        started before each unit, so that the samples
                        spread over the run as the units do
  accuracy              exact match, held-out (arm, infer) or best dev
                        (train-wide); it differs by seed by design
  error_rate            failed / attempted operations
  eval_examples_per_s, eval_seq_ms_p50, _p90
                        evaluate([seq]) per held-out sequence (arm, infer)
  train_examples_per_s  per epoch, training examples over the SGD pass (the
                        epoch minus its dev eval); median (arm, train-wide)
  epoch_s               median epoch wall time, dev eval included
  arm_s                 wall time of the whole arm
Each search counts with its median latency across the units (see
robust_searches). BENCHMARK.json gates examples_per_s, peak_rss_mb and
setup_s, which every workload reports; the rest are printed for reading.

The first unit also checks its outputs (checks.py). Every unit must give
the same digest of predictions, dev curve, audit and final weights, and that
digest must equal the one bench/baseline.json records for the workload and
seed, where it records one. Each disagreement counts as a failed operation.
The report lines come first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

from unit import median, p90, ratio

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
UNIT = os.path.join(BENCH, "unit.py")
BASELINE = os.path.join(BENCH, "baseline.json")
WORKLOADS = ("arm", "infer", "train-wide")
MIN_UNITS = 2
SETUPS_PER_UNIT = 4
UNIT_TIMEOUT_S = 150


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        _fail(f"{path} not found")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _baseline_digest(workload: str, seed: int):
    """The digest bench/baseline.json records for this workload and seed,
    or None."""
    if not os.path.isfile(BASELINE):
        return None
    with open(BASELINE, encoding="utf-8") as f:
        record = json.load(f)
    return record.get("workloads", {}).get(workload, {}).get("digests", {}).get(str(seed))


# -- metrics ---------------------------------------------------------------

def robust_searches(units):
    """Search latencies (ms) with each search's median across the run's
    units, and the unit wall time rebuilt from them plus the median of the
    rest of the unit. The units do identical work in the same order, so
    this discards the slow stretches a shared machine puts into single
    units."""
    searches = [median(col) for col in zip(*(u.search_ms for u in units))]
    rest = median([u.wall_s - sum(u.search_ms) / 1000.0 for u in units])
    return searches, sum(searches) / 1000.0 + rest


def end_to_end(workload, units, setups, failed, attempted):
    """name -> (value, unit, samples); only the metrics that apply."""
    searches, wall_s = robust_searches(units)
    m = {
        "setup_s": (median(setups), "s", len(setups)),
        "examples_per_s": (units[0].examples / wall_s, "examples/s", len(units)),
        "search_ms_p50": (median(searches), "ms", len(searches)),
        "search_ms_p90": (p90(searches), "ms", len(searches)),
        "peak_rss_mb": (median([u.rss_kb for u in units]) / 1024.0, "MB", len(units)),
        "accuracy": (units[0].accuracy, "fraction", units[0].accuracy_n),
        "error_rate": (ratio(failed, attempted), "failed/attempted", attempted),
    }
    if workload != "train-wide":
        lat = [x for u in units for x in u.eval_seq_ms]
        m["eval_examples_per_s"] = (median([u.eval_examples / u.eval_s for u in units]),
                                    "examples/s", len(units))
        m["eval_seq_ms_p50"] = (median(lat), "ms", len(lat))
        m["eval_seq_ms_p90"] = (p90(lat), "ms", len(lat))
    if workload != "infer":
        rates = [u.train_examples / s for u in units for s in u.sgd_s]
        epochs = [e for u in units for e in u.epoch_s]
        m["train_examples_per_s"] = (median(rates), "examples/s", len(rates))
        m["epoch_s"] = (median(epochs), "s", len(epochs))
    if workload == "arm":
        m["arm_s"] = (median([u.wall_s for u in units]), "s", len(units))
    return m


def digest_failures(units, expected) -> list[str]:
    """One message per disagreement: each unit whose digest differs from the
    first unit's, and a first digest that differs from `expected`, the
    baseline's (None when the baseline has none)."""
    problems = [f"unit {i + 1} digest {u.digest} != unit 1 digest {units[0].digest}"
                for i, u in enumerate(units) if u.digest != units[0].digest]
    if expected is not None and units[0].digest != expected:
        problems.append(f"digest {units[0].digest} != {expected} in bench/baseline.json")
    return problems


# -- one workload ------------------------------------------------------------

def _unit(args, *flags):
    """Run unit.py once; returns its result, or None if it failed."""
    cmd = [sys.executable, UNIT, "--workload", args.workload, "--seed", str(args.seed),
           *flags] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: a {args.workload} unit timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return SimpleNamespace(**json.loads(proc.stdout.splitlines()[-1]))


def run_workload(args) -> int:
    spec = _spec()
    if not os.path.isfile(os.path.join(SRC, "denoparse", "__init__.py")):
        _fail(f"no package source at {SRC}/denoparse; run from a full checkout")

    deadline = time.perf_counter() + args.seconds
    plain, traced, setups = [], [], []
    failed = 0
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_UNIT):
            s = _unit(args, "--setup-only")
            if s is None:
                _fail("setup failed")
            setups.append(s.import_s + s.setup_s)
        trace_this = bool(args.trace) and len(traced) < len(plain)
        if trace_this:
            flags = ["--trace"]
        else:
            flags = [] if plain else ["--check"]
        unit = _unit(args, *flags)
        if unit is None:
            failed += 1
            break
        (traced if trace_this else plain).append(unit)
        setups.append(unit.import_s + unit.setup_s)
        if len(plain) + len(traced) < MIN_UNITS:
            continue
        now = time.perf_counter()
        if now + (now - t0) > deadline:  # the next unit would end past it
            break
    if not plain or (args.trace and not traced):
        _fail("no unit completed")
    units = plain + traced

    check = plain[0].check
    for p in check["problems"]:
        print(f"check failed: {p}")
    expected = None if args.smoke else _baseline_digest(args.workload, args.seed)
    for p in digest_failures(units, expected):
        print(f"check failed: {p}")
        failed += 1
    failed += check["failed"]
    attempted = sum(u.examples for u in units) + check["checked"]

    print(f"workload {args.workload}  seed {args.seed}  units {len(plain)} untraced"
          f" + {len(traced)} traced  first timed call at {plain[0].first_call_s:.3f} s")
    print("unit_wall_s " + " ".join(f"{u.wall_s:.3f}" for u in units))
    print(f"digest {units[0].digest}  baseline {expected or 'none for this seed'}")
    print(f"inputs {plain[0].inputs_digest}")
    if units[0].dev_curve:
        print("dev_curve " + " ".join(f"{a:.4f}" for a in units[0].dev_curve))
    if units[0].audit is not None:
        print("audit spurious/audited {}/{}".format(*units[0].audit))
    print(f"checked {check['checked']} searches, {check['failed']} failed")

    if args.trace:
        overhead = (median([u.wall_s for u in traced]) / median([u.wall_s for u in plain])
                    - 1.0)
        per_unit = [dict(u.layers, **{"trace.overhead_ratio": (overhead, "ratio")})
                    for u in traced]
        metrics = {name: (median([m[name][0] for m in per_unit]), unit, len(per_unit))
                   for name, (_, unit) in per_unit[0].items()}
        print("span self time (last traced unit):")
        for name, r in sorted(traced[-1].spans.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:32s} calls {r['calls']:8d}  busy {r['busy_s']:9.4f} s"
                  f"  self {r['self_s']:9.4f} s")
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(args.workload, plain, setups, failed, attempted)
        wanted = spec["end_to_end"]

    gated = {m["name"] for m in wanted}
    for name, (value, unit, n) in metrics.items():
        mark = "" if name in gated else "  (reported, not in BENCHMARK.json)"
        print(f"metric {name:38s} {value:14.6f} {unit:16s} n={n}{mark}")
    out = {}
    for m in wanted:
        value, unit, _ = metrics[m["name"]]
        if unit != m["unit"]:
            _fail(f"metric {m['name']}: unit {unit} != {m['unit']} in BENCHMARK.json")
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own self-tests")
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
