"""The benchmark's workloads, composed only from the package's public calls.

Each workload is a fixed unit of work built from the workload seed. The
runner repeats the unit, each time in a fresh interpreter (unit.py) on
freshly ingested inputs, so every repeat starts cold and produces the same
outputs (the runner checks that through the unit digests).

  arm         one directional-trends arm with the `TrendsConfig` defaults
              (seed 7 gives the first shaped-MAVER arm of `directional_trends`):
              shaped MAVER on a 50-sequence corpus, then a held-out eval
              and the spurious-program audit. Its 81-96
              (table, question-numbers) keys fit the 128-entry
              `condition_actions` cache, and every epoch revisits them.
  infer       evaluation only, from the committed checkpoint, on a
              200-sequence held-out corpus: no update, no reward, no
              shaping, and 340-365 cache keys, so the cache overflows.
  train-wide  reward-guided training at the CLI search defaults (beam 32,
              6 actions, lambda = inf, so every partial child gets a
              reward) with the MML update, which featurizes every
              candidate, on an 80-sequence corpus whose 130-155 keys also
              overflow the cache.

Corpora come from `synth` with the workload seed (held-out corpora from
seed + 1000, as `directional_trends` does), go through `write_corpus`, and
are read back with `tables.load_dataset`, the path users take.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace

from denoparse import critique, synth, tables, training
from denoparse.experiments import TrendsConfig
from denoparse.scorer import ParamVector
from denoparse.search import SearchConfig
from denoparse.updates import parse_update_spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT = os.path.join(BENCH_DIR, "infer_checkpoint.tsv")
# the checkpoint is trained on the trends corpus (see make_checkpoint.py)
CHECKPOINT_CORPUS_SEED = TrendsConfig().corpus_seed
HELD_OUT_OFFSET = 1000
MODEL_SEED = 1  # the first seed of directional_trends

_perf = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    train_sequences: int = 0
    test_sequences: int = 0
    epochs: int = 0
    audit_sample: int = 0


_TRENDS = TrendsConfig()
SIZES = {
    "arm": Sizes(_TRENDS.sequences, _TRENDS.test_sequences, _TRENDS.epochs,
                 _TRENDS.audit_sample),
    "infer": Sizes(test_sequences=200),
    "train-wide": Sizes(train_sequences=80, epochs=1),
}
SMOKE_SIZES = {
    "arm": Sizes(6, 3, 2, 4),
    "infer": Sizes(test_sequences=6),
    "train-wide": Sizes(train_sequences=4, epochs=1),
}


def arm_search() -> SearchConfig:
    """The shaped-arm search of directional_trends."""
    return SearchConfig(beam_size=_TRENDS.beam_size, max_actions=4, max_conditions=2,
                        lambda_weight=0.0, shaping_enabled=True, eta=_TRENDS.eta)


def wide_search() -> SearchConfig:
    """The CLI search defaults, with shaping on."""
    return SearchConfig(beam_size=32, max_actions=6, max_conditions=2,
                        lambda_weight=math.inf, shaping_enabled=True, eta=5.0)


def arm_train_config(epochs: int) -> training.TrainConfig:
    return training.TrainConfig(
        update_spec=parse_update_spec("maver"), learning_rate=_TRENDS.margin_lr,
        epochs=epochs, search=arm_search(), seed=MODEL_SEED, dev_fraction=0.2,
        train_accuracy_sample=0)


def wide_train_config(epochs: int) -> training.TrainConfig:
    return training.TrainConfig(
        update_spec=parse_update_spec("mml"), learning_rate=0.1, epochs=epochs,
        search=wide_search(), seed=MODEL_SEED, dev_fraction=0.2, train_accuracy_sample=0)


def eval_config(search_config: SearchConfig) -> SearchConfig:
    """What `training.evaluate` searches with: score-only, unshaped."""
    return replace(search_config, lambda_weight=0.0, shaping_enabled=False)


def check_plan(workload: str, inputs: "Inputs") -> list[tuple[tuple, SearchConfig]]:
    """(corpus, search config) pairs for the output checks: the training
    search on the training corpus, and the eval search on the held-out
    corpus (on the training corpus for train-wide, which has none)."""
    if workload == "infer":
        return [(inputs.test, eval_config(arm_search()))]
    train_search = arm_search() if workload == "arm" else wide_search()
    return [(inputs.train, train_search),
            (inputs.test or inputs.train, eval_config(train_search))]


@dataclass
class Inputs:
    train: tuple | None          # (sequences, tables) or None
    test: tuple | None           # the held-out corpus, likewise
    lexicon: critique.Lexicon
    theta: ParamVector | None    # the checkpoint, for infer
    setup_s: dict[str, float] = field(default_factory=dict)
    sizes: Sizes = field(default_factory=Sizes)


def _timed(times: dict, name: str, fn, *args):
    t0 = _perf()
    out = fn(*args)
    times[name] = times.get(name, 0.0) + _perf() - t0
    return out


def _ingest(times: dict, scratch: str, sequences: int, seed: int) -> tuple:
    corpus = _timed(times, "synth.generate_corpus", synth.generate_corpus,
                    synth.SynthConfig(sequences=sequences, seed=seed))
    out = tempfile.mkdtemp(dir=scratch)
    try:
        _timed(times, "synth.write_corpus", synth.write_corpus, corpus, out)
        return _timed(times, "tables.load_dataset", tables.load_dataset,
                      os.path.join(out, "questions.tsv"), os.path.join(out, "tables"))
    finally:
        shutil.rmtree(out)


def setup(workload: str, seed: int, smoke: bool, scratch: str) -> Inputs:
    """Build the workload's inputs from its seed, the way a user would load them."""
    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    if workload == "infer" and seed + HELD_OUT_OFFSET == CHECKPOINT_CORPUS_SEED:
        raise ValueError(f"seed {seed} would evaluate on the checkpoint's training corpus")
    times: dict[str, float] = {}
    train = (_ingest(times, scratch, sizes.train_sequences, seed)
             if sizes.train_sequences else None)
    test = (_ingest(times, scratch, sizes.test_sequences, seed + HELD_OUT_OFFSET)
            if sizes.test_sequences else None)
    lexicon = _timed(times, "critique.lexicon_load", critique.default_lexicon)
    theta = (_timed(times, "scorer.checkpoint_load", ParamVector.load, CHECKPOINT)
             if workload == "infer" else None)
    return Inputs(train, test, lexicon, theta, times, sizes)


def inputs_digest(inputs: Inputs) -> str:
    """Digest of the generated questions, answers and tables."""
    h = hashlib.sha256()
    for part in (inputs.train, inputs.test):
        if part is None:
            continue
        sequences, tabs = part
        for seq in sequences:
            for ex in seq:
                h.update(repr((ex.sequence_id, ex.position, ex.question, ex.table_ref,
                               sorted(ex.gold_answer.values),
                               sorted(ex.gold_answer.coords or ()))).encode())
        for ref in sorted(tabs):
            t = tabs[ref]
            h.update(repr((ref, t.column_names, [[c.raw for c in row] for row in t.cells]))
                     .encode())
    return h.hexdigest()


@dataclass
class UnitResult:
    wall_s: float
    examples: int                 # examples searched in the unit
    search_ms: list[float]        # latency of every beam_search in the unit
    accuracy: float               # held-out exact match; best dev for train-wide
    accuracy_n: int               # examples behind the accuracy
    theta: ParamVector
    digest: str
    eval_seq_ms: list[float] = field(default_factory=list)  # per held-out sequence
    eval_examples: int = 0
    eval_s: float = 0.0
    epoch_s: list[float] = field(default_factory=list)
    sgd_s: list[float] = field(default_factory=list)
    train_examples: int = 0       # training examples per epoch
    dev_curve: list[float] = field(default_factory=list)
    audit: tuple[int, int] | None = None


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class _Clock:
    """Times each `beam_search` and each `evaluate` where `training` looks
    them up: search latency for the metrics, and the dev eval's share of
    each epoch so the epoch splits into the SGD pass and the eval. Two clock
    reads per call, on calls that take milliseconds; this is the only hook
    in an untraced run."""

    def __init__(self):
        self.search_ms: list[float] = []
        self.evaluate_s: list[float] = []

    def _wrap(self, fn, out: list, scale: float):
        def timed(*args, **kwargs):
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                out.append((_perf() - t0) * scale)
        return timed

    def __enter__(self):
        self._saved = training.beam_search, training.evaluate
        training.beam_search = self._wrap(training.beam_search, self.search_ms, 1000.0)
        training.evaluate = self._wrap(training.evaluate, self.evaluate_s, 1.0)
        return self

    def __exit__(self, *exc):
        training.beam_search, training.evaluate = self._saved


def _evaluate_each(sequences, tabs, theta, config, lexicon):
    latencies, predictions = [], []
    t0 = _perf()
    for seq in sequences:
        t = _perf()
        training.evaluate([seq], tabs, theta, config, lexicon, predictions=predictions)
        latencies.append((_perf() - t) * 1000.0)
    return latencies, predictions, _perf() - t0


def _digest(predictions, theta: ParamVector, dev_curve, audit) -> str:
    payload = {
        "predictions": [(p["sequence_id"], p["position"], p["program"], p["predicted"])
                        for p in predictions],
        "dev_curve": dev_curve,
        "weights": sorted(theta.weights.items()),
        "audit": audit,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _count(sequences) -> int:
    return sum(len(s) for s in sequences)


def run_unit(workload: str, inputs: Inputs, call=_direct) -> UnitResult:
    """One timed unit of the workload. `call(name, fn, *args)` runs the
    benchmark's own top-level calls, so the traced run can put spans on them."""
    sizes, lexicon = inputs.sizes, inputs.lexicon
    r = UnitResult(wall_s=0.0, examples=0, search_ms=[], accuracy=0.0, accuracy_n=0,
                   theta=inputs.theta, digest="")
    predictions: list[dict] = []
    t0 = _perf()
    with _Clock() as clock:
        if workload == "infer":
            config = eval_config(arm_search())
        else:
            train_seqs, train_tabs = inputs.train
            tc = (arm_train_config if workload == "arm" else wide_train_config)(sizes.epochs)
            r.theta, history = call("training.train", training.train, train_seqs,
                                    train_tabs, lexicon, tc)
            r.epoch_s = [e.wall_time for e in history.epochs]
            r.sgd_s = [w - d for w, d in zip(r.epoch_s, clock.evaluate_s)]
            r.dev_curve = history.dev_accuracies
            r.accuracy = history.best_dev_accuracy
            n = _count(train_seqs)
            r.accuracy_n = _count(training.split_sequences(
                train_seqs, tc.dev_fraction, tc.seed)[1])
            r.train_examples = n - r.accuracy_n
            r.examples += sizes.epochs * n  # each epoch: the SGD pass plus the dev eval
            config = tc.search
        if workload != "train-wide":
            test_seqs, test_tabs = inputs.test
            r.eval_seq_ms, predictions, r.eval_s = _evaluate_each(
                test_seqs, test_tabs, r.theta, config, lexicon)
            r.eval_examples = r.accuracy_n = len(predictions)
            r.examples += len(predictions)
            r.accuracy = sum(p["correct"] for p in predictions) / len(predictions)
        if workload == "arm":
            r.audit = call("training.spurious_audit", training.spurious_audit, train_seqs,
                           train_tabs, r.theta, sizes.audit_sample, MODEL_SEED, config,
                           lexicon, trials=_TRENDS.audit_trials)
            r.examples += min(sizes.audit_sample, _count(train_seqs))
    r.wall_s = _perf() - t0
    r.search_ms = clock.search_ms
    r.digest = _digest(predictions, r.theta, r.dev_curve, r.audit)
    return r

