"""Desk-scale experiments on synthetic corpora.

directional_trends: paired runs over several seeds checking the expected
orderings (shaping helps the margin learner and lowers the spurious
count, averaging violations is steadier than penalizing only the most
violating program, off-policy sampling beats on-policy single-sample
updates). Training searches are score-guided, with the critique term in
the ranking for the shaped arms; accuracy is exact match on a held-out
synthetic test corpus.

update_zoo: every canonical update rule plus hybrid mixes trained under
one shared configuration, mainly to prove the whole registry runs.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .critique import default_lexicon
from .scorer import left_sum
from .search import SearchConfig
from .synth import SynthConfig, SynthCorpus, generate_corpus
from .training import TrainConfig, evaluate, run_report, spurious_audit, stability, train
from .updates import CANONICAL_SPECS, parse_update_spec


@dataclass
class TrendsConfig:
    n_seeds: int = 5
    sequences: int = 50
    test_sequences: int = 30
    corpus_seed: int = 7
    epochs: int = 8
    beam_size: int = 12
    eta: float = 5.0
    # policy-gradient arms need hotter steps: their updates are scaled by
    # rewards and importance ratios
    margin_lr: float = 0.1
    pg_lr: float = 0.3
    audit_sample: int = 40
    audit_trials: int = 6


def _search(cfg: TrendsConfig, shaping: bool) -> SearchConfig:
    return SearchConfig(beam_size=cfg.beam_size, max_actions=4, max_conditions=2,
                        lambda_weight=0.0, shaping_enabled=shaping, eta=cfg.eta)


def _run(corpus: SynthCorpus, test: SynthCorpus, lexicon, algo: str, shaping: bool,
         seed: int, lr: float, cfg: TrendsConfig, audit: bool) -> dict:
    tc = TrainConfig(update_spec=parse_update_spec(algo), learning_rate=lr,
                     epochs=cfg.epochs, search=_search(cfg, shaping), seed=seed,
                     dev_fraction=0.2, train_accuracy_sample=0)
    theta, history = train(corpus.sequences, corpus.tables, lexicon, tc)
    out = {
        "algo": algo,
        "shaping": shaping,
        "seed": seed,
        "accuracy": evaluate(test.sequences, test.tables, theta, tc.search, lexicon),
        "stability": stability(history),
        "dev_curve": history.dev_accuracies,
    }
    if audit:
        s, t = spurious_audit(corpus.sequences, corpus.tables, theta,
                              cfg.audit_sample, seed, tc.search, lexicon,
                              trials=cfg.audit_trials)
        out["spurious"] = s
        out["audited"] = t
    return out


# the arms of one seed: name, update spec, shaping, the TrendsConfig field
# holding the learning rate, and whether to audit for spurious programs.
# The on-policy/off-policy comparison runs unshaped: sampling policy
# quality is exactly what it isolates, and shaping would hand both arms a
# reward-rich candidate pool.
_ARMS = (
    ("maver_shaped", "maver", True, "margin_lr", True),
    ("maver_plain", "maver", False, "margin_lr", True),
    ("mmr_shaped", "mmr", True, "margin_lr", False),
    ("reinforce", "reinforce", False, "pg_lr", False),
    ("offpg", "offpg", False, "pg_lr", False),
)


def directional_trends(cfg: TrendsConfig | None = None) -> dict:
    cfg = cfg or TrendsConfig()
    t0 = time.perf_counter()
    corpus = generate_corpus(SynthConfig(sequences=cfg.sequences, seed=cfg.corpus_seed))
    test = generate_corpus(SynthConfig(sequences=cfg.test_sequences,
                                       seed=cfg.corpus_seed + 1000))
    lexicon = default_lexicon()
    seeds = list(range(1, cfg.n_seeds + 1))
    per_seed = [{name: _run(corpus, test, lexicon, algo, shaping, seed,
                            getattr(cfg, lr), cfg, audit)
                 for name, algo, shaping, lr, audit in _ARMS}
                for seed in seeds]

    def mean(key):
        return left_sum(r[key]["accuracy"] for r in per_seed) / len(per_seed)

    audit_wins = sum(r["maver_shaped"]["spurious"] <= r["maver_plain"]["spurious"]
                     for r in per_seed)
    stability_wins = sum(r["maver_shaped"]["stability"] <= r["mmr_shaped"]["stability"]
                         for r in per_seed)
    n = len(seeds)
    checks = {
        "shaping_improves_maver": {
            "maver_shaped_mean": mean("maver_shaped"),
            "maver_plain_mean": mean("maver_plain"),
            "passed": mean("maver_shaped") > mean("maver_plain"),
        },
        "shaping_reduces_spurious": {
            "seeds_passed": audit_wins, "seeds": n,
            "passed": audit_wins >= math.ceil(0.8 * n),
        },
        "averaged_violations_steadier_than_most_violating": {
            "seeds_passed": stability_wins, "seeds": n,
            "passed": stability_wins * 2 > n,
        },
        "offpolicy_beats_single_sample": {
            "offpg_mean": mean("offpg"), "reinforce_mean": mean("reinforce"),
            "passed": mean("offpg") > mean("reinforce"),
        },
    }
    return {
        "config": {"n_seeds": cfg.n_seeds, "sequences": cfg.sequences,
                   "test_sequences": cfg.test_sequences,
                   "corpus_seed": cfg.corpus_seed, "epochs": cfg.epochs,
                   "beam_size": cfg.beam_size, "margin_lr": cfg.margin_lr,
                   "pg_lr": cfg.pg_lr},
        "per_seed": per_seed,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks.values()),
        "elapsed_seconds": time.perf_counter() - t0,
    }


DEFAULT_ZOO_SPECS = CANONICAL_SPECS + ("mix:mmr,mml", "mix:offpg,mmr")


@dataclass
class ZooConfig:
    sequences: int = 12
    corpus_seed: int = 3
    seed: int = 1
    epochs: int = 2
    beam_size: int = 8
    specs: tuple[str, ...] = DEFAULT_ZOO_SPECS
    shaping: bool = True


def update_zoo(cfg: ZooConfig | None = None) -> dict:
    """Train each update spec under one shared config; returns per-spec
    metrics reports."""
    cfg = cfg or ZooConfig()
    corpus = generate_corpus(SynthConfig(sequences=cfg.sequences, seed=cfg.corpus_seed))
    lexicon = default_lexicon()
    search = SearchConfig(beam_size=cfg.beam_size, max_actions=4, max_conditions=2,
                          lambda_weight=0.0, shaping_enabled=cfg.shaping)
    out = {}
    for spec in cfg.specs:
        tc = TrainConfig(update_spec=parse_update_spec(spec), epochs=cfg.epochs,
                         search=search, seed=cfg.seed, train_accuracy_sample=0)
        theta, history = train(corpus.sequences, corpus.tables, lexicon, tc)
        out[spec] = run_report(history, theta)
    return out
