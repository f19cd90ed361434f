"""Training loop: per example, search for candidates with the (optionally
shaped) exploration policy, then apply the generalized update with plain
SGD. Dev accuracy is tracked per epoch; the returned parameters are the
best-dev-epoch snapshot, optionally refit on train+dev for that many
epochs. Evaluation runs with shaping off and score-only ranking, feeding
each question's predicted answer to the next question in its sequence.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, field, replace

from .critique import Lexicon
from .programs import CONDITION_KINDS, is_spurious
from .scorer import RECALL_FEATURE, ParamVector, left_sum
from .search import SearchConfig, beam_search
from .tables import EMPTY_ANSWER, AnswerSet, Example, Table, exact_match
from .updates import UpdateSpec, generalized_update, make_context, parse_update_spec


class TrainingError(Exception):
    pass


# weight initialization: a coverage prior on the recall feature and a small
# per-condition cost (TrainConfig.condition_prior), so the very first
# reference programs are short ones that mention what the question
# mentions, instead of whatever serializes first among score ties
RECALL_PRIOR = -1.0


@dataclass
class TrainConfig:
    update_spec: UpdateSpec = field(default_factory=lambda: parse_update_spec("maver"))
    learning_rate: float = 0.1
    epochs: int = 30
    search: SearchConfig = field(default_factory=SearchConfig)
    seed: int = 0
    dev_fraction: float = 0.2
    refit: bool = False
    model_shaping: bool = False
    grad_clip: float | None = None  # optional L2 clip (10 is the safe choice)
    # initial weight of each condition kind; see RECALL_PRIOR
    condition_prior: float = -0.1
    # dev accuracy is exact; train accuracy is estimated on this many
    # sequences to keep epochs cheap (0 = skip)
    train_accuracy_sample: int = 50

    def validate(self):
        if self.learning_rate < 0 or not math.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be a non-negative finite number")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (0.0 < self.dev_fraction < 1.0):
            raise ValueError("dev_fraction must be in (0, 1)")
        if self.grad_clip is not None and not (0 < self.grad_clip < math.inf):
            raise ValueError("grad_clip must be None or a finite number > 0")
        if self.train_accuracy_sample < 0:
            raise ValueError("train_accuracy_sample must be >= 0")
        self.search.validate()


@dataclass
class EpochStats:
    dev_accuracy: float
    train_accuracy: float | None
    skipped: int
    zero_updates: int
    wall_time: float
    # means over the SGD pass's searches: CandidateSet.ranked, whether the
    # candidate set holds a compatible program, its size, and its
    # compatible candidates
    ranked_per_search: float = 0.0
    compatible_rate: float = 0.0
    candidates_per_search: float = 0.0
    compatible_per_search: float = 0.0


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def dev_accuracies(self) -> list[float]:
        return [e.dev_accuracy for e in self.epochs]

    @property
    def best_dev_accuracy(self) -> float:
        return self.epochs[self.best_epoch].dev_accuracy

    def to_dict(self) -> dict:
        return {"best_epoch": self.best_epoch,
                "epochs": [asdict(e) for e in self.epochs]}


def run_report(history: TrainHistory, theta: ParamVector) -> dict:
    """The summary of one training run; stability needs 2 epochs."""
    return {
        "history": history.to_dict(),
        "final_accuracy": history.best_dev_accuracy,
        "stability": stability(history) if len(history.epochs) >= 2 else None,
        "skipped_total": sum(e.skipped for e in history.epochs),
        "zero_updates_total": sum(e.zero_updates for e in history.epochs),
        "n_weights": len(theta),
    }


def split_sequences(sequences, dev_fraction: float, seed: int):
    """Dev split by whole sequences, so follow-up context never leaks."""
    if len(sequences) < 2:
        raise TrainingError(f"a dev split needs at least 2 sequences, "
                            f"got {len(sequences)}")
    rng = random.Random(seed)
    idx = list(range(len(sequences)))
    rng.shuffle(idx)
    n_dev = min(len(sequences) - 1, max(1, round(dev_fraction * len(sequences))))
    dev_idx = sorted(idx[:n_dev])
    train_idx = sorted(idx[n_dev:])
    return [sequences[i] for i in train_idx], [sequences[i] for i in dev_idx]


def with_gold_context(sequences) -> list[tuple[Example, AnswerSet | None]]:
    """Every example with its sequence's gold previous answer."""
    flat = []
    for seq in sequences:
        for ex in seq:
            prev = seq[ex.position - 1].gold_answer if ex.position >= 1 else None
            flat.append((ex, prev))
    return flat


def _clip(delta: dict, limit: float | None) -> dict:
    if limit is None or not delta:
        return delta
    norm = math.sqrt(left_sum(v * v for v in delta.values()))
    if norm <= limit:
        return delta
    scale = limit / norm
    return {f: v * scale for f, v in delta.items()}


def _sgd_pass(flat, tables, lexicon, config: TrainConfig, theta: ParamVector,
              rng: random.Random) -> tuple[int, int, dict[str, float]]:
    """One epoch of per-example updates; returns (skipped, zero_updates,
    the `EpochStats` means over its searches by field name)."""
    skipped = zero = ranked = found = candidates = compatible = 0
    order = list(range(len(flat)))
    rng.shuffle(order)
    shaping_eta = config.search.eta if config.search.shaping_enabled else None
    model_eta = config.search.eta if config.model_shaping else None
    for j in order:
        ex, prev = flat[j]
        table = tables[ex.table_ref]
        K = beam_search(ex, table, theta, lexicon, config.search, prev)
        n_compatible = len(K.compatible)
        ranked += K.ranked
        found += n_compatible > 0
        candidates += len(K)
        compatible += n_compatible
        if not K:
            skipped += 1
            continue
        ctx = make_context(K, rng, model_shaping_eta=model_eta,
                           shaping_eta=shaping_eta)
        try:
            res = generalized_update(config.update_spec, ctx)
            theta.add_scaled(_clip(res.delta, config.grad_clip), config.learning_rate)
        except ValueError as e:
            raise TrainingError(
                f"epoch update failed at example {ex.sequence_id}:{ex.position}: {e}")
        skipped += res.skipped
        zero += res.zero
    n = len(flat) or 1
    return skipped, zero, {"ranked_per_search": ranked / n, "compatible_rate": found / n,
                           "candidates_per_search": candidates / n,
                           "compatible_per_search": compatible / n}


def _initial_theta(config: TrainConfig) -> ParamVector:
    theta = ParamVector({RECALL_FEATURE: RECALL_PRIOR})
    if config.condition_prior:
        for kind in CONDITION_KINDS:
            theta.weights[f"act={kind}"] = config.condition_prior
    return theta


def train(sequences, tables: dict[str, Table], lexicon: Lexicon | None,
          config: TrainConfig) -> tuple[ParamVector, TrainHistory]:
    config.validate()
    if not sequences:
        raise ValueError("no examples")
    train_seqs, dev_seqs = split_sequences(sequences, config.dev_fraction, config.seed)
    flat = with_gold_context(train_seqs)
    theta = _initial_theta(config)
    rng = random.Random(config.seed)

    sample = config.train_accuracy_sample
    pick = random.Random(config.seed ^ 0x5EED)
    acc_seqs = (train_seqs if len(train_seqs) <= sample
                else pick.sample(train_seqs, sample))

    history = TrainHistory()
    best_theta = theta.copy()
    best_acc = -1.0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        try:
            skipped, zero, means = _sgd_pass(flat, tables, lexicon, config, theta, rng)
        except TrainingError as e:
            raise TrainingError(f"epoch {epoch}: {e}")
        dev_acc = evaluate(dev_seqs, tables, theta, config.search, lexicon,
                           model_shaping=config.model_shaping)
        train_acc = (evaluate(acc_seqs, tables, theta, config.search, lexicon,
                              model_shaping=config.model_shaping)
                     if acc_seqs else None)
        history.epochs.append(EpochStats(dev_acc, train_acc, skipped, zero,
                                         time.perf_counter() - t0, **means))
        if dev_acc > best_acc:
            best_acc = dev_acc
            best_theta = theta.copy()
            history.best_epoch = epoch

    if config.refit:
        # retrain from scratch on train+dev for the chosen number of epochs,
        # re-seeded identically
        refit_theta = _initial_theta(config)
        refit_rng = random.Random(config.seed)
        refit_flat = with_gold_context(sequences)
        for _ in range(history.best_epoch + 1):
            _sgd_pass(refit_flat, tables, lexicon, config, refit_theta, refit_rng)
        return refit_theta, history
    return best_theta, history


def evaluate(sequences, tables: dict[str, Table], theta: ParamVector,
             search_config: SearchConfig, lexicon: Lexicon | None = None,
             model_shaping: bool = False,
             predictions: list | None = None) -> float:
    """Exact-match accuracy of the argmax-scored program per example.

    Inference never sees the gold answer: ranking is score-only (the
    critique term joins it only under the model-shaping ablation), and
    follow-up questions consume the previous *predicted* answer. Only the
    top program is read, so each search pools one completed program
    (`keep=1`), which is the full pool's first."""
    if not sequences or not any(sequences):
        raise ValueError("no examples")
    eval_cfg = replace(search_config, lambda_weight=0.0,
                       shaping_enabled=model_shaping)
    correct = total = 0
    for seq in sequences:
        prev: AnswerSet | None = None
        for ex in seq:
            table = tables[ex.table_ref]
            prev_in = (prev if prev is not None else EMPTY_ANSWER) if ex.position >= 1 else None
            K = beam_search(ex, table, theta, lexicon, eval_cfg, prev_in, keep=1)
            if K:
                top = K.entries[0]
                pred, program_ser = top.answer, top.serialization
            else:
                pred, program_ser = EMPTY_ANSWER, None
            ok = exact_match(pred, ex.gold_answer)
            correct += ok
            total += 1
            if predictions is not None:
                predictions.append({
                    "sequence_id": ex.sequence_id, "position": ex.position,
                    "program": program_ser,
                    "predicted": sorted(pred.values),
                    "gold": sorted(ex.gold_answer.values),
                    "correct": bool(ok),
                })
            prev = pred
    return correct / total


def stability(history: TrainHistory) -> float:
    """Mean absolute successive-epoch difference of dev accuracy."""
    accs = history.dev_accuracies
    if len(accs) < 2:
        raise ValueError("stability needs at least 2 recorded epochs")
    return left_sum(abs(b - a) for a, b in zip(accs, accs[1:])) / (len(accs) - 1)


def spurious_audit(sequences, tables: dict[str, Table], theta: ParamVector,
                   sample_size: int, seed: int, search_config: SearchConfig,
                   lexicon: Lexicon | None = None, trials: int = 8) -> tuple[int, int]:
    """Sample examples, search with the training policy, and check whether
    the top-ranked compatible program survives answer-preserving row
    permutations. Returns (spurious_count, examples_with_a_compatible_top)."""
    if sample_size <= 0:
        return 0, 0
    pool = with_gold_context(sequences)
    rng = random.Random(seed)
    picked = pool if len(pool) <= sample_size else rng.sample(pool, sample_size)
    spurious = total = 0
    for ex, prev in picked:
        table = tables[ex.table_ref]
        K = beam_search(ex, table, theta, lexicon, search_config, prev)
        top = next((c for c in K.entries if c.compatible), None)
        if top is None:
            continue
        total += 1
        spurious += is_spurious(top.program, table, ex.gold_answer,
                                trials=trials, rng_seed=rng.randrange(1 << 30),
                                prev_answer=prev)
    return spurious, total
