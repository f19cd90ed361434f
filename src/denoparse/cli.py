"""Command-line surface: train, eval, audit, synth, dump-beams.

Every flag has a config-file equivalent (key=value lines, keys are the
flag names without the leading dashes); explicit flags override the file,
the file overrides defaults. --print-config emits the resolved
configuration and exits.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields

from .critique import LexiconError, default_lexicon, load_lexicon
from .scorer import ParamVector
from .search import SearchConfig, beam_search, dump_record
from .synth import SynthConfig, generate_corpus, measure_ambiguity, write_corpus
from .tables import IngestionError, load_dataset
from .training import (EpochStats, TrainConfig, TrainingError, evaluate, run_report,
                       spurious_audit, train, with_gold_context)
from .updates import UpdateSpecError, parse_update_spec

_BOOL = {"on": True, "off": False}


def _bool_flag(v: str) -> str:
    if v not in _BOOL:
        raise argparse.ArgumentTypeError(f"expected on/off, got {v!r}")
    return v


def _lambda(v: str) -> float:
    return math.inf if v.strip().lower() in ("inf", "infinity") else float(v)


# name -> (type, default, help); shared across parser construction and
# config-file validation
_COMMON = {
    "config": (str, None, "config file with key=value lines (flags override it)"),
    "print-config": (_bool_flag, "off", "print the resolved config and exit"),
}
_DATA = {
    "data": (str, None, "question TSV (id, annotator, position, question, table_file, answer_coordinates, answer_text)"),
    "tables": (str, None, "directory of CSV tables"),
    "lexicon": (str, "default", "lexicon file, 'default' for the packaged one, 'none' to disable"),
}
_SEARCH = {
    "beam": (int, 32, "beam size"),
    "max-actions": (int, 6, "maximum actions per program, Stop included"),
    "max-conditions": (int, 2, "maximum conditions per program"),
    "lambda": (_lambda, math.inf, "reward weight in the exploration policy; 'inf' ranks by reward with score tie-break"),
    "shaping": (_bool_flag, "off", "shape the search with the critique policy"),
    "eta": (float, 5.0, "critique confidence"),
}
_OPTIONS = {
    "train": {
        **_DATA, **_SEARCH,
        "algo": (str, "maver", "update spec: mml, merit:<beta|inf>, reinforce, offpg, mmr, maver, mix:<intensity>,<competing>"),
        "lr": (float, 0.1, "SGD learning rate"),
        "epochs": (int, 30, "training epochs"),
        "seed": (int, 0, "random seed"),
        "dev-fraction": (float, 0.2, "fraction of sequences held out for dev"),
        "refit": (_bool_flag, "off", "retrain on train+dev for the best epoch count"),
        "model-shaping": (_bool_flag, "off", "ablation: critique joins the model score at train and test"),
        "grad-clip": (float, None, "L2 clip for per-example updates (e.g. 10)"),
        "train-acc-sample": (int, 50, "sequences sampled for the train-accuracy curve (0 skips it)"),
        "audit-sample": (int, 0, "examples to audit for spurious programs after training"),
        "out": (str, None, "checkpoint path (feature<TAB>weight lines)"),
        "report": (str, None, "metrics report path (.json; a flat .csv is written alongside)"),
        **_COMMON,
    },
    "eval": {
        **_DATA, **_SEARCH,
        "checkpoint": (str, None, "checkpoint to evaluate"),
        "model-shaping": (_bool_flag, "off", "rank with score + eta*critique (ablation)"),
        "predictions": (str, None, "optional per-example predictions JSONL"),
        **_COMMON,
    },
    "audit": {
        **_DATA, **_SEARCH,
        "checkpoint": (str, None, "checkpoint to audit"),
        "sample": (int, 100, "number of training examples to audit"),
        "seed": (int, 0, "sampling seed"),
        "trials": (int, 8, "row permutations tried per program"),
        **_COMMON,
    },
    "synth": {
        "out": (str, None, "output directory"),
        "sequences": (int, 50, "number of question sequences"),
        "seed": (int, 7, "generator seed"),
        "min-rows": (int, 5, "minimum table rows"),
        "max-rows": (int, 7, "maximum table rows"),
        **_COMMON,
    },
    "dump-beams": {
        **_DATA, **_SEARCH,
        "checkpoint": (str, None, "checkpoint to score with (omit for zero weights)"),
        "out": (str, None, "output JSONL path"),
        **_COMMON,
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denoparse",
        description="learn table-question programs from answers alone")
    subs = parser.add_subparsers(dest="command", required=True)
    for cmd, options in _OPTIONS.items():
        sub = subs.add_parser(cmd)
        for name, (typ, _, help_text) in options.items():
            sub.add_argument(f"--{name}", dest=name.replace("-", "_"), type=typ,
                             default=argparse.SUPPRESS, help=help_text)
    return parser


def _read_config_file(path: str, options: dict) -> dict:
    values = {}
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {i + 1}: expected key=value")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in options or key in ("config", "print-config"):
                raise ValueError(f"{path}: line {i + 1}: unknown key {key!r}")
            try:
                values[key.replace("-", "_")] = options[key][0](raw)
            except (ValueError, argparse.ArgumentTypeError) as e:
                raise ValueError(f"{path}: line {i + 1}: {key}: {e}") from None
    return values


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each separate value that starts with "-" and parses as a
    float joined to the flag before it ("--grad-clip", "-1e9" becomes
    "--grad-clip=-1e9"). Argparse takes only -N and -N.N for negative
    numbers, and would read -1e9 as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def _resolve_args(argv) -> argparse.Namespace | int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    explicit = vars(_build_parser().parse_args(argv))
    command = explicit.pop("command")
    options = _OPTIONS[command]
    resolved = {name.replace("-", "_"): default for name, (_, default, _h) in options.items()}
    config_path = explicit.get("config")
    if config_path:
        resolved.update(_read_config_file(config_path, options))
    resolved.update(explicit)
    ns = argparse.Namespace(command=command, **resolved)
    if _BOOL.get(getattr(ns, "print_config", "off"), False):
        for name in sorted(options):
            print(f"{name}={getattr(ns, name.replace('-', '_'))}")
        return 0
    return ns


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required")


def _load_lexicon_arg(args):
    if args.lexicon == "none":
        return None
    if args.lexicon in (None, "default"):
        return default_lexicon()
    return load_lexicon(args.lexicon)


def _search_config(args) -> SearchConfig:
    return SearchConfig(beam_size=args.beam, max_actions=args.max_actions,
                        max_conditions=args.max_conditions,
                        lambda_weight=getattr(args, "lambda"),
                        shaping_enabled=_BOOL[args.shaping], eta=args.eta)


def _write_report(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    csv_path = os.path.splitext(path)[0] + ".csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        names = [f.name for f in fields(EpochStats)]
        w.writerow(["epoch", *names])
        for i, e in enumerate(report["history"]["epochs"]):
            w.writerow([i, *(f"{e[n]:.3f}" if n == "wall_time" else e[n] for n in names)])


def cmd_train(args) -> int:
    _require(args, "data", "tables", "out")
    if args.report and args.report.endswith(".csv"):
        raise ValueError(f"--report {args.report}: give the .json path; "
                         "the .csv is written alongside it")
    sequences, tables = load_dataset(args.data, args.tables)
    lexicon = _load_lexicon_arg(args)
    config = TrainConfig(
        update_spec=parse_update_spec(args.algo), learning_rate=args.lr,
        epochs=args.epochs, search=_search_config(args), seed=args.seed,
        dev_fraction=args.dev_fraction, refit=_BOOL[args.refit],
        model_shaping=_BOOL[args.model_shaping], grad_clip=args.grad_clip,
        train_accuracy_sample=args.train_acc_sample)
    theta, history = train(sequences, tables, lexicon, config)
    theta.save(args.out)
    report = {"algo": args.algo, "seed": args.seed, "spurious_audit": None,
              **run_report(history, theta)}
    if args.audit_sample > 0:
        s, t = spurious_audit(sequences, tables, theta, args.audit_sample,
                              args.seed, config.search, lexicon)
        report["spurious_audit"] = {"spurious": s, "total": t}
    if args.report:
        _write_report(args.report, report)
    print(f"best_epoch\t{history.best_epoch}")
    print(f"dev_accuracy\t{history.best_dev_accuracy:.4f}")
    print(f"checkpoint\t{args.out}")
    return 0


def cmd_eval(args) -> int:
    _require(args, "data", "tables", "checkpoint")
    sequences, tables = load_dataset(args.data, args.tables)
    theta = ParamVector.load(args.checkpoint)
    lexicon = _load_lexicon_arg(args)
    predictions = [] if args.predictions else None
    acc = evaluate(sequences, tables, theta, _search_config(args), lexicon,
                   model_shaping=_BOOL[args.model_shaping], predictions=predictions)
    if args.predictions:
        with open(args.predictions, "w", encoding="utf-8") as f:
            for rec in predictions:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"accuracy\t{acc:.4f}")
    return 0


def cmd_audit(args) -> int:
    _require(args, "data", "tables", "checkpoint")
    sequences, tables = load_dataset(args.data, args.tables)
    theta = ParamVector.load(args.checkpoint)
    lexicon = _load_lexicon_arg(args)
    s, t = spurious_audit(sequences, tables, theta, args.sample, args.seed,
                          _search_config(args), lexicon, trials=args.trials)
    print(f"spurious\t{s}")
    print(f"audited\t{t}")
    return 0


def cmd_synth(args) -> int:
    _require(args, "out")
    cfg = SynthConfig(sequences=args.sequences, seed=args.seed,
                      min_rows=args.min_rows, max_rows=args.max_rows)
    corpus = generate_corpus(cfg)
    write_corpus(corpus, args.out)
    ambiguity = measure_ambiguity(corpus)
    n = len(corpus.flat_examples())
    print(f"sequences\t{len(corpus.sequences)}")
    print(f"examples\t{n}")
    print(f"ambiguous_fraction\t{ambiguity:.3f}")
    print(f"out\t{args.out}")
    return 0


def cmd_dump_beams(args) -> int:
    _require(args, "data", "tables", "out")
    sequences, tables = load_dataset(args.data, args.tables)
    theta = ParamVector.load(args.checkpoint) if args.checkpoint else ParamVector()
    lexicon = _load_lexicon_arg(args)
    search_config = _search_config(args)
    with open(args.out, "w", encoding="utf-8") as f:
        for ex, prev in with_gold_context(sequences):
            K = beam_search(ex, tables[ex.table_ref], theta, lexicon, search_config, prev)
            f.write(json.dumps(dump_record(ex, K), sort_keys=True) + "\n")
    print(f"out\t{args.out}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "audit": cmd_audit,
    "synth": cmd_synth,
    "dump-beams": cmd_dump_beams,
}


def main(argv=None) -> int:
    try:
        ns = _resolve_args(argv)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if isinstance(ns, int):
        return ns
    try:
        return _COMMANDS[ns.command](ns)
    except (IngestionError, TrainingError, UpdateSpecError, LexiconError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
