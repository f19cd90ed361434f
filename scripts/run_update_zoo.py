#!/usr/bin/env python3
"""Train every update rule (and two hybrid mixes) under one shared config
on a small synthetic corpus, printing a one-line summary per rule."""
import argparse
import json

from denoparse.experiments import ZooConfig, update_zoo


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sequences", type=int, default=12)
    ap.add_argument("--epochs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default=None, help="optional JSON output path")
    args = ap.parse_args()

    zoo = update_zoo(ZooConfig(sequences=args.sequences, epochs=args.epochs,
                               seed=args.seed))
    for spec, entry in zoo.items():
        # stability needs 2 epochs; the report holds None below that
        stab = entry["stability"]
        print(f"{spec:16s} dev={entry['final_accuracy']:.3f} "
              f"stability={'n/a' if stab is None else format(stab, '.3f')} "
              f"skipped={entry['skipped_total']} weights={entry['n_weights']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(zoo, f, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
