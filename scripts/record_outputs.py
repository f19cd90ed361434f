#!/usr/bin/env python3
"""Record the experiment outputs that the acceptance tests hold fixed.

  PYTHONPATH=src python3 scripts/record_outputs.py

writes, as canonical JSON (sorted keys, floats as their repr):

  tests/expected_trends.json    the `per_seed` and `checks` of
                                directional_trends(TrendsConfig(n_seeds=5,
                                sequences=50)), which criterion 6 computes
  tests/expected_update_zoo.json
                                the update_zoo() reports without their
                                wall times, which criterion 7 computes

The two tests compare their results with these files, so a change that
alters the outputs fails them. Re-run this script after a deliberate
output change and commit the files with that change. The trends take
about eight minutes on a 2-core machine.
"""
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRENDS_PATH = os.path.join(ROOT, "tests", "expected_trends.json")
ZOO_PATH = os.path.join(ROOT, "tests", "expected_update_zoo.json")


def canonical(obj) -> str:
    """obj as JSON text with sorted keys; `json` writes a float as its repr."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def trends_json(result: dict) -> str:
    """The kept part of a directional_trends result."""
    return canonical({"per_seed": result["per_seed"], "checks": result["checks"]})


def zoo_json(zoo: dict) -> str:
    """The update_zoo reports, each epoch without its wall time."""
    kept = {}
    for spec, report in zoo.items():
        history = dict(report["history"], epochs=[
            {k: v for k, v in e.items() if k != "wall_time"}
            for e in report["history"]["epochs"]])
        kept[spec] = dict(report, history=history)
    return canonical(kept)


def main():
    from denoparse.experiments import TrendsConfig, directional_trends, update_zoo

    for path, text in ((ZOO_PATH, zoo_json(update_zoo())),
                       (TRENDS_PATH, trends_json(
                           directional_trends(TrendsConfig(n_seeds=5, sequences=50))))):
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
