"""Train the checkpoint the `infer` workload evaluates.

  python3 bench/make_checkpoint.py

Trains the shaped-MAVER arm of directional_trends (the `arm` workload's
configuration, seed 1) on the trends corpus (50 sequences, corpus seed 7)
and writes bench/infer_checkpoint.tsv. Training is deterministic, so the
committed file is what this script reproduces; bench/selftest.py checks it.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from denoparse import critique, synth, training  # noqa: E402

import workloads  # noqa: E402


def train_checkpoint():
    corpus = synth.generate_corpus(synth.SynthConfig(
        sequences=workloads.SIZES["arm"].train_sequences,
        seed=workloads.CHECKPOINT_CORPUS_SEED))
    config = workloads.arm_train_config(workloads.SIZES["arm"].epochs)
    theta, _ = training.train(corpus.sequences, corpus.tables,
                              critique.default_lexicon(), config)
    return theta


if __name__ == "__main__":
    train_checkpoint().save(workloads.CHECKPOINT)
    print(f"wrote {workloads.CHECKPOINT}")
