import gc
import importlib.util
import os
import subprocess
import sys

from denoparse import programs, scorer, search, training, updates

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_update_zoo_script_runs_a_single_epoch():
    # one epoch leaves stability undefined; the summary must still print
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_update_zoo.py"),
         "--sequences", "3", "--epochs", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8
    assert all("stability=n/a" in line for line in lines)


def test_bench_tracer_patches_and_restores_the_package():
    # `bench/run.py --trace 1` wraps package names in place; install fails
    # if one is gone, and uninstall must put every original back
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = (programs, scorer.ParamVector, search, training, updates)
    before = [dict(vars(o)) for o in owners]
    callbacks = list(gc.callbacks)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        now = vars(owner)
        assert now.keys() == names.keys()
        assert all(now[k] is names[k] for k in names), owner
    assert gc.callbacks == callbacks
