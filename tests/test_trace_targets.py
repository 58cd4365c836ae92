"""The benchmark's code under perfbench/ stays in step with the library.

perfbench/layers.py names the methods and functions it traces; a rename or
deletion in the library breaks `perfbench/run.py --trace 1`. One test
installs the trace and takes it off again, so such a break shows up in the
suite instead. Another replays two workloads against the log pins in
perfbench/workloads.py, so a drift in log bytes fails here before it
reaches the benchmark.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from anoncrowd.harness.runner import run
from anoncrowd.ledger import Ledger

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_is_restored():
    layers, tracer = load("layers"), load("tracer")
    t = tracer.Tracer()
    try:
        layers.install(t)  # getattr on a missing target raises here
        patched = list(t._undo)
        assert patched
        # every transaction goes through Ledger.send, so the ledger layer sees each one
        assert (Ledger, "send") in {(owner, attr) for owner, attr, _, _ in patched}
        for owner, attr, _, _ in patched:
            assert hasattr(getattr(owner, attr), "__wrapped__"), f"{owner}.{attr} was not wrapped"
    finally:
        t.uninstall()
    for owner, attr, original, owned in patched:
        if owned:
            assert vars(owner)[attr] is original, f"{owner}.{attr} was not restored"
        else:
            assert attr not in vars(owner), f"{owner}.{attr} was not restored"


@pytest.mark.parametrize("name", ["settle_tiny31", "poll_rounds_curve254"])
def test_workload_log_matches_its_pin(tmp_path, name):
    workloads = load("workloads")
    result = run(workloads.load(name, workloads.DEFAULT_SEED, tmp_path), workloads.DEFAULT_SEED)
    log = "\n".join(result.log_lines) + "\n"
    assert hashlib.sha256(log.encode()).hexdigest() == workloads.PINS[name]
