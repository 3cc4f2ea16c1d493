"""The benchmark's traced pass (``perfbench/tracing.py``) replaces package
entry points by name; every name it patches must exist, each must be
restored when the pass ends, and the gradient oracles must be entered
once per round, so that gradient time lands in their layer."""

import importlib.util
import os

from deedsim.engine import run_deed_gd
from deedsim.problems import make_linreg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer():
    """A fresh ``Tracer`` from the benchmark's module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_traced_entry_point_exists_and_is_restored():
    tracer = _tracer()
    patches = [(owner, attr) for owner, attr, _, _ in tracer.patches()]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in patches if attr not in vars(owner)]
    assert not missing, f"perfbench traces entry points that no longer exist: {missing}"
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr in patches]
    problem = make_linreg(seed=1, d=4, N=3, target_kappa=2.0, rows_per_node=5,
                          interpolating=False, noise_scale=1.0)
    with tracer.installed():
        assert all(vars(owner)[attr] is not raw for owner, attr, raw in saved)
        run_deed_gd(problem, None, 0.9, 1.0, 7)
    assert all(vars(owner)[attr] is raw for owner, attr, raw in saved)
    assert tracer.calls["problems.grad"] == 7  # one batched call per round
    assert tracer.calls["quantizer.quantize"] == 7 * (3 + 1)
