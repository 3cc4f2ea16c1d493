"""The measuring scripts under ``tools/`` keep working on this tree."""

import importlib.util
import os

from deedsim import engine
from deedsim.problems import make_linreg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool(name: str):
    """A script of ``tools/``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_round_cost_cases_run_one_round_with_messages_stubbed(monkeypatch):
    # A stub stream that lacks what the row draw reads fails here, not
    # only when someone times a round.
    round_cost = _tool("round_cost")
    for name in ("quantize", "stream", "_participants"):
        monkeypatch.setattr(engine, name, getattr(engine, name))
    round_cost.stub_messages(engine)
    runs = round_cost.cases(engine, make_linreg, 1)
    assert sorted(runs) == sorted(round_cost.CASES)
    for run in runs.values():
        run()


def _pairs(parent, change):
    return [{"parent": {"run_s": p}, "change": {"run_s": c}} for p, c in zip(parent, change)]


def test_bench_pairs_tests_quartiles_only_from_ten_pairs():
    bench_pairs = _tool("bench_pairs")
    rules = {"run_s": ("lower", 0.25)}
    few = bench_pairs.summarize(_pairs([1.0, 1.01, 1.02], [0.5, 0.51, 0.52]), rules)["run_s"]
    assert few["median_gap_exceeds_parent_iqr"] is None
    assert few["change_better_in"] == "3/3" and few["reading"] == "within bound"
    parent = [1.0 + 0.01 * k for k in range(10)]
    ten = bench_pairs.summarize(_pairs(parent, [x - 0.5 for x in parent]), rules)["run_s"]
    assert ten["median_gap_exceeds_parent_iqr"] is True and ten["reading"] == "gain"
    level = bench_pairs.summarize(_pairs(parent, parent[::-1]), rules)["run_s"]
    assert level["median_gap_exceeds_parent_iqr"] is False
