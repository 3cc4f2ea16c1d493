"""The measuring scripts under ``tools/`` keep working on this tree."""

import importlib.util
import os

import numpy as np

from deedsim import engine, quantizer, seeding
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
    for name in ("quantize", "stream", "block_keys", "_participants"):
        monkeypatch.setattr(engine, name, getattr(engine, name))
    round_cost.stub_messages(engine)
    # Each message case sends one real message a round, of its dimension,
    # under a zero budget in the lossless case only.  Only the stream case
    # builds a stream from its labels: run 0's uplink of node 0 at round 0.
    sent, built = [], []
    real = quantizer.quantize
    monkeypatch.setattr(quantizer, "quantize",
                        lambda w, spec, rng: sent.append((spec, real(w, spec, rng))))
    real_stream = seeding.stream
    monkeypatch.setattr(seeding, "stream",
                        lambda *labels: built.append(labels) or real_stream(*labels))
    runs = round_cost.cases(engine, make_linreg, 1)
    assert sorted(runs) == sorted(round_cost.CASES)
    for name, run in runs.items():
        sent.clear()
        built.clear()
        run()
        assert built == ([(1, 0, 0, 0, seeding.UPLINK)] if name == "stream by labels" else [])
        if not name.startswith("message"):
            assert sent == []
            continue
        ((spec, msg),) = sent
        assert spec.dim == int(name.split("d=")[1].split()[0])
        assert spec.lossless == ("lossless" in name)
        assert (msg.grid is None) == spec.lossless and msg.decoded.any()


def test_round_cost_on_grid_message_has_every_other_coordinate_on_the_grid(monkeypatch):
    # The on-grid case times quantize's full path: its even coordinates
    # decode back to themselves and take no draw; the plain case has none.
    round_cost = _tool("round_cost")
    sent = []
    monkeypatch.setattr(quantizer, "quantize", lambda w, spec, rng: sent.append((w, spec)))
    for on_grid in (False, True):
        round_cost._messages(20, 5, on_grid=on_grid)()
    assert len(sent) == 10
    for k, (w, spec) in enumerate(sent):
        lo = np.floor(w / spec.grid_step)
        on = (lo * spec.grid_step == w) | ((lo + 1.0) * spec.grid_step == w)
        assert on.tolist() == [k >= 5 and j % 2 == 0 for j in range(20)]
    monkeypatch.undo()
    for k, (w, spec) in enumerate(sent):
        rng, twin = (np.random.Generator(np.random.Philox(k)) for _ in range(2))
        quantizer.quantize(w, spec, rng)
        twin.random(10 if k >= 5 else 20)
        assert rng.random() == twin.random()


def test_round_cost_row_keys_build_every_lane_stream_across_a_block_edge(monkeypatch):
    # The row keys case builds a fed-local round's 30 x 8 row-sample
    # streams, run-major as _lane_grads does, over rounds that cross the
    # edge of key blocks 0 and 1, from one key derivation per block for
    # all 30 runs.
    round_cost = _tool("round_cost")
    derived, keys = [], []
    real = seeding.block_keys
    monkeypatch.setattr(seeding, "block_keys",
                        lambda seed, prefixes, block, pairs: derived.append(
                            (seed, list(prefixes), block)) or real(seed, prefixes, block, pairs))
    monkeypatch.setattr(seeding, "key_stream", lambda key: keys.append(key.tolist()))
    round_cost._row_keys(30, 8, 10)()
    assert derived == [(1, [(r,) for r in range(30)], block) for block in (0, 1)]
    assert keys == [seeding.philox_key(1, r, k, i, seeding.ROW_SAMPLE).tolist()
                    for k in range(59, 69) for r in range(30) for i in range(8)]


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
