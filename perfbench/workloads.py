"""Seeded workload generation, one pass per workload, and output checks.

A workload seed fixes every input: the problem seed and ``master_seed``
of the run workloads, and the vectors and dither of ``wire-codec``.  The
shapes are copied from the matching files in ``configs/`` and kept here,
so that a later edit of ``configs/`` cannot change what the benchmark
measures.  The program under test only ever sees the generated configs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os

import numpy as np
import yaml

# Problem blocks shared by the configs of each workload (from configs/).
_RACE_PROBLEM = dict(
    d=100, n_nodes=10, kappa=16.0, rows_per_node=100, interpolating=False,
    w_star_scale=300.0, noise_scale=10.0, l_spread=3.125,
)
_SGD_PROBLEM = dict(
    d=20, n_nodes=5, kappa=8.0, rows_per_node=20, interpolating=True, w_star_scale=5.0,
)
_FED_PROBLEM = dict(
    d=10, n_nodes=8, kappa=4.0, rows_per_node=12, interpolating=False,
    noise_scale=2.0, w_star_scale=5.0,
)

# name -> list of (config name, config without seeds).  Config names are
# the configs/ file stems they copy.
_RUN_TEMPLATES = {
    "gd-race": [
        ("deed_gd", dict(algorithm="deed-gd", problem=_RACE_PROBLEM,
                         quant=dict(s=50.0, c_prime=0.97), run=dict(iterations=800))),
        ("a_deed_gd", dict(algorithm="a-deed-gd", problem=_RACE_PROBLEM,
                           quant=dict(s=20.0, c_prime=0.94), run=dict(iterations=400))),
        ("gd_baseline", dict(algorithm="gd", problem=_RACE_PROBLEM,
                             run=dict(iterations=800))),
        ("const_error", dict(algorithm="const-quant-gd", problem=_RACE_PROBLEM,
                             quant=dict(fixed_eps=1.0), run=dict(iterations=800))),
    ],
    "sgd-mc": [
        ("deed_sgd", dict(algorithm="deed-sgd", problem=_SGD_PROBLEM,
                          quant=dict(s=2.0, c_prime=0.9955),
                          run=dict(iterations=500, mc_runs=30))),
    ],
    "fed-local": [
        ("deed_fed", dict(algorithm="deed-fed", problem=_FED_PROBLEM,
                          quant=dict(s=1.0, c_prime=0.9),
                          fed=dict(local_steps=5, beta=64.0, gamma=1024.0,
                                   participation="without-replacement", k_participants=4),
                          run=dict(rounds=60, mc_runs=30))),
    ],
}

WORKLOADS = ("gd-race", "sgd-mc", "fed-local", "wire-codec")

# wire-codec: per pass, every (dim, ratio) pair below is sent once per
# repeat.  A ratio is |w| / budget of a vector handed to quantize.  The
# ratios are the midpoints of 16 equal-probability bins of the ratios the
# run workloads send, pooled with equal weight per workload (seeds 0-2),
# as printed by ``python3 ratios.py 0 1 2``; see README.md for the
# distribution.  Equal weights per ratio therefore follow the runs' mix.
WIRE_DIMS = (1_000, 10_000)
WIRE_RATIOS = (0.404, 0.44, 0.464, 0.501, 0.607, 0.891, 1.84, 5.23,
               9.81, 10.8, 12.8, 17.5, 23.2, 29.7, 42.4, 97.6)
WIRE_REPEATS = {1_000: 2, 10_000: 1}


def _seeds(workload: str, seed: int) -> tuple[int, int]:
    """(problem seed, master seed) of a workload seed."""
    state = np.random.SeedSequence([WORKLOADS.index(workload), seed]).generate_state(2)
    return int(state[0]), int(state[1])


def run_configs(workload: str, seed: int, short: bool = False) -> list[tuple[str, str]]:
    """(config name, YAML text) pairs of a run workload.

    ``short`` cuts the run length to a few rounds and two Monte Carlo
    runs; it is used for the discarded warm-up pass, which has to touch
    every code path but not cost a full pass.
    """
    problem_seed, master_seed = _seeds(workload, seed)
    out = []
    for name, template in _RUN_TEMPLATES[workload]:
        cfg = {key: dict(block) if isinstance(block, dict) else block
               for key, block in template.items()}
        cfg["problem"] = {"seed": problem_seed, **cfg["problem"]}
        cfg["run"]["master_seed"] = master_seed
        if short:
            for key, value in (("iterations", 20), ("rounds", 4), ("mc_runs", 2)):
                if key in cfg["run"]:
                    cfg["run"][key] = value
        out.append((name, yaml.safe_dump(cfg, sort_keys=False)))
    return out


def expected_counts(cfg) -> dict[str, int]:
    """Closed-form call counts of one ``cmd_run`` of a parsed config.

    One message is one ``quantize`` call and one stream: N uplinks and a
    downlink per round (K uplinks under partial participation).
    Stochastic engines add one row-sample stream per node per step and,
    with partial participation, one participation stream per sync.
    ``deed-fed`` certifies its constants twice, in the engine and in
    ``compute_bound``.
    """
    n, run = cfg.problem.N, cfg.run
    mc = run["mc_runs"]
    if cfg.algorithm == "deed-fed":
        fed = cfg.fed
        syncs = mc * run["rounds"]
        partial = fed["participation"] != "full"
        messages = syncs * ((fed["k_participants"] if partial else n) + 1)
        streams = messages + syncs * fed["local_steps"] * n + (syncs if partial else 0)
        return {"quantize": messages, "stream": streams, "certify": 2}
    messages = mc * run["iterations"] * (n + 1)
    streams = messages + (mc * run["iterations"] * n if cfg.algorithm == "deed-sgd" else 0)
    return {"quantize": messages, "stream": streams, "certify": 0}


def output_digest(out_dir: str) -> str:
    """sha256 over every file ``cmd_run`` wrote below ``out_dir``, in name order."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


@dataclasses.dataclass(frozen=True)
class WireMessage:
    budget: float
    diff: np.ndarray
    labels: tuple[int, ...]  # stream labels of the dither


def wire_messages(seed: int) -> tuple[int, list[WireMessage]]:
    """(master seed, messages) of the wire-codec workload."""
    problem_seed, master_seed = _seeds("wire-codec", seed)
    rng = np.random.default_rng(problem_seed)
    messages = []
    for dim in WIRE_DIMS:
        for _, ratio in itertools.product(range(WIRE_REPEATS[dim]), WIRE_RATIOS):
            budget = float(10.0 ** rng.uniform(-3.0, 1.0))
            direction = rng.standard_normal(dim)
            diff = direction * (ratio * budget / float(np.linalg.norm(direction)))
            messages.append(WireMessage(budget, diff, (len(messages),)))
    return master_seed, messages


def wire_unframe(frame):
    """Split an unpacked ``QuantizedMessage.to_bytes`` frame into its
    header fields and a copy of its payload.

    Returns ``(dim, grid_step bits, payload stream)``.  The payload copy
    goes through ``BitStream``'s public constructor and costs O(bits) in
    Python; it is the benchmark's, not the program's, and is traced as a
    layer of its own.
    """
    from deedsim.bitstream import BitStream, elias_decode

    dim, cursor = elias_decode(frame, 0)
    step_bits = 0
    for i in range(cursor, cursor + 64):
        step_bits = (step_bits << 1) | frame[i]
    return dim, step_bits, BitStream(itertools.islice(frame, cursor + 64, None))


def wire_pass(master_seed: int, messages: list[WireMessage], ops) -> dict:
    """Round-trip every message; returns the digest of the frames, the
    payload bits, the message count and the problems found.

    ``ops`` supplies the calls of one round trip (see ``WireOps``), so
    that a traced pass can substitute wrapped versions.  Every message must decode to its own grid, dequantize to
    its own decoded vector bit for bit, and carry exactly ``msg.bits``
    payload bits after the dim and grid-step header fields.
    """
    from deedsim.bitstream import elias_length
    from deedsim.quantizer import QuantSpec
    from deedsim.seeding import UPLINK

    h = hashlib.sha256()
    bits = 0
    problems = []
    for m in messages:
        spec = QuantSpec(max_error=m.budget, dim=len(m.diff))
        msg = ops.quantize(m.diff, spec, ops.stream(master_seed, *m.labels, UPLINK))
        data, nbits = ops.encode(msg)
        dim, step_bits, payload = ops.unframe(ops.unpack(data, nbits))
        payload_bits = len(payload)
        grid = ops.decode(payload, dim)
        value = ops.dequantize(dataclasses.replace(msg, grid=grid))
        (want_step,) = np.frombuffer(np.float64(spec.grid_step).tobytes(), dtype=np.uint64)
        if dim != spec.dim or step_bits != int(want_step):
            problems.append(f"message {m.labels}: header mismatch")
        if grid != msg.grid:
            problems.append(f"message {m.labels}: decoded grid differs")
        if value.tobytes() != msg.decoded.tobytes():
            problems.append(f"message {m.labels}: dequantized vector differs")
        if nbits - elias_length(spec.dim) - 64 != msg.bits or payload_bits != msg.bits:
            problems.append(f"message {m.labels}: {nbits} frame bits for {msg.bits} payload bits")
        bits += msg.bits
        h.update(nbits.to_bytes(8, "little") + data)
    return {"digest": h.hexdigest(), "ledger_bits": bits, "rows": len(messages), "problems": problems}


@dataclasses.dataclass
class WireOps:
    """The calls a wire-codec pass makes, replaceable by traced copies."""

    stream: object  # seeding.stream
    quantize: object  # quantizer.quantize
    encode: object  # QuantizedMessage.to_bytes
    unpack: object  # BitStream.from_bytes
    unframe: object  # wire_unframe: header fields and payload copy
    decode: object  # bitstream.decode_sparse
    dequantize: object  # quantizer.dequantize


def wire_ops() -> WireOps:
    """The untraced operations of a wire-codec pass."""
    from deedsim import bitstream, quantizer, seeding

    return WireOps(
        stream=seeding.stream,
        quantize=quantizer.quantize,
        encode=quantizer.QuantizedMessage.to_bytes,
        unpack=bitstream.BitStream.from_bytes,
        unframe=wire_unframe,
        decode=bitstream.decode_sparse,
        dequantize=quantizer.dequantize,
    )
