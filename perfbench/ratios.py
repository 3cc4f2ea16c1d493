"""Record the |diff|/budget ratios the run workloads send, and print the
table of ratios that wire-codec sends.

    python3 perfbench/ratios.py [<seed> ...]      (default: seed 0)

Every quantized message of one pass of ``gd-race``, ``sgd-mc`` and
``fed-local`` is recorded as ``|w| / max_error``, where ``w`` is the
vector handed to ``quantize`` (a difference, or a gradient for
``const-quant-gd``); lossless messages carry no ratio and are skipped.
The three workloads weigh equally in the pooled distribution, whatever
their message counts.  The printed ``WIRE_RATIOS`` are its quantiles at
the midpoints of ``BINS`` equal-probability bins, so a wire pass that
sends each of them once per dimension follows the pooled distribution.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINS = 16
# Probability levels at which each workload's distribution is sampled
# before pooling, so that every workload contributes as many values.
_LEVELS = (np.arange(4096) + 0.5) / 4096


def record(workload: str, seed: int, work: str) -> np.ndarray:
    """Ratios of every quantized message of one pass of ``workload``."""
    from deedsim import engine, harness, parse_config_file

    ratios = []
    raw = engine.quantize

    def recording(w, spec, rng, *args, **kwargs):
        if not spec.lossless:
            ratios.append(float(np.linalg.norm(w)) / spec.max_error)
        return raw(w, spec, rng, *args, **kwargs)

    engine.quantize = recording
    try:
        for name, text in workloads.run_configs(workload, seed):
            path = os.path.join(work, name + ".yaml")
            with open(path, "w") as fh:
                fh.write(text)
            result = harness.cmd_run(parse_config_file(path), os.path.join(work, name))
            if not result.ok:
                raise RuntimeError(f"{workload} {name}: {result.violation}")
    finally:
        engine.quantize = raw
    return np.asarray(ratios)


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [0]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pooled, summary = [], {}
    for workload in ("gd-race", "sgd-mc", "fed-local"):
        ratios = []
        for seed in seeds:
            work = os.path.join(ROOT, ".perfbench_work", f"ratios-{os.getpid()}")
            os.makedirs(work)
            try:
                ratios.append(record(workload, seed, work))
            finally:
                shutil.rmtree(work, ignore_errors=True)
        ratios = np.concatenate(ratios)
        q = np.quantile(ratios, [0.05, 0.25, 0.5, 0.75, 0.95, 0.99])
        summary[workload] = {"messages": len(ratios), "max": float(ratios.max()),
                             "q05,q25,q50,q75,q95,q99": [float(f"{v:.3g}") for v in q]}
        pooled.append(np.quantile(ratios, _LEVELS))
    table = np.quantile(np.concatenate(pooled), (np.arange(BINS) + 0.5) / BINS)
    print(json.dumps(summary, indent=1))
    print("WIRE_RATIOS = (" + ", ".join(f"{v:.3g}" for v in table) + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
