"""The deedsim benchmark: seeded workloads timed end to end, with a
separate traced pass that splits the time by module.

    python3 perfbench/run.py --workload gd-race --seed 1 --seconds 12 --trace 0

Workloads (see README.md for why each was chosen):
  gd-race     deed-gd, a-deed-gd, gd and const-quant-gd on one d=100, N=10 problem
  sgd-mc      deed-sgd, d=20, N=5, 30 Monte Carlo runs of 500 rounds
  fed-local   deed-fed, 5 local steps, 4 of 8 nodes per sync, 30 Monte Carlo runs
  wire-codec  quantize -> to_bytes -> from_bytes -> decode_sparse -> dequantize

A pass of a run workload calls ``harness.cmd_run`` on every generated
config, the path ``deedsim run`` takes, writing below a work directory in
the checkout.  One discarded short warm-up pass comes first; then passes
repeat until ``--seconds`` have passed, at least twice.  Set-up time is
measured in fresh interpreters.  End-to-end times are in reference
seconds, corrected for the drifting speed of a shared machine (see
calibrate.py).  With ``--trace 1`` one more pass runs with every layer's
entry points wrapped, and per-layer metrics are printed instead of the
end-to-end ones.

Every pass is checked: run workloads must report no bound violation and
write byte-identical outputs on every pass (and the recorded digest of
golden.json, when the seed is recorded there); wire-codec messages must
round-trip exactly.  A traced pass must also match the closed-form call
counts, and its layer self times must sum to its duration, which fails
when a wrapped call runs outside the traced units.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from calibrate import REFERENCE_S, SpeedSampler, calibration_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3
# Timed passes per run, at least: one sgd-mc pass outlasts the run length,
# and a single pass spread twice as much between seeds.
MIN_PASSES = 2
# Seconds between the calibration samples taken during timed passes.
SAMPLE_INTERVAL_S = 0.5

END_TO_END = {
    "run_s": "s",
    "iters_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ledger_bits": "bit",
    "pass_ratio": "ratio",
}

# Per-layer metrics of a traced pass; see layer_metrics().
PER_LAYER_UNITS = {
    "seeding.stream_calls": "count",
    "seeding.stream_s": "s",
    "seeding.stream_used_ratio": "ratio",
    "quantizer.quantize_calls": "count",
    "quantizer.quantize_self_s": "s",
    "quantizer.coords": "count",
    "quantizer.dequantize_s": "s",
    "bitstream.payload_bits_calls": "count",
    "bitstream.payload_bits_s": "s",
    "bitstream.encode_s": "s",
    "bitstream.decode_s": "s",
    "bitstream.wire_bits": "bit",
    "problems.grad_calls": "count",
    "problems.grad_s": "s",
    "problems.fgap_s": "s",
    "engine.self_s": "s",
    "engine.rounds": "count",
    "engine.messages": "count",
    "harness.self_s": "s",
    "harness.emit_s": "s",
    "harness.unframe_s": "s",
    "trace.csv_bytes": "byte",
    "theory.bound_calls": "count",
    "theory.bound_s": "s",
    "problems.build_s": "s",
    "problems.certify_calls": "count",
    "problems.certify_s": "s",
    "config.parse_s": "s",
    "deedsim.import_s": "s",
    "traced_run_s": "s",
    "tracing_overhead_s": "s",
    "run_wall_s": "s",
    "calibration_s": "s",
}


class PassFailed(Exception):
    """A pass whose outputs did not check out."""


def _import_deedsim():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import deedsim
    except ImportError as exc:
        raise SystemExit(f"cannot import deedsim from {ROOT}/src: {exc}")
    where = os.path.dirname(os.path.abspath(deedsim.__file__))
    if where != os.path.join(ROOT, "src", "deedsim"):
        raise SystemExit(f"deedsim was imported from {where}, not from this checkout")
    return deedsim


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


class RunWorkload:
    """A workload of configs, each run through ``harness.cmd_run``."""

    def __init__(self, name: str, seed: int, work: str) -> None:
        from deedsim import parse_config_file

        self.paths = {}
        for tag, short in (("full", False), ("warm", True)):
            os.makedirs(os.path.join(work, tag))
            for cfg_name, text in workloads.run_configs(name, seed, short):
                path = os.path.join(work, tag, cfg_name + ".yaml")
                with open(path, "w") as fh:
                    fh.write(text)
                self.paths.setdefault(tag, []).append(path)
        self.configs = {
            tag: [(os.path.basename(p)[:-5], parse_config_file(p)) for p in paths]
            for tag, paths in self.paths.items()
        }
        self.probe_args = self.paths["full"]

    def units(self, out_dir: str, warm: bool, tracer) -> list:
        """(name, call) pairs of one pass: one ``cmd_run`` per config."""
        from deedsim import harness

        return [
            (name, functools.partial(harness.cmd_run, cfg, os.path.join(out_dir, name)))
            for name, cfg in self.configs["warm" if warm else "full"]
        ]

    def check(self, results: dict, out_dir: str, counts: dict | None) -> dict:
        """Digest, ledger and problems of a pass; ``counts`` are the traced
        per-config call counts, checked against their closed forms."""
        problems = [f"{name}: {r.violation}" for name, r in results.items() if not r.ok]
        for name, got in (counts or {}).items():
            want = workloads.expected_counts(results[name].config)
            for key, layer in (("quantize", "quantizer.quantize"), ("stream", "seeding.stream"),
                               ("certify", "problems.certify")):
                print(f"count {name} {layer}: {got.get(layer, 0)} (closed form {want[key]})")
                if got.get(layer, 0) != want[key]:
                    problems.append(f"{name}: {got.get(layer, 0)} {layer} calls, closed form {want[key]}")
        traces = [t for r in results.values() for t in r.traces]
        return {
            "digest": workloads.output_digest(out_dir),
            "ledger_bits": sum(t.total_bits for t in traces),
            "rows": sum(len(t.t) for t in traces),
            "problems": problems,
        }


class WireWorkload:
    """Seeded messages round-tripped through the wire format."""

    def __init__(self, name: str, seed: int, work: str) -> None:
        self.master_seed, self.messages = workloads.wire_messages(seed)
        # The warm-up sends one message of each dimension.
        self.warm = [self.messages[0], self.messages[-1]]
        self.probe_args = []

    def units(self, out_dir: str, warm: bool, tracer) -> list:
        ops = workloads.wire_ops()
        if tracer:
            ops = tracer.wire_ops(ops)
        messages = self.warm if warm else self.messages
        return [("wire", functools.partial(workloads.wire_pass, self.master_seed, messages, ops))]

    def check(self, results: dict, out_dir: str, counts: dict | None) -> dict:
        return results["wire"]


def probe_setup(workload: str, seed: int, trace: bool, args: list[str]) -> dict:
    """Run probe.py in a fresh interpreter and return its report."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), str(int(trace)), workload, str(seed), *args]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise PassFailed(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_golden(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


class Bench:
    """Passes of one workload, with the bookkeeping of failed passes."""

    def __init__(self, workload, name: str, seed: int, work: str) -> None:
        self.workload, self.name, self.seed, self.work = workload, name, seed, work
        self.golden = load_golden(name, seed)
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.reports = []
        # Calibration samples taken while the untraced passes run.
        self.sampler = SpeedSampler(SAMPLE_INTERVAL_S)
        # Calibration samples before and between the set-up probes.
        self.setup_calibration = [calibration_seconds()]

    def probe(self, trace: bool) -> dict:
        """One set-up probe; its ``ref_s`` is in reference seconds, with
        the calibration samples taken right before and after it."""
        report = probe_setup(self.name, self.seed, trace, self.workload.probe_args)
        self.setup_calibration.append(calibration_seconds())
        speed = statistics.mean(self.setup_calibration[-2:])
        report["ref_s"] = report["setup_ns"] / 1e9 * REFERENCE_S / speed
        return report

    def run_pass(self, warm: bool = False, tracer=None) -> dict | None:
        self.attempted += 1
        out_dir = os.path.join(self.work, f"out{self.attempted}")
        try:
            report = self._timed_pass(out_dir, warm, tracer)
            problems = report["problems"]
            if not warm:
                if self.golden and report["digest"] != self.golden:
                    problems.append(f"output digest {report['digest']} is not the recorded {self.golden}")
                self.digests.add(report["digest"])
                if len(self.digests) > 1:
                    problems.append(f"outputs differ between passes: {sorted(self.digests)}")
            if problems:
                raise PassFailed("; ".join(problems))
        except Exception:  # a failed pass is counted and reported, not fatal
            self.failed += 1
            print(f"pass {self.attempted} FAILED:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if not warm:
            self.reports.append(report)
        return report

    def _timed_pass(self, out_dir: str, warm: bool, tracer) -> dict:
        """Run the units of a pass, each timed on its own.

        ``ns`` is the wall time of the units less the time the sampler
        spent inside them; ``ref_s`` converts it to reference seconds
        with the mean of the samples taken during the units, or of one
        taken after the pass if none fell inside (see calibrate.py).
        The traced pass runs without the sampler, whose handler would
        land in the traced spans.
        """
        results, counts, wall_ns, speed = {}, {}, 0, []
        for name, call in self.workload.units(out_dir, warm, tracer):
            before = dict(tracer.calls) if tracer else {}
            start = time.perf_counter_ns()
            with tracer.root("harness") if tracer else contextlib.nullcontext():
                results[name] = call()
            end = time.perf_counter_ns()
            wall_ns += end - start - self.sampler.excluded_ns(start, end)
            speed += self.sampler.within(start, end)
            if tracer:
                counts[name] = {k: v - before.get(k, 0) for k, v in tracer.calls.items()}
        report = self.workload.check(results, out_dir, counts if tracer else None)
        report["ns"] = wall_ns
        report["ref_s"] = wall_ns / 1e9 * REFERENCE_S / statistics.mean(speed or [calibration_seconds()])
        return report


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(tracer, b: Bench, traced: dict, run_wall_s: float, setup: list[dict]) -> dict:
    """Per-layer metrics of one traced pass plus the traced set-up probes.

    Layer times are wall seconds of the traced pass; the tracing overhead
    is the traced pass minus the untraced median, both in wall seconds of
    the same run.
    """
    calls, own, counters = tracer.calls, tracer.self_ns, tracer.counters

    def secs(layer):
        return own.get(layer, 0) / 1e9

    def setup_median(key, layer):
        return statistics.median(p[key].get(layer, 0) for p in setup)

    streams = calls.get("seeding.stream", 0)
    return {
        "seeding.stream_calls": streams,
        "seeding.stream_s": secs("seeding.stream"),
        "seeding.stream_used_ratio": counters["stream_used"] / streams if streams else 0.0,
        "quantizer.quantize_calls": calls.get("quantizer.quantize", 0),
        "quantizer.quantize_self_s": secs("quantizer.quantize"),
        "quantizer.coords": counters["coords"],
        "quantizer.dequantize_s": secs("quantizer.dequantize"),
        "bitstream.payload_bits_calls": calls.get("bitstream.payload_bits", 0),
        "bitstream.payload_bits_s": secs("bitstream.payload_bits"),
        "bitstream.encode_s": secs("bitstream.encode"),
        "bitstream.decode_s": secs("bitstream.decode"),
        "bitstream.wire_bits": counters["wire_bits"],
        "problems.grad_calls": calls.get("problems.grad", 0),
        "problems.grad_s": secs("problems.grad"),
        "problems.fgap_s": secs("problems.fgap"),
        "engine.self_s": secs("engine"),
        "engine.rounds": counters["rounds"],
        # On a run workload every quantize call is an engine's message.
        "engine.messages": calls.get("quantizer.quantize", 0) if calls.get("engine") else 0,
        "harness.self_s": secs("harness"),
        "harness.emit_s": secs("harness.emit"),
        "harness.unframe_s": secs("harness.unframe"),
        "trace.csv_bytes": counters["csv_bytes"],
        "theory.bound_calls": calls.get("theory.bound", 0),
        "theory.bound_s": secs("theory.bound"),
        "problems.build_s": setup_median("self_ns", "problems.build") / 1e9,
        "problems.certify_calls": calls.get("problems.certify", 0)
        + setup_median("calls", "problems.certify"),
        "problems.certify_s": secs("problems.certify") + setup_median("self_ns", "problems.certify") / 1e9,
        "config.parse_s": setup_median("self_ns", "config.parse") / 1e9,
        "deedsim.import_s": statistics.median(p["import_ns"] for p in setup) / 1e9,
        "traced_run_s": traced["ns"] / 1e9,
        "tracing_overhead_s": traced["ns"] / 1e9 - run_wall_s,
        "run_wall_s": run_wall_s,
        "calibration_s": statistics.median(s for _, _, s in b.sampler.samples),
    }


def bench(args, work: str) -> dict:
    _import_deedsim()
    print("machine:", json.dumps(machine_info()))
    kind = WireWorkload if args.workload == "wire-codec" else RunWorkload
    workload = kind(args.workload, args.seed, work)
    b = Bench(workload, args.workload, args.seed, work)
    print(f"workload: {args.workload} seed {args.seed}; recorded digest: {b.golden or 'none'}")

    problems = []
    setup = []
    for _ in range(SETUP_PROBES):
        try:
            setup.append(b.probe(args.trace))
        except (PassFailed, subprocess.TimeoutExpired, ValueError) as exc:
            problems.append(str(exc))
    with b.sampler.sampling():
        b.run_pass(warm=True)
        deadline = time.monotonic() + args.seconds
        for i in itertools.count():
            b.run_pass()
            if i + 1 >= MIN_PASSES and time.monotonic() >= deadline:
                break

    wall = [r["ns"] / 1e9 for r in b.reports]
    run_wall_s = statistics.median(wall) if wall else float("nan")
    if wall:
        q1, med, q3 = quartiles([r["ref_s"] for r in b.reports])
        print(f"run_s (reference seconds): median {med:.6f} q1 {q1:.6f} q3 {q3:.6f} over {len(wall)} passes")
        q1, med, q3 = quartiles(wall)
        print(f"run_s (wall seconds): median {med:.6f} q1 {q1:.6f} q3 {q3:.6f}")
    samples = [s for _, _, s in b.sampler.samples]
    if samples:
        q1, med, q3 = quartiles(samples)
        print(f"calibration_s: median {med:.6f} q1 {q1:.6f} q3 {q3:.6f} over {len(samples)} samples")
    print(f"output digest: {sorted(b.digests)}")

    metrics, units = {}, PER_LAYER_UNITS if args.trace else END_TO_END
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            report = b.run_pass(tracer=tracer)
        if report is not None:
            root_ns = tracer.total_ns["harness"]
            # Fails exactly when a wrapped call ran outside the root spans.
            if sum(tracer.self_ns.values()) != root_ns:
                problems.append("layer self times do not sum to the traced pass time")
            for layer in sorted(tracer.self_ns, key=tracer.self_ns.get, reverse=True):
                print(f"layer {layer}: {tracer.calls[layer]} calls, self {tracer.self_ns[layer] / 1e9:.6f} s"
                      f" ({100 * tracer.self_ns[layer] / root_ns:.1f}%)")
            if setup:
                metrics = layer_metrics(tracer, b, report, run_wall_s, setup)
    else:
        report = b.reports[-1] if b.reports else None
        if report is not None and setup:
            print(f"setup_s samples (wall seconds): {[p['setup_ns'] / 1e9 for p in setup]}")
            run_s = statistics.median(r["ref_s"] for r in b.reports)
            metrics = {
                "run_s": run_s,
                "iters_per_s": report["rows"] / run_s,
                "setup_s": statistics.median(p["ref_s"] for p in setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ledger_bits": report["ledger_bits"],
                "pass_ratio": (b.attempted - b.failed) / b.attempted,
            }

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    correct = not problems and b.failed == 0 and report is not None and bool(metrics)
    return {
        "correct": correct,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # On SIGTERM unwind normally: a running probe is killed and waited for,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        result = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
