"""Experiment runner: dispatch a validated config, emit traces, bounds
and summaries, compare algorithms on a shared problem."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .config import RunConfig
from .errors import BoundViolationError, ConfigError
from .problems import estimate_fed_constants
from .theory import BoundSeries, RecursionSpec, fed_bound, recursion_bound
from .trace import RunTrace

__all__ = [
    "RunResult", "execute", "compute_bound", "output_dir", "cmd_run", "cmd_compare", "strict_json",
]

ACCURACY_THRESHOLDS = tuple(10.0**-k for k in range(2, 9))


def strict_json(obj, **kwargs) -> str:
    """``json.dumps(obj, **kwargs)`` as strict JSON: a non-finite float is
    written as the string ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``
    rather than as a bare token, and other numpy numbers as floats."""

    def finite(x):
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        if isinstance(x, (float, np.floating)) and not math.isfinite(x):
            return "NaN" if math.isnan(x) else "Infinity" if x > 0 else "-Infinity"
        return x

    return json.dumps(finite(obj), allow_nan=False, default=float, **kwargs)


def _bits_table(trace: RunTrace) -> dict:
    """Cumulative bits to each accuracy threshold, keyed ``"1e-02"`` and
    so on; None where the run never reaches it."""
    return {f"{thr:.0e}": trace.bits_to_accuracy(thr) for thr in ACCURACY_THRESHOLDS}


@dataclass
class RunResult:
    config: RunConfig
    traces: list[RunTrace]
    bound: BoundSeries | None
    violation: BoundViolationError | None = None
    files: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation is None

    def summary(self) -> dict:
        tr = self.traces[0]
        thresholds = {
            key: "unreached" if bits is None else bits for key, bits in _bits_table(tr).items()
        }
        out = {
            "algorithm": self.config.algorithm,
            "mc_runs": len(self.traces),
            "final_dist": tr.dist[-1],
            "final_fgap": tr.fgap[-1],
            "total_bits": tr.total_bits,
            "bits_to_accuracy": thresholds,
            "bounds_ok": self.ok,
            "warnings": [],  # kept so summary.json keeps its bytes
        }
        if len(self.traces) > 1:
            sq = np.stack([t.dist**2 for t in self.traces])
            out["final_mean_sq_dist"] = float(sq[:, -1].mean())
        if not self.ok:
            out["violation"] = {
                "kind": self.violation.kind,
                "t": self.violation.t,
                "observed": float(self.violation.observed),
                "allowed": float(self.violation.allowed),
            }
        return out


def execute(cfg: RunConfig) -> RunResult:
    """Run the configured algorithm once; an envelope violation is
    captured, not raised, so the caller can report the offending row
    next to the simulated traces."""
    rn = cfg.run
    violation = None
    try:
        out = cfg.spec.run(cfg, seed=rn["master_seed"], w0=rn["w0"])
    except BoundViolationError as exc:
        # An envelope violation arrives with the finished traces; a
        # violation raised mid-run (the aggregate error budget) carries none.
        if exc.traces is None:
            raise
        violation, out = exc, exc.traces
    traces = out if isinstance(out, list) else [out]

    return RunResult(config=cfg, traces=traces, bound=compute_bound(cfg), violation=violation)


def compute_bound(cfg: RunConfig) -> BoundSeries | None:
    """The theoretical envelope matching a config (see ``config.Algorithm``),
    or None for ``agd`` at kappa = 1, where the momentum envelope
    degenerates.  A parsed config meets its contraction margin."""
    problem, qt, spec, T = cfg.problem, cfg.quant, cfg.spec, cfg.T
    w0 = engine._initial_point(problem, cfg.run["w0"])
    D0 = float(np.linalg.norm(w0 - problem.w_star))
    if spec.fed:
        fd = cfg.fed
        K = fd["k_participants"]
        radius = engine.fed_radius(problem, w0, fd["trajectory_radius"])
        fed = estimate_fed_constants(
            problem, fd["local_steps"], problem.N if K is None else K, fd["participation"], radius
        )
        return fed_bound(
            fed, fd["beta"], fd["gamma"], problem.mu, qt["s"], D0, T * fd["local_steps"]
        )
    if "c_prime" in spec.quant:
        return engine.contraction_envelope(
            cfg.algorithm, problem, qt["c_prime"], qt["s"], T, w0, eta=cfg.eta, rho=cfg.rho
        )
    # Contraction envelope on the squared distance of the exact baselines
    # (noiseless) and of the fixed-budget run (noise eta * fixed_eps).
    momentum = spec.stepsize == "1/L"
    c = engine.contraction_factor("a-deed-gd" if momentum else "deed-gd", problem, eta=cfg.eta)
    if momentum and c == 0.0:
        return None
    alpha = cfg.eta * qt["fixed_eps"] if "fixed_eps" in spec.quant else 0.0
    return recursion_bound(RecursionSpec(np.full(T, c), np.full(T, alpha), D0), T)


def output_dir(cfg: RunConfig, out_dir: str | None = None) -> str:
    """The directory a command writes to, created if absent: ``out_dir``,
    else the config's ``output.dir``, else ``$DEEDSIM_OUT_DIR``, else
    ``./deedsim_out``."""
    out_dir = out_dir or cfg.output_dir or os.environ.get("DEEDSIM_OUT_DIR") or "deedsim_out"
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _mean_squared_csv(traces: list) -> str:
    """``mean_squared.csv``: per row t of the Monte Carlo ``traces``, the
    mean over runs of the squared distance and its standard error."""
    sq = np.stack([t.dist**2 for t in traces])
    # Each row of the transposed copy sums as the strided column sq[:, t]
    # does; sq.mean(axis=0) adds the runs in another order.
    means = np.ascontiguousarray(sq.T).mean(axis=1)
    se = sq.std(axis=0, ddof=1) / math.sqrt(len(traces))
    rows = enumerate(zip(means.tolist(), se.tolist()))
    return "t,mean_sq_dist,se\n" + "".join(f"{t},{mean:.17g},{err:.17g}\n" for t, (mean, err) in rows)


def cmd_run(cfg: RunConfig, out_dir: str | None = None) -> RunResult:
    """Execute and write trace CSVs, an aligned bound CSV and summary.json
    to ``output_dir(cfg, out_dir)``.  Outputs are deterministic
    byte-for-byte for a fixed config.
    """
    out_dir = output_dir(cfg, out_dir)
    result = execute(cfg)

    if len(result.traces) == 1:
        path = os.path.join(out_dir, "trace.csv")
        result.traces[0].to_csv(path)
        result.files.append(path)
    else:
        for i, tr in enumerate(result.traces):
            path = os.path.join(out_dir, f"trace_run{i:03d}.csv")
            tr.to_csv(path)
            result.files.append(path)
        path = os.path.join(out_dir, "mean_squared.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write(_mean_squared_csv(result.traces))
        result.files.append(path)

    if result.bound is not None:
        path = os.path.join(out_dir, "bound.csv")
        result.bound.to_csv(path)
        result.files.append(path)

    path = os.path.join(out_dir, "summary.json")
    with open(path, "w", newline="\n") as fh:
        fh.write(strict_json(result.summary(), indent=2, sort_keys=True) + "\n")
    result.files.append(path)
    return result


def cmd_compare(configs: list[RunConfig], check_order: bool = False) -> dict:
    """Run several configs on the *same* problem and tabulate cumulative
    bits to each accuracy threshold.

    With ``check_order`` the given config order must be nondecreasing in
    bits at every threshold all of them reach.
    """
    if len(configs) < 2:
        raise ConfigError(["compare needs at least two configs"])
    base = configs[0].problem_block
    for cfg in configs[1:]:
        if cfg.problem_block != base:
            raise ConfigError(
                ["compare requires identical problem blocks "
                 f"(got {cfg.problem_block} vs {base})"]
            )
    rows = []
    for cfg in configs:
        result = execute(cfg)
        tr = result.traces[0]
        rows.append(
            {
                "algorithm": cfg.algorithm,
                "bits_to_accuracy": _bits_table(tr),
                "total_bits": tr.total_bits,
                "bounds_ok": result.ok,
            }
        )
    table = {"thresholds": [f"{t:.0e}" for t in ACCURACY_THRESHOLDS], "rows": rows}

    if check_order:
        failures = []
        for key in table["thresholds"]:
            bits = [row["bits_to_accuracy"][key] for row in rows]
            if any(b is None for b in bits):
                continue
            if any(a > b for a, b in zip(bits, bits[1:])):
                failures.append(f"ordering violated at threshold {key}: {bits}")
        table["order_ok"] = not failures
        table["order_failures"] = failures
    return table
