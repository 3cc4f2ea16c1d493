"""Declarative experiment configuration (YAML) with strict validation.

A config is a YAML mapping with blocks ``algorithm``, ``problem``,
``quant``, ``fed``, ``run`` and ``output``.  Parsing is strict: unknown
keys are rejected, every violated precondition is reported (all of them,
not just the first), and the named inequality appears verbatim in the
message.  Validation constructs the problem and then applies the
engines' own precondition checks (``engine.param_violations``,
``margin_violations`` and ``fed_violations``), so preconditions that
depend on problem constants (contraction factors, stepsize caps,
schedule feasibility) are checked at parse time, by the same code and
with the same messages as at run time.

Schema (defaults in parentheses):

    algorithm: deed-gd | a-deed-gd | deed-sgd | deed-fed | gd | agd | const-quant-gd
    problem:
      seed*: int          d*: int            n_nodes*: int
      kappa*: float       rows_per_node*: int
      interpolating: bool (false)            w_star_scale: float (1.0)
      noise_scale: float (0.0)               l_spread: float (1.0)
      weights: [floats] (uniform)
    quant:                # required for deed-* and const-quant-gd
      s: float            c_prime: float     float_bits: int >= 1 (32)
      fixed_eps: float    rho: float
    fed:                  # required for deed-fed
      local_steps*: int   beta*: float       gamma*: float
      participation: full | with-replacement | without-replacement (full)
      k_participants: int trajectory_radius: float > 0 (2 |w0 - w*|)
    run:
      iterations: int >= 0  # frequent algorithms
      rounds: int >= 0      # deed-fed
      mc_runs: int (1)    master_seed: int (0)
      counting_mode: star-full | fully-connected | x2 (star-full)
      stepsize_mode: theory | experiment (theory)
      eta: float          # explicit override
      w0: [floats]
    output:
      dir: str
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from . import engine
from .engine import COUNTING_MODES
from .errors import ConfigError, DeedsimError
from .problems import QuadraticProblem, estimate_rho, make_linreg

__all__ = ["RunConfig", "parse_config", "parse_config_file", "ALGORITHMS"]

ALGORITHMS = (
    "deed-gd",
    "a-deed-gd",
    "deed-sgd",
    "deed-fed",
    "gd",
    "agd",
    "const-quant-gd",
)

_QUANTIZED = ("deed-gd", "a-deed-gd", "deed-sgd", "deed-fed", "const-quant-gd")

_SCHEMA = {
    "problem": {
        "seed": (int, None),
        "d": (int, None),
        "n_nodes": (int, None),
        "kappa": ((int, float), None),
        "rows_per_node": (int, None),
        "interpolating": (bool, False),
        "w_star_scale": ((int, float), 1.0),
        "noise_scale": ((int, float), 0.0),
        "l_spread": ((int, float), 1.0),
        "weights": (list, None),
    },
    "quant": {
        "s": ((int, float), None),
        "c_prime": ((int, float), None),
        "float_bits": (int, 32),
        "fixed_eps": ((int, float), None),
        "rho": ((int, float), None),
    },
    "fed": {
        "local_steps": (int, None),
        "beta": ((int, float), None),
        "gamma": ((int, float), None),
        "participation": (str, "full"),
        "k_participants": (int, None),
        "trajectory_radius": ((int, float), None),
    },
    "run": {
        "iterations": (int, None),
        "rounds": (int, None),
        "mc_runs": (int, 1),
        "master_seed": (int, 0),
        "counting_mode": (str, "star-full"),
        "stepsize_mode": (str, "theory"),
        "eta": ((int, float), None),
        "w0": (list, None),
    },
    "output": {"dir": (str, None)},
}


@dataclass
class RunConfig:
    """A fully validated experiment description plus its realized problem."""

    algorithm: str
    problem_block: dict
    quant: dict
    fed: dict
    run: dict
    output_dir: str | None
    problem: QuadraticProblem = field(repr=False)
    eta: float | None  # resolved stepsize for the frequent engines
    rho: float | None  # certified growth constant (deed-sgd)
    warnings: list[str] = field(default_factory=list)

    @property
    def T(self) -> int:
        return self.run["rounds"] if self.algorithm == "deed-fed" else self.run["iterations"]


def _check_block(name: str, raw: dict, violations: list[str]) -> dict:
    schema = _SCHEMA[name]
    out = {}
    for key, value in raw.items():
        if key not in schema:
            violations.append(f"unknown key {name}.{key}")
            continue
        expected, _ = schema[key]
        if value is not None and not isinstance(value, expected):
            # bool is an int subclass; keep booleans out of numeric fields
            if isinstance(value, bool) and expected is not bool and not (
                isinstance(expected, tuple) and bool in expected
            ):
                violations.append(f"{name}.{key} must not be a boolean")
                continue
            violations.append(
                f"{name}.{key} has type {type(value).__name__}, expected {expected}"
            )
            continue
        if isinstance(value, bool) and not (
            expected is bool or (isinstance(expected, tuple) and bool in expected)
        ):
            violations.append(f"{name}.{key} must not be a boolean")
            continue
        out[key] = value
    for key, (_, default) in schema.items():
        out.setdefault(key, default)
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a YAML config.

    Raises ``ConfigError`` carrying *all* violations.  A config that
    parses is guaranteed to satisfy every engine precondition (in theory
    stepsize mode) or to carry explicit warnings (experiment mode relaxes
    the contraction-margin inequality, whose envelope is then skipped).
    """
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"not valid YAML: {exc}"]) from None
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a mapping"])

    violations: list[str] = []
    warnings: list[str] = []

    known_top = {"algorithm", "problem", "quant", "fed", "run", "output"}
    for key in data:
        if key not in known_top:
            violations.append(f"unknown key {key}")

    algorithm = data.get("algorithm")
    if algorithm not in ALGORITHMS:
        violations.append(
            f"algorithm must be one of {', '.join(ALGORITHMS)} (got {algorithm!r})"
        )

    blocks = {}
    for name in ("problem", "quant", "fed", "run", "output"):
        raw = data.get(name, {})
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            violations.append(f"{name} must be a mapping")
            raw = {}
        blocks[name] = _check_block(name, raw, violations)

    pb = blocks["problem"]
    for key in ("seed", "d", "n_nodes", "kappa", "rows_per_node"):
        if pb.get(key) is None:
            violations.append(f"problem.{key} is required")

    rn = blocks["run"]
    if rn["counting_mode"] not in COUNTING_MODES:
        violations.append(
            f"run.counting_mode must be one of {', '.join(COUNTING_MODES)}"
        )
    if rn["stepsize_mode"] not in ("theory", "experiment"):
        violations.append("run.stepsize_mode must be 'theory' or 'experiment'")
    if rn["mc_runs"] is not None and rn["mc_runs"] < 1:
        violations.append("run.mc_runs must be >= 1")

    if algorithm == "deed-fed":
        if rn.get("rounds") is None:
            violations.append("run.rounds is required for deed-fed")
    elif algorithm in ALGORITHMS:
        if rn.get("iterations") is None:
            violations.append("run.iterations is required")

    qt = blocks["quant"]
    if algorithm in _QUANTIZED:
        if algorithm == "const-quant-gd":
            if qt.get("fixed_eps") is None:
                violations.append("quant.fixed_eps is required for const-quant-gd")
            elif qt["fixed_eps"] <= 0:
                violations.append(
                    f"requires fixed_eps > 0 (fixed_eps = {qt['fixed_eps']!r})"
                )
        else:
            if qt.get("s") is None:
                violations.append("quant.s is required")
            elif qt["s"] < 0:
                violations.append(f"requires s >= 0 (s = {qt['s']!r})")
            if qt.get("c_prime") is None:
                violations.append("quant.c_prime is required")
            elif not 0.0 < qt["c_prime"] < 1.0:
                violations.append(
                    f"requires c < c' < 1 (c_prime = {qt['c_prime']!r} is outside (0, 1))"
                )

    if qt["float_bits"] is None or qt["float_bits"] < 1:
        violations.append(f"requires float_bits >= 1 (float_bits = {qt['float_bits']!r})")

    fd = blocks["fed"]
    if algorithm == "deed-fed":
        for key in ("local_steps", "beta", "gamma"):
            if fd.get(key) is None:
                violations.append(f"fed.{key} is required for deed-fed")

    if violations:
        raise ConfigError(violations)

    # Construct the problem; generator preconditions surface as violations.
    try:
        problem = make_linreg(
            seed=pb["seed"],
            d=pb["d"],
            N=pb["n_nodes"],
            target_kappa=float(pb["kappa"]),
            rows_per_node=pb["rows_per_node"],
            interpolating=pb["interpolating"],
            w_star_scale=float(pb["w_star_scale"]),
            noise_scale=float(pb["noise_scale"]),
            l_spread=float(pb["l_spread"]),
            weights=np.asarray(pb["weights"], dtype=float)
            if pb["weights"] is not None
            else None,
        )
    except DeedsimError as exc:
        raise ConfigError([f"problem construction failed: {exc}"]) from None

    w0 = rn["w0"]
    if w0 is not None and len(w0) != problem.d:
        violations.append(f"run.w0 must have length d = {problem.d}")
        w0 = None

    T = rn["rounds"] if algorithm == "deed-fed" else rn["iterations"]
    eta = rho = None
    if algorithm == "deed-fed":
        violations.extend(
            engine.fed_violations(
                problem, fd["local_steps"], fd["beta"], fd["gamma"], qt["s"], T,
                fd["participation"], fd["k_participants"], fd["trajectory_radius"], w0,
            )
        )
    elif algorithm == "deed-sgd":
        if not problem.interpolating:
            violations.append("deed-sgd requires problem.interpolating = true")
        else:
            rho = qt["rho"] if qt["rho"] is not None else estimate_rho(problem)
            eta = 1.0 / (rho * problem.L)
            violations.extend(
                engine.margin_violations(algorithm, problem, qt["c_prime"], rho=rho)
            )
        violations.extend(engine.param_violations(problem, T))
    else:
        if algorithm in ("a-deed-gd", "agd"):
            if rn["eta"] is not None:
                violations.append(f"{algorithm} fixes eta = 1/L; run.eta is not accepted")
        else:
            eta = _resolve_eta(rn, problem)
        found = engine.param_violations(problem, T, eta=eta)
        violations.extend(found)
        if algorithm in ("deed-gd", "a-deed-gd") and not found:
            margin = engine.margin_violations(algorithm, problem, qt["c_prime"], eta=eta)
            if rn["stepsize_mode"] == "theory":
                violations.extend(margin)
            else:
                warnings.extend(m + " -- envelope assertions disabled" for m in margin)

    if violations:
        raise ConfigError(violations)

    return RunConfig(
        algorithm=algorithm,
        problem_block=pb,
        quant=qt,
        fed=fd,
        run=rn,
        output_dir=blocks["output"]["dir"],
        problem=problem,
        eta=eta,
        rho=rho,
        warnings=warnings,
    )


def _resolve_eta(rn: dict, problem: QuadraticProblem) -> float:
    if rn["eta"] is not None:
        return float(rn["eta"])
    if rn["stepsize_mode"] == "experiment":
        return float(np.min(1.0 / problem.L_i))
    return 2.0 / (problem.L + problem.mu)


def parse_config_file(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())
