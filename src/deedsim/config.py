"""Declarative experiment configuration (YAML) with strict validation.

A config is a YAML mapping with blocks ``algorithm``, ``problem``,
``quant``, ``fed``, ``run`` and ``output``.  Parsing is strict: unknown
keys and non-finite numbers are rejected, every violation is reported
(first all those of the config's shape, then all those of its values),
and the named inequality appears verbatim in the message.  Value checks
run on the constructed problem and are the engines' own
(``engine.param_violations``, ``margin_violations``, ``fed_violations``
and ``w0``'s dimension check): the same code and messages at parse time
as at run time, so each run parameter is checked once, in the engine,
as is the default stepsize.  Each algorithm's horizon key, required
``quant`` and ``fed`` keys, stepsize rule and engine call are in its
``ALGORITHMS`` entry, and a key no entry reads is rejected: a ``fed``
block outside ``deed-fed``, ``run.eta`` where the engine fixes the
stepsize, ``run.mc_runs`` outside ``deed-sgd`` and ``deed-fed``, and a
``quant`` key the algorithm does not read.  A config that parses
meets every engine precondition and, for ``deed-gd``, ``a-deed-gd`` and
``deed-sgd``, the contraction margin, so the engine checks its envelope.

Schema (defaults in parentheses, * required; a key with a default may be
omitted but not set to null):

    algorithm: deed-gd | a-deed-gd | deed-sgd | deed-fed | gd | agd | const-quant-gd
    problem:
      seed*: int          d*: int            n_nodes*: int
      kappa*: float       rows_per_node*: int
      interpolating: bool (false)            w_star_scale: float (1.0)
      noise_scale: float (0.0)               l_spread: float (1.0)
      weights: [floats] (uniform)
    quant:
      s: float            c_prime: float     fixed_eps: float
      # each read by the algorithms that require it; a lossless message
      # (zero budget) is charged 32 bits per coordinate
    fed:                # deed-fed only
      local_steps: int    beta: float        gamma: float
      participation: full | with-replacement | without-replacement (full)
      k_participants: int, partial participation only
      trajectory_radius: float, 0 < r < inf (2 |w0 - w*|)
    run:
      iterations: int >= 0  # horizon keys
      rounds: int >= 0
      mc_runs: int >= 1 (1), deed-sgd and deed-fed only
      master_seed: int >= 0 (0)
      eta: float          # where the stepsize rule is "config"; else 2/(L+mu)
      w0: [floats]
    output:
      dir: str
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import engine
from .errors import ConfigError, DeedsimError, InvalidInputError
from .problems import QuadraticProblem, estimate_rho, make_linreg

__all__ = ["Algorithm", "RunConfig", "parse_config", "parse_config_file", "ALGORITHMS"]


@dataclass(frozen=True)
class Algorithm:
    """One algorithm: what its config needs and how it runs.

    ``stepsize`` is ``"config"`` (``run.eta``, else ``2/(L+mu)``) or
    the rule the engine fixes, which rejects ``run.eta``.  ``mc_runs``
    says whether the engine runs Monte Carlo runs (``run.mc_runs``); a
    ``quant`` key that is neither required nor in ``unread`` is rejected.
    ``run(cfg, **common)`` calls the engine.
    """

    horizon: str  # run key holding T
    quant: tuple[str, ...]  # required quant keys
    run: Callable
    fed: tuple[str, ...] = ()  # required fed keys
    stepsize: str = "config"
    mc_runs: bool = False
    unread: tuple[str, ...] = ()  # quant keys accepted though never read


_CODED = ("s", "c_prime")

ALGORITHMS = {
    "deed-gd": Algorithm("iterations", _CODED, lambda c, **kw: engine.run_deed_gd(
        c.problem, c.eta, c.quant["c_prime"], c.quant["s"], c.T, **kw)),
    "a-deed-gd": Algorithm("iterations", _CODED, lambda c, **kw: engine.run_adeed_gd(
        c.problem, c.quant["c_prime"], c.quant["s"], c.T, **kw), stepsize="1/L"),
    "deed-sgd": Algorithm("iterations", _CODED, lambda c, **kw: engine.run_deed_sgd(
        c.problem, c.quant["c_prime"], c.quant["s"], c.T, mc_runs=c.run["mc_runs"],
        rho=c.rho, **kw), stepsize="1/(rho L)", mc_runs=True),
    "deed-fed": Algorithm("rounds", ("s",), lambda c, **kw: engine.run_deed_fed(
        c.problem, c.fed["local_steps"], c.fed["beta"], c.fed["gamma"], c.quant["s"], c.T,
        c.fed["participation"], c.fed["k_participants"], mc_runs=c.run["mc_runs"],
        trajectory_radius=c.fed["trajectory_radius"], **kw),
        fed=("local_steps", "beta", "gamma"), stepsize="beta/(t+gamma)", mc_runs=True,
        # The benchmark's fed-local template still sets c_prime (ROADMAP item 9).
        unread=("c_prime",)),
    "gd": Algorithm("iterations", (), lambda c, **kw: engine.run_exact_gd(
        c.problem, c.eta, c.T, **kw)),
    "agd": Algorithm("iterations", (), lambda c, **kw: engine.run_exact_agd(
        c.problem, c.T, **kw), stepsize="1/L"),
    "const-quant-gd": Algorithm("iterations", ("fixed_eps",), lambda c, **kw: (
        engine.run_const_error_gd(c.problem, c.eta, c.T, c.quant["fixed_eps"], **kw))),
}

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
        "fixed_eps": ((int, float), None),
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

    @property
    def spec(self) -> Algorithm:
        return ALGORITHMS[self.algorithm]

    @property
    def T(self) -> int:
        return self.run[self.spec.horizon]


def _is_finite(value) -> bool:
    """Whether ``value`` is an int or float, not a bool, within the float range."""
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    return numeric and abs(value) <= sys.float_info.max


def _check_block(name: str, raw: dict, violations: list[str]) -> dict:
    schema = _SCHEMA[name]
    out = {}
    for key, value in raw.items():
        if key not in schema:
            violations.append(f"unknown key {name}.{key}")
            continue
        expected, default = schema[key]
        # bool is an int subclass; keep booleans out of non-boolean fields
        if isinstance(value, bool) and expected is not bool:
            violations.append(f"{name}.{key} must not be a boolean")
            continue
        # An explicit null would override the default with a value no engine takes.
        if value is None and default is not None:
            violations.append(f"{name}.{key} must not be null")
            continue
        if value is not None and not isinstance(value, expected):
            violations.append(
                f"{name}.{key} has type {type(value).__name__}, expected {expected}"
            )
            continue
        if expected is list and value is not None and not all(map(_is_finite, value)):
            violations.append(f"{name}.{key} must be a list of finite numbers")
            continue
        # fed_violations names a trajectory_radius too large for the certificate.
        real = expected == (int, float) and key != "trajectory_radius"
        if real and value is not None and not _is_finite(value):
            violations.append(f"{name}.{key} must be finite ({key} = {value!r})")
            continue
        out[key] = value
    for key, (_, default) in schema.items():
        out.setdefault(key, default)
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a YAML config.

    Raises ``ConfigError`` carrying *all* violations.  A config that
    parses is guaranteed to satisfy every engine precondition, the
    contraction margin included.
    """
    import yaml  # here, not at module level: ``import deedsim`` stays light

    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"not valid YAML: {exc}"]) from None
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a mapping"])

    violations: list[str] = []

    known_top = {"algorithm", "problem", "quant", "fed", "run", "output"}
    for key in data:
        if key not in known_top:
            violations.append(f"unknown key {key}")

    algorithm = data.get("algorithm")
    spec = ALGORITHMS.get(algorithm) if isinstance(algorithm, str) else None
    if spec is None:
        violations.append(
            f"algorithm must be one of {', '.join(ALGORITHMS)} (got {algorithm!r})"
        )
    elif "fed" in data and not spec.fed:
        violations.append(f"{algorithm} reads no fed block; only deed-fed takes one")

    raws, blocks = {}, {}
    for name in ("problem", "quant", "fed", "run", "output"):
        raw = data.get(name, {})
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            violations.append(f"{name} must be a mapping")
            raw = {}
        raws[name] = raw
        blocks[name] = _check_block(name, raw, violations)

    pb, qt, fd, rn = (blocks[name] for name in ("problem", "quant", "fed", "run"))
    # A required key is missing when absent or null; any other value that
    # left it None was rejected by _check_block and is reported already.
    for key in ("seed", "d", "n_nodes", "kappa", "rows_per_node"):
        if raws["problem"].get(key) is None:
            violations.append(f"problem.{key} is required")
    if pb["seed"] is not None and pb["seed"] < 0:
        violations.append(f"problem.seed must be >= 0 (seed = {pb['seed']})")
    if spec is not None:
        for block, keys in (("run", (spec.horizon,)), ("quant", spec.quant), ("fed", spec.fed)):
            for key in keys:
                if raws[block].get(key) is None:
                    violations.append(f"{block}.{key} is required for {algorithm}")

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

    if "mc_runs" in raws["run"] and not spec.mc_runs:
        violations.append(f"{algorithm} does not read run.mc_runs; "
                          "only deed-sgd and deed-fed take Monte Carlo runs")
    for key in ("s", "c_prime", "fixed_eps"):
        if key in raws["quant"] and key not in spec.quant + spec.unread:
            violations.append(f"{algorithm} does not read quant.{key}")
    try:
        w0 = engine._initial_point(problem, rn["w0"])
    except InvalidInputError as exc:
        violations.append(str(exc))
        w0 = None  # the other checks take the default, as for no w0

    T = rn[spec.horizon]
    eta = rho = None
    found = []  # the algorithm's own preconditions
    if spec.stepsize == "config":
        eta = engine._default_eta(problem) if rn["eta"] is None else float(rn["eta"])
    elif rn["eta"] is not None:
        found.append(f"{algorithm} fixes eta = {spec.stepsize}; run.eta is not accepted")
    run = {"mc_runs": rn["mc_runs"] if spec.mc_runs else None, "seed": rn["master_seed"]}
    if spec.fed:
        found += engine.fed_violations(
            problem, fd["local_steps"], fd["beta"], fd["gamma"], qt["s"], T,
            fd["participation"], fd["k_participants"], fd["trajectory_radius"], w0, **run,
        )
    else:
        found += engine.param_violations(
            problem, T, eta=eta, **run, **{key: qt[key] for key in spec.quant}
        )
    if spec.stepsize == "1/(rho L)":
        if not problem.interpolating:
            found.append(f"{algorithm} requires problem.interpolating = true")
        elif not found:  # certify only a run the cheap checks pass
            rho = estimate_rho(problem)
            eta = 1.0 / (rho * problem.L)
    if "c_prime" in spec.quant and not found:
        found += engine.margin_violations(algorithm, problem, qt["c_prime"], eta=eta, rho=rho)
    violations += found

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
    )


def parse_config_file(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())
