import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deedsim.cli import main
from deedsim.config import parse_config
from deedsim.errors import ConfigError, InvalidInputError
from deedsim.harness import cmd_compare, cmd_run, execute

MINIMAL = """
algorithm: deed-gd
problem: {seed: 1, d: 10, n_nodes: 2, kappa: 4.0, rows_per_node: 12}
quant: {s: 0.1, c_prime: 0.9}
run: {iterations: 50}
"""

SGD_CFG = """
algorithm: deed-sgd
problem: {seed: 2, d: 8, n_nodes: 3, kappa: 3.0, rows_per_node: 10, interpolating: true}
quant: {s: 1.0, c_prime: 0.999}
run: {iterations: 60, mc_runs: 3, master_seed: 5}
"""

FED_CFG = """
algorithm: deed-fed
problem: {seed: 3, d: 6, n_nodes: 4, kappa: 2.0, rows_per_node: 8, noise_scale: 1.0}
quant: {s: 1.0, c_prime: 0.9}
fed: {local_steps: 3, beta: BETA, gamma: GAMMA}
run: {rounds: 8, mc_runs: 2}
"""


def test_minimal_config_theory_eta():
    cfg = parse_config(MINIMAL)
    p = cfg.problem
    assert cfg.eta == pytest.approx(2.0 / (p.L + p.mu))
    assert cfg.algorithm == "deed-gd"


def test_contraction_margin_violation_named():
    bad = MINIMAL.replace("c_prime: 0.9", "c_prime: 0.2")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert any("c < c' < 1" in v for v in err.value.violations)


@pytest.mark.parametrize("mode", ["theory", "experiment"])
def test_stepsize_mode_rejected(mode):
    # A failed margin is a violation, never a warning: no config reaches an
    # engine that would skip its envelope.
    for text in (MINIMAL, MINIMAL.replace("c_prime: 0.9", "c_prime: 0.2")):
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace("run: {", f"run: {{stepsize_mode: {mode}, "))
        assert err.value.violations == ["unknown key run.stepsize_mode"]


@pytest.mark.parametrize("rho", ["0.5", "0", "4.0"])
def test_quant_rho_rejected(rho):
    # deed-sgd always certifies its growth constant; none is taken on trust.
    with pytest.raises(ConfigError) as err:
        parse_config(SGD_CFG.replace("c_prime: 0.999}", f"c_prime: 0.999, rho: {rho}}}"))
    assert err.value.violations == ["unknown key quant.rho"]


def test_momentum_margin_needs_positive_contraction():
    # kappa = 1 gives c = 0, where the momentum envelope degenerates: the
    # engine would skip it, so the config is rejected.
    text = SCALAR_CFG.replace("deed-gd", "a-deed-gd").replace("eta: 1.0, ", "")
    with pytest.raises(ConfigError, match=r"requires 0 < c < c' < 1 \(c = .* = 0\.0"):
        parse_config(text)


def test_fed_beta_violation_named():
    text = FED_CFG.replace("BETA", "0.01").replace("GAMMA", "50")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("beta > 1/mu" in v for v in err.value.violations)


def test_fed_valid_config():
    # A generous beta with gamma = 4 L beta satisfies every schedule constraint.
    text = FED_CFG.replace("BETA", "1000.0").replace("GAMMA", "100000.0")
    cfg = parse_config(text)
    assert cfg.algorithm == "deed-fed"


FED_VALID = FED_CFG.replace("BETA", "1000.0").replace("GAMMA", "100000.0")
FED_BLOCK = {"local_steps": 3, "beta": 1000.0, "gamma": 100000.0}


def test_fed_needs_no_c_prime(tmp_path):
    # deed-fed never reads quant.c_prime: without it the config parses and
    # writes the same bytes.
    text = FED_VALID.replace("quant: {s: 1.0, c_prime: 0.9}", "quant: {s: 1.0}")
    assert "c_prime" not in text
    cmd_run(parse_config(FED_VALID), str(tmp_path / "with"))
    cmd_run(parse_config(text), str(tmp_path / "without"))
    names = sorted(os.listdir(tmp_path / "with"))
    assert "bound.csv" in names and names == sorted(os.listdir(tmp_path / "without"))
    for name in names:
        assert (tmp_path / "with" / name).read_bytes() == (
            tmp_path / "without" / name
        ).read_bytes(), name


@pytest.mark.parametrize(
    "text, rule",
    [
        (MINIMAL.replace("deed-gd", "a-deed-gd"), "1/L"),
        (MINIMAL.replace("deed-gd", "agd").replace("quant: {s: 0.1, c_prime: 0.9}", ""), "1/L"),
        (SGD_CFG, "1/(rho L)"),
        (FED_VALID, "beta/(t+gamma)"),
    ],
    ids=["a-deed-gd", "agd", "deed-sgd", "deed-fed"],
)
def test_eta_rejected_where_the_engine_sets_the_stepsize(text, rule):
    algorithm = parse_config(text).algorithm
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("run: {", "run: {eta: 5.0, "))
    assert err.value.violations == [f"{algorithm} fixes eta = {rule}; run.eta is not accepted"]


@pytest.mark.parametrize(
    "override",
    [
        {"participation": scheme, "k_participants": k}
        for scheme in ("with-replacement", "without-replacement")
        for k in (0, -3)
    ]
    + [
        {"participation": "without-replacement", "k_participants": 5},  # N = 4
        {"trajectory_radius": 0},
        {"trajectory_radius": -1},
        {"local_steps": 0},
    ],
    ids=repr,
)
def test_fed_preconditions_rejected_at_parse(override):
    # A parsed config meets every engine precondition: parse_config rejects
    # these with the message the engine gives for the same arguments.
    import yaml

    from deedsim.engine import run_deed_fed

    fed = {**FED_BLOCK, **override}
    text = FED_VALID.replace(
        "fed: {local_steps: 3, beta: 1000.0, gamma: 100000.0}",
        "fed: " + yaml.safe_dump(fed, default_flow_style=True).strip(),
    )
    with pytest.raises(ConfigError) as parsed:
        parse_config(text)
    fed = {"participation": "full", "k_participants": None, "trajectory_radius": None, **fed}
    with pytest.raises(ConfigError) as ran:
        run_deed_fed(
            parse_config(FED_VALID).problem, fed["local_steps"], fed["beta"],
            fed["gamma"], 1.0, 8, fed["participation"], fed["k_participants"],
            mc_runs=2, trajectory_radius=fed["trajectory_radius"],
        )
    assert parsed.value.violations == ran.value.violations


def test_fed_k_participants_rejected_under_full_participation():
    # Full participation uses every node, so a sample size would be ignored.
    from deedsim.engine import run_deed_fed

    full = FED_VALID.replace("fed: {", "fed: {participation: full, ")
    with pytest.raises(ConfigError) as err:
        parse_config(full.replace("fed: {", "fed: {k_participants: 2, "))
    assert err.value.violations == ["full participation uses every node; K is not accepted (K = 2)"]
    # The engine API rejects it through the same check.
    with pytest.raises(ConfigError) as ran:
        run_deed_fed(parse_config(FED_VALID).problem, 2, 1000.0, 100000.0, 1.0, 2,
                     participation="full", K=7)
    assert ran.value.violations == ["full participation uses every node; K is not accepted (K = 7)"]
    assert parse_config(full).fed["k_participants"] is None
    for scheme in ("with-replacement", "without-replacement"):
        partial = FED_VALID.replace("fed: {", f"fed: {{participation: {scheme}, k_participants: 2, ")
        assert parse_config(partial).fed["k_participants"] == 2


def test_fed_infinite_radius_rejected_at_parse():
    # On an infinite ball the certificate's objective is NaN; before this
    # check max() dropped it, so G_sq and sigma_sq came out finite and wrong
    # and the run reported its bounds as met.
    text = FED_VALID.replace("fed: {", "fed: {trajectory_radius: .inf, ")
    assert ".inf" in text
    with pytest.raises(ConfigError) as parsed:
        parse_config(text)
    assert parsed.value.violations == ["requires trajectory_radius < inf (trajectory_radius = inf)"]


@pytest.mark.parametrize(
    "literal, radius", [("1.0e+160", 1e160), ("1" + "0" * 400, 10**400)], ids=["1e160", "10**400"]
)
def test_fed_radius_with_overflowing_square_rejected_at_parse(literal, radius):
    # The certificate squares the radius; above about 1.34e154 that raised
    # a bare OverflowError, mid-certificate for a float and at parse time
    # for an int too large for a float.
    from deedsim.engine import run_deed_fed

    text = FED_VALID.replace("fed: {", f"fed: {{trajectory_radius: {literal}, ")
    with pytest.raises(ConfigError) as parsed:
        parse_config(text)
    assert parsed.value.violations == [
        f"requires trajectory_radius**2 < inf (trajectory_radius = {radius!r})"
    ]
    with pytest.raises(ConfigError) as ran:
        run_deed_fed(parse_config(FED_VALID).problem, 3, 1000.0, 100000.0, 1.0, 8,
                     mc_runs=2, trajectory_radius=radius)
    assert ran.value.violations == parsed.value.violations
    parse_config(FED_VALID.replace("fed: {", "fed: {trajectory_radius: 1.0e+100, "))


def test_fed_default_radius_zero_rejected_at_parse():
    # Starting at the optimum makes the default radius 2 |w0 - w*| zero;
    # certification needs a positive one, so the config fails at parse
    # time with the engine's message instead of after every round.
    from deedsim.engine import run_deed_fed

    problem = parse_config(FED_VALID).problem
    w_star = "[" + ", ".join(repr(float(x)) for x in problem.w_star) + "]"
    text = FED_VALID.replace("run: {", f"run: {{w0: {w_star}, ")
    with pytest.raises(ConfigError) as parsed:
        parse_config(text)
    assert parsed.value.violations == [
        "requires trajectory_radius > 0 (trajectory_radius = 0.0, the default 2 |w0 - w*|)"
    ]
    with pytest.raises(ConfigError) as ran:
        run_deed_fed(problem, 3, 1000.0, 100000.0, 1.0, 8, mc_runs=2, w0=problem.w_star)
    assert ran.value.violations == parsed.value.violations
    # An explicit radius, or any other start, still parses.
    parse_config(text.replace("gamma: 100000.0}", "gamma: 100000.0, trajectory_radius: 1.0}"))
    parse_config(FED_VALID.replace("run: {", "run: {w0: [0.5, 0, 0, 0, 0, 0], "))


@pytest.mark.parametrize(
    "text",
    [
        MINIMAL.replace("iterations: 50", "iterations: -1"),
        MINIMAL.replace("deed-gd", "gd").replace("quant: {s: 0.1, c_prime: 0.9}\n", "")
        .replace("iterations: 50", "iterations: -1"),
        FED_VALID.replace("rounds: 8", "rounds: -1"),
    ],
    ids=["deed-gd", "gd", "deed-fed"],
)
def test_negative_horizon_rejected(text):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == ["requires T >= 0 (T = -1)"]


def test_zero_horizon_runs_one_row(tmp_path):
    result = cmd_run(
        parse_config(MINIMAL.replace("iterations: 50", "iterations: 0")), str(tmp_path)
    )
    assert result.ok
    assert len(result.traces[0].t) == 1
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == 2


def test_fed_zero_rounds_runs_one_row(tmp_path):
    # With no sync row the envelope check raised a bare ValueError after the run.
    result = cmd_run(parse_config(FED_VALID.replace("rounds: 8", "rounds: 0")), str(tmp_path))
    assert result.ok
    assert [len(tr.t) for tr in result.traces] == [1, 1]
    assert json.loads((tmp_path / "summary.json").read_text())["bounds_ok"] is True
    assert len((tmp_path / "bound.csv").read_text().splitlines()) == 2


W0_STRINGS = "run: {iterations: 50, w0: [" + ", ".join(["x"] * 10) + "]}"


@pytest.mark.parametrize(
    ("text", "message"),
    [
        (MINIMAL.replace("kappa: 4.0", "kappa: .nan"), "problem.kappa must be finite (kappa = nan)"),
        (MINIMAL.replace("kappa: 4.0", "kappa: 4.0, noise_scale: .inf"),
         "problem.noise_scale must be finite (noise_scale = inf)"),
        (MINIMAL.replace("kappa: 4.0", "kappa: 4.0, weights: [a, b]"),
         "problem.weights must be a list of finite numbers"),
        (MINIMAL.replace("seed: 1", "seed: -1"), "problem.seed must be >= 0 (seed = -1)"),
        (MINIMAL.replace("run: {iterations: 50}", W0_STRINGS),
         "run.w0 must be a list of finite numbers"),
        (MINIMAL.replace("s: 0.1", "s: .nan"), "quant.s must be finite (s = nan)"),
        (FED_VALID.replace("gamma: 100000.0", "gamma: .inf"),
         "fed.gamma must be finite (gamma = inf)"),
    ],
    ids=["kappa-nan", "noise_scale-inf", "weights-strings", "seed-negative", "w0-strings",
         "s-nan", "gamma-inf"],
)
def test_nonfinite_or_nonnumeric_values_named_at_parse(text, message):
    # Each of these raised a bare numpy or ValueError (kappa, noise_scale,
    # weights, seed), failed only at run time (w0, s), or ran to a NaN
    # envelope reported as met (gamma).
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations[0] == message


@pytest.mark.parametrize(
    "text",
    [
        MINIMAL.replace("deed-gd", "gd").replace(
            "quant: {s: 0.1, c_prime: 0.9}", "quant: {float_bits: -5}"
        ),
        MINIMAL.replace("s: 0.1", "s: 0, float_bits: -7"),
        MINIMAL.replace("s: 0.1", "s: 0.1, float_bits: 0"),
    ],
    ids=["gd", "deed-gd-lossless", "deed-gd"],
)
def test_nonpositive_float_bits_rejected(text):
    # The float width is no knob: a lossless message is charged 32 bits per
    # coordinate, so float_bits is an unknown key, whatever its value.
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == ["unknown key quant.float_bits"]


def test_float_bits_key_unknown():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("s: 0.1", "s: 0.1, float_bits: 64"))
    assert err.value.violations == ["unknown key quant.float_bits"]


def _engine_error(text, key, value):
    """The message the engine raises for the parsed config ``text`` with
    its run block's ``key`` set to ``value``, run through the config's
    own dispatch."""
    cfg = parse_config(text)
    cfg.run[key] = value
    with pytest.raises((ConfigError, InvalidInputError)) as err:
        cfg.spec.run(cfg, seed=cfg.run["master_seed"], w0=cfg.run["w0"])
    return str(err.value)


@pytest.mark.parametrize(
    ("text", "key", "value", "message"),
    [
        (SGD_CFG, "mc_runs", 0, "requires mc_runs >= 1 (mc_runs = 0)"),
        (SGD_CFG, "mc_runs", -1, "requires mc_runs >= 1 (mc_runs = -1)"),
        (SGD_CFG, "master_seed", -1, "requires seed >= 0 (seed = -1)"),
        (FED_VALID, "mc_runs", 0, "requires mc_runs >= 1 (mc_runs = 0)"),
        (FED_VALID, "master_seed", -1, "requires seed >= 0 (seed = -1)"),
        (MINIMAL, "master_seed", -1, "requires seed >= 0 (seed = -1)"),
        (MINIMAL, "w0", [1, 2, 3], "w0 must have dim 10 (got shape (3,))"),
        (FED_VALID, "w0", [1.0] * 7, "w0 must have dim 6 (got shape (7,))"),
    ],
    ids=["sgd-mc_runs-0", "sgd-mc_runs-negative", "sgd-seed", "fed-mc_runs-0", "fed-seed",
         "gd-seed", "gd-w0", "fed-w0"],
)
def test_run_parameter_checked_once_by_the_engine(text, key, value, message):
    # The parser reports the engine's own message, once, and nothing else:
    # a w0 of the wrong length leaves deed-fed's default radius to 2 |w*|.
    assert _engine_error(text, key, value) == message
    import yaml

    data = yaml.safe_load(text)
    data["run"][key] = value
    with pytest.raises(ConfigError) as err:
        parse_config(yaml.safe_dump(data))
    assert err.value.violations == [message]


@pytest.mark.parametrize(
    ("old", "new", "message"),
    [
        ("mc_runs: 3", "mc_runs: null", "run.mc_runs must not be null"),
        ("master_seed: 5", "master_seed: null", "run.master_seed must not be null"),
        ("master_seed: 5", "master_seed: -1", "requires seed >= 0 (seed = -1)"),
        ("interpolating: true", "interpolating: true, l_spread: null",
         "problem.l_spread must not be null"),
        ("interpolating: true", "interpolating: null", "problem.interpolating must not be null"),
    ],
    ids=["mc_runs-null", "master_seed-null", "master_seed-negative", "l_spread-null",
         "interpolating-null"],
)
def test_null_or_negative_defaulted_keys_rejected(old, new, message):
    # The first four used to raise a bare TypeError or ValueError, not a
    # ConfigError; a null interpolating flag used to parse and run as false.
    with pytest.raises(ConfigError) as err:
        parse_config(SGD_CFG.replace(old, new))
    assert err.value.violations == [message]


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\nturbo: true\n")
    assert any("unknown key turbo" in v for v in err.value.violations)
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("s: 0.1", "s: 0.1, warp: 9"))
    assert any("unknown key quant.warp" in v for v in err.value.violations)


def test_fed_block_rejected_without_deed_fed():
    # Only deed-fed reads the block; under another algorithm it was ignored.
    fed = "fed: {local_steps: 3, participation: with-replacement, k_participants: 9}\n"
    for text, algorithm in ((MINIMAL, "deed-gd"), (SGD_CFG, "deed-sgd")):
        with pytest.raises(ConfigError) as err:
            parse_config(text + fed)
        assert err.value.violations == [f"{algorithm} reads no fed block; only deed-fed takes one"]
    # The fed defaults filled in when the block is absent do not trigger it.
    assert parse_config(MINIMAL).fed["participation"] == "full"


CONST_CFG = MINIMAL.replace("deed-gd", "const-quant-gd").replace(
    "quant: {s: 0.1, c_prime: 0.9}", "quant: {fixed_eps: 0.5}"
)
GD_CFG = MINIMAL.replace("deed-gd", "gd").replace("quant: {s: 0.1, c_prime: 0.9}\n", "")
CONFIGS = {
    "deed-gd": MINIMAL,
    "a-deed-gd": MINIMAL.replace("deed-gd", "a-deed-gd"),
    "deed-sgd": SGD_CFG,
    "deed-fed": FED_VALID,
    "gd": GD_CFG,
    "agd": GD_CFG.replace("algorithm: gd", "algorithm: agd"),
    "const-quant-gd": CONST_CFG,
}
UNREAD_KEYS = (
    [(a, "run", "mc_runs", 2) for a in ("deed-gd", "a-deed-gd", "gd", "agd", "const-quant-gd")]
    + [(a, "quant", "fixed_eps", 0.5) for a in CONFIGS if a != "const-quant-gd"]
    + [(a, "quant", key, value) for a in ("gd", "agd", "const-quant-gd")
       for key, value in (("s", 0.1), ("c_prime", 0.9))]
)


@pytest.mark.parametrize(
    "algorithm,block,key,value", UNREAD_KEYS, ids=[f"{a}-{k}" for a, _, k, _ in UNREAD_KEYS]
)
def test_keys_an_algorithm_never_reads_rejected(algorithm, block, key, value):
    import yaml

    data = yaml.safe_load(CONFIGS[algorithm])
    parse_config(yaml.safe_dump(data))
    assert key not in (data.get(block) or {})
    data.setdefault(block, {})[key] = value
    with pytest.raises(ConfigError) as err:
        parse_config(yaml.safe_dump(data))
    why = "; only deed-sgd and deed-fed take Monte Carlo runs" if key == "mc_runs" else ""
    assert err.value.violations == [f"{algorithm} does not read {block}.{key}{why}"]


def test_keys_an_algorithm_reads_still_parse():
    # Monte Carlo runs where the engine takes them, and deed-fed's unread
    # c_prime, which the benchmark's fed-local template still sets.
    assert parse_config(SGD_CFG).run["mc_runs"] == 3
    assert parse_config(FED_VALID).run["mc_runs"] == 2
    assert parse_config(FED_VALID).quant["c_prime"] == 0.9
    assert parse_config(CONST_CFG).quant["fixed_eps"] == 0.5


@pytest.mark.parametrize("mode", ["star-full", "fully-connected"])
@pytest.mark.parametrize(
    "text",
    [MINIMAL, MINIMAL.replace("deed-gd", "a-deed-gd"), SGD_CFG, FED_VALID, CONST_CFG],
    ids=["deed-gd", "a-deed-gd", "deed-sgd", "deed-fed", "const-quant-gd"],
)
def test_counting_mode_rejected_outside_lossless_baselines(text, mode):
    # The double-encoded and fixed-budget engines charge their quantized
    # payloads; no engine takes a counting convention.
    parse_config(text)
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("run: {", f"run: {{counting_mode: {mode}, "))
    assert err.value.violations == ["unknown key run.counting_mode"]


@pytest.mark.parametrize("algorithm", ["gd", "agd"])
def test_counting_mode_on_lossless_baselines(algorithm):
    # The lossless baselines charge star-full only, the one convention of
    # every engine, and take no key to re-price it.
    text = GD_CFG.replace("algorithm: gd", f"algorithm: {algorithm}")
    parse_config(text)
    for mode in ("star-full", "fully-connected", "x2"):
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace("run: {", f"run: {{counting_mode: {mode}, "))
        assert err.value.violations == ["unknown key run.counting_mode"]


def test_all_violations_reported():
    text = """
algorithm: deed-gd
problem: {seed: 1, d: 10, n_nodes: 2, kappa: 4.0, rows_per_node: 12}
quant: {s: -1.0, c_prime: 1.5}
run: {iterations: 10, mc_runs: 0}
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    text_all = "; ".join(err.value.violations)
    assert "s >= 0" in text_all
    assert "c < c' < 1" in text_all or "c_prime" in text_all
    assert "mc_runs" in text_all


@pytest.mark.parametrize(
    "old, new, violation",
    [
        ("kappa: 4.0", "kappa: abc", "problem.kappa has type str, expected (<class 'int'>, "
         "<class 'float'>)"),
        ("kappa: 4.0", "kappa: .nan", "problem.kappa must be finite (kappa = nan)"),
        ("s: 0.1", "s: .nan", "quant.s must be finite (s = nan)"),
        ("d: 10", "d: true", "problem.d must not be a boolean"),
    ],
    ids=["kappa-str", "kappa-nan", "s-nan", "d-bool"],
)
def test_rejected_key_reported_once(old, new, violation):
    # A required key that _check_block rejects is not missing as well.
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace(old, new))
    assert err.value.violations == [violation]


@pytest.mark.parametrize("text", ["kappa: null, ", ""], ids=["null", "absent"])
def test_missing_required_key_still_reported(text):
    minimal = MINIMAL.replace("kappa: 4.0, ", text)
    with pytest.raises(ConfigError) as err:
        parse_config(minimal.replace("s: 0.1, ", text.replace("kappa", "s")))
    assert err.value.violations == ["problem.kappa is required", "quant.s is required for deed-gd"]


def test_schema_docstring_names_every_key():
    # The schema block of the config module's docstring lists exactly the
    # keys parse_config accepts, so no retired key stays documented.
    import re

    import deedsim.config as config

    schema = config.__doc__.split("Schema", 1)[1]
    documented, block = {}, None
    for line in schema.splitlines():
        header = re.match(r"    (\w+):", line)
        if header:
            block = header.group(1)
            documented[block] = set()
        elif line.startswith("      ") and block is not None:
            documented[block] |= set(re.findall(r"(\w+)\*?:", line))
    want = {name: set(keys) for name, keys in config._SCHEMA.items()}
    assert documented == {"algorithm": set(), **want}


def test_sgd_config_requires_interpolation():
    with pytest.raises(ConfigError) as err:
        parse_config(SGD_CFG.replace("interpolating: true", "interpolating: false"))
    assert any("interpolating" in v for v in err.value.violations)


@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-1000, 1000),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.text(max_size=8),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=12,
    )
)
@settings(max_examples=150, deadline=None)
def test_parser_never_panics(data):
    import yaml

    try:
        parse_config(yaml.safe_dump(data))
    except ConfigError:
        pass  # the only acceptable failure mode


def test_parser_rejects_garbage_text():
    with pytest.raises(ConfigError):
        parse_config(":\n  - {")
    with pytest.raises(ConfigError):
        parse_config("[1, 2, 3]")


def test_cmd_run_writes_outputs(tmp_path):
    cfg = parse_config(MINIMAL)
    result = cmd_run(cfg, out_dir=str(tmp_path))
    assert result.ok
    names = sorted(os.path.basename(p) for p in result.files)
    assert names == ["bound.csv", "summary.json", "trace.csv"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["bounds_ok"] is True
    assert summary["algorithm"] == "deed-gd"
    # Bit totals equal the trace ledger sum exactly.
    tr = result.traces[0]
    assert summary["total_bits"] == int(tr.bits_up.sum() + tr.bits_down.sum())


def test_cmd_run_deterministic_bytes(tmp_path):
    cfg = parse_config(SGD_CFG)
    a = tmp_path / "a"
    b = tmp_path / "b"
    cmd_run(cfg, out_dir=str(a))
    cmd_run(parse_config(SGD_CFG), out_dir=str(b))
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_weighted_gd_reaches_its_own_optimum():
    # The node weights define w*; an engine that averaged the nodes
    # uniformly would stop 10.8 away from it on this problem.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "gd_baseline.yaml")
    with open(path) as fh:
        text = fh.read()
    weights = [0.5] + [0.5 / 9] * 9
    line = "  l_spread: 3.125\n"
    cfg = parse_config(text.replace(line, f"{line}  weights: {weights}\n"))
    assert cfg.problem.weights.tolist() == weights
    (trace,) = execute(cfg).traces
    assert trace.dist[-1] < 1e-9 * trace.dist[0]
    assert trace.fgap[-1] < 1e-12


KAPPA_ONE = """
algorithm: ALGORITHM
problem: {seed: 2, d: 1, n_nodes: 6, kappa: 1.0, rows_per_node: 4, interpolating: true}
quant: {fixed_eps: 0.5}
run: {iterations: 30}
"""


@pytest.mark.parametrize("algorithm", ["gd", "const-quant-gd"])
def test_run_at_zero_contraction_writes_its_bound(tmp_path, algorithm):
    # kappa = 1 at the default eta = 2/(L+mu) gives c = 1 - eta mu = 0
    # exactly, a one-step contraction whose recursion bound is defined.
    text = KAPPA_ONE.replace("ALGORITHM", algorithm)
    if algorithm == "gd":
        text = text.replace("quant: {fixed_eps: 0.5}\n", "")
    cfg = parse_config(text)
    assert 1.0 - cfg.eta * cfg.problem.mu == 0.0
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["bound.csv", "summary.json", "trace.csv"]
    assert json.loads((out / "summary.json").read_text())["bounds_ok"] is True


def test_summary_marks_unreached_thresholds(tmp_path):
    text = """
algorithm: const-quant-gd
problem: {seed: 4, d: 10, n_nodes: 2, kappa: 4.0, rows_per_node: 12, w_star_scale: 5.0, noise_scale: 1.0}
quant: {fixed_eps: 2.0}
run: {iterations: 300}
"""
    cfg = parse_config(text)
    result = cmd_run(cfg, out_dir=str(tmp_path))
    summary = result.summary()
    assert summary["bits_to_accuracy"]["1e-08"] == "unreached"


def _trip_envelope_at_20(monkeypatch):
    """Shrink the deed-gd envelope from row 20 on, so the real check trips
    there, and count engine calls."""
    import deedsim.engine as eng

    real_bound, real_run = eng.deterministic_bound, eng.run_deed_gd
    calls = []

    def shrunk(*args, **kwargs):
        series = real_bound(*args, **kwargs)
        series.bound[20:] *= 1e-9
        return series

    def counted(*args, **kwargs):
        calls.append(1)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(eng, "deterministic_bound", shrunk)
    monkeypatch.setattr(eng, "run_deed_gd", counted)
    return calls


def test_cmd_run_reports_violation(tmp_path, monkeypatch):
    # An envelope violation surfaces with the offending row, and the trace
    # simulated by the one engine call is delivered unchanged.
    cmd_run(parse_config(MINIMAL), out_dir=str(tmp_path / "clean"))
    calls = _trip_envelope_at_20(monkeypatch)
    result = cmd_run(parse_config(MINIMAL), out_dir=str(tmp_path / "tripped"))
    assert not result.ok
    assert len(calls) == 1
    summary = result.summary()
    assert summary["bounds_ok"] is False
    assert summary["violation"]["kind"] == "deed-gd envelope"
    assert summary["violation"]["t"] == 20
    assert (tmp_path / "tripped" / "trace.csv").read_bytes() == (
        tmp_path / "clean" / "trace.csv"
    ).read_bytes()
    # The offending values are JSON numbers, not reprs of numpy scalars.
    written = json.loads((tmp_path / "tripped" / "summary.json").read_text())
    for violation in (summary["violation"], written["violation"]):
        assert type(violation["observed"]) is float
        assert type(violation["allowed"]) is float
        assert violation["observed"] > violation["allowed"] > 0


def test_cli_exit_code_on_violation(tmp_path, monkeypatch, capsys):
    calls = _trip_envelope_at_20(monkeypatch)
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL)
    rc = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert len(calls) == 1
    assert "BOUND VIOLATION: deed-gd envelope at t=20" in capsys.readouterr().err


def test_cli_names_a_nan_bound(tmp_path, monkeypatch, capsys):
    # NaN compares false, so the violation line names it rather than
    # printing a comparison that reads as false.
    import deedsim.engine as eng

    real_bound = eng.deterministic_bound

    def nan_at_20(*args, **kwargs):
        series = real_bound(*args, **kwargs)
        series.bound[20] = np.nan
        return series

    monkeypatch.setattr(eng, "deterministic_bound", nan_at_20)
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "BOUND VIOLATION: deed-gd envelope at t=20: NaN allowed value (observed " in (
        capsys.readouterr().err
    )


def _strict_loads(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_summary_with_a_nan_violation_is_strict_json(tmp_path, monkeypatch, capsys):
    import deedsim.engine as eng

    real_bound = eng.deterministic_bound

    def nan_at_20(*args, **kwargs):
        series = real_bound(*args, **kwargs)
        series.bound[20] = np.nan
        return series

    monkeypatch.setattr(eng, "deterministic_bound", nan_at_20)
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    summary = _strict_loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["violation"]["allowed"] == "NaN" and summary["violation"]["t"] == 20
    assert _strict_loads(capsys.readouterr().out) == summary


def test_strict_json_names_every_nonfinite_float():
    from deedsim.harness import strict_json

    text = strict_json({"x": [np.inf, -math.inf, np.float64("nan"), np.float32("nan"), 1.5]})
    assert _strict_loads(text) == {"x": ["Infinity", "-Infinity", "NaN", "NaN", 1.5]}
    value = {"b": [1, 2.5, None, True], "a": {"c": np.float64(0.1)}}
    assert strict_json(value, indent=2, sort_keys=True) == json.dumps(
        value, indent=2, sort_keys=True, default=float
    )


def test_midrun_violation_propagates(tmp_path, monkeypatch):
    # A budget violation raised during the simulation carries no traces,
    # so there is nothing to deliver: it propagates from the one run.
    import deedsim.engine as eng
    from deedsim.errors import BoundViolationError

    calls = _trip_envelope_at_20(monkeypatch)

    def broken(v_k, gbar, budget, round_index):
        raise BoundViolationError("aggregate error budget", round_index, 1.0, 0.5)

    monkeypatch.setattr(eng, "_assert_budget", broken)
    with pytest.raises(BoundViolationError, match="aggregate error budget") as err:
        cmd_run(parse_config(MINIMAL), out_dir=str(tmp_path))
    assert err.value.traces is None
    assert len(calls) == 1


def test_compare_requires_matching_problems():
    a = parse_config(MINIMAL)
    b = parse_config(MINIMAL.replace("seed: 1", "seed: 2"))
    with pytest.raises(ConfigError, match="identical problem blocks"):
        cmd_compare([a, b])
    with pytest.raises(ConfigError, match="at least two"):
        cmd_compare([a])


def test_compare_table_and_ordering():
    gd_text = MINIMAL.replace("deed-gd", "gd").replace(
        "quant: {s: 0.1, c_prime: 0.9}", ""
    ).replace("iterations: 50", "iterations: 400")
    deed_text = MINIMAL.replace("iterations: 50", "iterations: 400").replace(
        "s: 0.1", "s: 5.0"
    )
    table = cmd_compare([parse_config(deed_text), parse_config(gd_text)],
                        check_order=True)
    assert table["rows"][0]["algorithm"] == "deed-gd"
    reached = [
        (table["rows"][0]["bits_to_accuracy"][k], table["rows"][1]["bits_to_accuracy"][k])
        for k in table["thresholds"]
    ]
    assert any(a is not None and b is not None for a, b in reached)
    assert table["order_ok"], table["order_failures"]


def test_cli_run_and_verify(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL)
    rc = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bounds_ok"] is True

    rc = main(["bound", str(path), "--out", str(tmp_path / "out2")])
    assert rc == 0
    assert (tmp_path / "out2" / "bound.csv").exists()

    rc = main(["verify", "nonsense"])
    assert rc == 2


SCALAR_CFG = """
algorithm: deed-gd
problem: {seed: 1, d: 1, n_nodes: 1, kappa: 1.0, rows_per_node: 1, interpolating: true}
quant: {s: 1.0, c_prime: 0.5}
run: {iterations: 40, eta: 1.0, w0: [1.0]}
"""


@pytest.mark.parametrize("command", ["run", "bound"])
def test_output_directory_priority(command, tmp_path, monkeypatch, capsys):
    # --out, then output.dir, then $DEEDSIM_OUT_DIR, then ./deedsim_out.
    monkeypatch.chdir(tmp_path)
    flag, block, env = tmp_path / "flag", tmp_path / "block", tmp_path / "env"
    monkeypatch.setenv("DEEDSIM_OUT_DIR", str(env))
    path = tmp_path / "cfg.yaml"
    with_block = MINIMAL + f"output: {{dir: '{block}'}}\n"
    expected = []
    for text, extra, out in [
        (with_block, ["--out", str(flag)], flag),
        (with_block, [], block),
        (MINIMAL, [], env),
        (MINIMAL, [], tmp_path / "deedsim_out"),
    ]:
        if out.name == "deedsim_out":
            monkeypatch.delenv("DEEDSIM_OUT_DIR")
        path.write_text(text)
        assert main([command, str(path), *extra]) == 0
        expected.append(out)
        assert sorted(p.parent for p in tmp_path.glob("*/bound.csv")) == sorted(expected)
    capsys.readouterr()


def test_cli_scalar_end_to_end(tmp_path, capsys):
    # 1-D oracle problem: two CSVs plus a summary, exit code 0.
    path = tmp_path / "scalar.yaml"
    path.write_text(SCALAR_CFG)
    rc = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "trace.csv").exists()
    assert (tmp_path / "out" / "bound.csv").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["bounds_ok"] is True
    capsys.readouterr()


def test_cli_rejects_bad_config(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(MINIMAL.replace("c_prime: 0.9", "c_prime: 0.2"))
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2


def test_cli_compare(tmp_path, capsys):
    a = tmp_path / "a.yaml"
    b = tmp_path / "b.yaml"
    a.write_text(MINIMAL.replace("iterations: 50", "iterations: 200").replace("s: 0.1", "s: 5.0"))
    b.write_text(
        MINIMAL.replace("deed-gd", "gd")
        .replace("quant: {s: 0.1, c_prime: 0.9}", "")
        .replace("iterations: 50", "iterations: 200")
    )
    rc = main(["compare", str(a), str(b), "--check-order"])
    assert rc == 0
    table = json.loads(capsys.readouterr().out)
    assert [r["algorithm"] for r in table["rows"]] == ["deed-gd", "gd"]


def test_cli_bound_without_envelope(tmp_path, capsys):
    # agd at kappa = 1 has c = 0, where the momentum envelope degenerates.
    text = SCALAR_CFG.replace("deed-gd", "agd").replace("eta: 1.0, ", "")
    path = tmp_path / "agd.yaml"
    path.write_text(text.replace("quant: {s: 1.0, c_prime: 0.5}\n", ""))
    assert main(["bound", str(path), "--out", str(tmp_path)]) == 1
    assert "agd at kappa = 1" in capsys.readouterr().err
    assert not (tmp_path / "bound.csv").exists()


def _refuse_certification(monkeypatch):
    """Make every ``estimate_rho`` call of the engine and the parser fail."""
    from deedsim import config, engine

    def refuse(problem):
        raise AssertionError("certified a call that is rejected")

    monkeypatch.setattr(engine, "estimate_rho", refuse)
    monkeypatch.setattr(config, "estimate_rho", refuse)


@pytest.mark.parametrize(
    ("old", "new", "message"),
    [
        ("master_seed: 5", "master_seed: 1.5", "run.master_seed has type float"),
        ("master_seed: 5", "master_seed: -1", "requires seed >= 0 (seed = -1)"),
        ("mc_runs: 3", "mc_runs: 0", "requires mc_runs >= 1 (mc_runs = 0)"),
        ("iterations: 60", "iterations: -1", "requires T >= 0 (T = -1)"),
    ],
    ids=["seed-float", "seed-negative", "mc_runs-0", "iterations-negative"],
)
def test_rejected_config_certifies_nothing(monkeypatch, old, new, message):
    _refuse_certification(monkeypatch)
    with pytest.raises(ConfigError) as err:
        parse_config(SGD_CFG.replace(old, new))
    assert [v for v in err.value.violations if message in v] == err.value.violations


@pytest.mark.parametrize(
    ("params", "message"),
    [
        ({"seed": 1.5}, "requires an integer seed (seed = 1.5)"),
        ({"mc_runs": 0}, "requires mc_runs >= 1 (mc_runs = 0)"),
        ({"T": -1}, "requires T >= 0 (T = -1)"),
    ],
    ids=["seed-float", "mc_runs-0", "T-negative"],
)
def test_rejected_sgd_call_certifies_nothing(monkeypatch, params, message):
    from deedsim.engine import run_deed_sgd

    problem = parse_config(SGD_CFG).problem
    _refuse_certification(monkeypatch)
    call = {"c_prime": 0.999, "s": 1.0, "T": 60, "seed": 5, "mc_runs": 3, **params}
    with pytest.raises(ConfigError) as err:
        run_deed_sgd(problem, **call)
    assert err.value.violations == [message]


def test_valid_sgd_run_certifies_once(monkeypatch, tmp_path):
    from deedsim import config, engine

    calls = []
    real = config.estimate_rho

    def counted(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(engine, "estimate_rho", counted)
    monkeypatch.setattr(config, "estimate_rho", counted)
    result = cmd_run(parse_config(SGD_CFG), str(tmp_path))
    assert len(calls) == 1
    assert len(result.traces) == 3 and result.violation is None


@pytest.mark.parametrize("runs", [2, 3, 7, 8, 9, 16, 17, 30, 31, 100, 129])
def test_mean_squared_csv_matches_a_per_column_reference(runs):
    # mean_squared.csv's means and standard errors, against each row t
    # reduced on its own column of the (runs, rows) stack of squares.
    from deedsim.harness import _mean_squared_csv
    from deedsim.trace import RunTrace

    rng = np.random.default_rng(runs)
    rows = 61
    traces = []
    for _ in range(runs):
        dist = np.exp(rng.normal(scale=8.0, size=rows))
        zeros = np.zeros(rows, dtype=np.int64)
        traces.append(RunTrace("mc", np.arange(rows), dist, dist, zeros, zeros, dist))
    sq = np.stack([tr.dist**2 for tr in traces])
    se = sq.std(axis=0, ddof=1) / math.sqrt(runs)
    want = "t,mean_sq_dist,se\n" + "".join(
        f"{t},{sq[:, t].mean():.17g},{se[t]:.17g}\n" for t in range(rows))
    assert _mean_squared_csv(traces) == want
