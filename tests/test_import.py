"""``import deedsim`` loads neither scipy nor yaml; the solvers still work
once they import them on first use, and fed certification never loads
``scipy.optimize``."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = r"""
import sys

import deedsim, deedsim.cli

heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml"))
assert not heavy, f"import deedsim loaded {heavy}"

from deedsim import estimate_fed_constants, estimate_rho, make_linreg
from deedsim import problems

# Count the trust-region roots, so the scipy.optimize check below is not vacuous.
roots = []
brentq = problems._brentq
problems._brentq = lambda *args, **kw: roots.append(brentq(*args, **kw)) or roots[-1]

# Non-interpolating: the optimum comes from the Cholesky solve.
noisy = make_linreg(seed=3, d=4, N=3, target_kappa=3.0, rows_per_node=6, interpolating=False,
                    noise_scale=1.0)
assert not noisy.interpolating
consts = estimate_fed_constants(noisy, 2, 2, "without-replacement", 1.0)
assert (consts.sigma_sq > 0).all() and consts.G_sq > 0, consts
assert len(roots) == 6, roots
exact = make_linreg(seed=4, d=4, N=2, target_kappa=2.0, rows_per_node=6, interpolating=True)
assert estimate_rho(exact) >= 1.0
assert "scipy.linalg" in sys.modules
assert "scipy.optimize" not in sys.modules, "fed certification loaded scipy.optimize"

deedsim.parse_config("algorithm: gd\nproblem: {seed: 1, d: 3, n_nodes: 2, kappa: 2.0, "
                     "rows_per_node: 4}\nrun: {iterations: 1}\n")
assert "yaml" in sys.modules
print("ok")
"""


def test_import_loads_no_scipy_or_yaml_and_solvers_import_them():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
