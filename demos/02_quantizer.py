"""The unbiased absolute-error quantizer.

A vector is snapped onto a grid of step max_error/sqrt(d) by stochastic
rounding.  Two facts drive everything downstream: the decoded point is
always within max_error of the input (a hard guarantee, not an
expectation), and its mean over the dither equals the input exactly.
"""

import numpy as np

from deedsim import QuantSpec, bits_lower_bound, bits_upper_bound, quantize
from deedsim.quantizer import grid_point

rng = np.random.default_rng(42)
d = 64
w = rng.standard_normal(d)
w /= np.linalg.norm(w)

print("hard error bound and measured payload, unit-norm input, dim 64:")
print(f"{'max_error':>10} {'measured err':>13} {'payload bits':>13} "
      f"{'floor':>7} {'achievable':>11}")
for eps in (1.0, 0.5, 0.25, 0.1, 0.05):
    msg = quantize(w, QuantSpec(eps, d), rng)
    err = np.linalg.norm(msg.decoded - w)
    print(f"{eps:10.2f} {err:13.4f} {msg.bits:13d} "
          f"{bits_lower_bound(d, eps):7d} {bits_upper_bound(d, eps):11d}")

print("\nunbiasedness: mean of 200k quantizations vs the input (dim 4):")
w = np.array([0.3, -1.7, 0.05, 2.2])
spec = QuantSpec(0.8, 4)
acc = np.zeros(4)
M = 200_000
for _ in range(M):
    acc += grid_point(w, spec, rng) * spec.grid_step  # the decoded vector
print(f"  input : {w}")
print(f"  mean  : {np.round(acc / M, 5)}")
print(f"  |dev| : {np.abs(acc / M - w).max():.2e} "
      f"(dither std/sqrt(M) ~ {spec.grid_step / 2 / np.sqrt(M):.2e})")

print("\non-grid inputs reproduce exactly, with zero randomness:")
on_grid = np.array([3, -5, 0, 12]) * spec.grid_step
outs = {quantize(on_grid, spec, np.random.default_rng(s)).decoded.tobytes()
        for s in range(10)}
print(f"  10 seeds -> {len(outs)} distinct output(s); "
      f"exact: {np.array_equal(quantize(on_grid, spec, rng).decoded, on_grid)}")
