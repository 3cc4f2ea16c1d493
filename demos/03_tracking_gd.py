"""Difference-coded descent rides its exact baseline.

Ten workers hold slices of a least-squares problem whose global Hessian
has condition number 16.  Each round they ship quantized gradient
*differences* under a budget that shrinks geometrically (s c'^{k+1}),
and the center broadcasts a re-quantized aggregate.  With a budget this
tight the loss curve is indistinguishable from exact gradient descent;
message precision simply follows the budget.  (Trading a little
tracking for large bit savings is the point of demo 04, where the
budget scale is matched to the problem.)
"""

import numpy as np

from deedsim import make_linreg, run_deed_gd, run_exact_gd

problem = make_linreg(
    seed=20250811, d=100, N=10, target_kappa=16.0, rows_per_node=100,
    interpolating=False, w_star_scale=300.0, noise_scale=10.0, l_spread=3.125,
)
eta = float(np.min(1.0 / problem.L_i))
T = 800

exact = run_exact_gd(problem, eta, T, seed=1)
coded = run_deed_gd(problem, eta, 0.95, 0.01, T, seed=1)

print(f"{'t':>5} {'loss gap (exact)':>18} {'loss gap (coded)':>18} "
      f"{'rel dev':>9} {'round bits':>11}")
for t in range(0, T + 1, 100):
    bits = int(coded.bits_up[t] + coded.bits_down[t])
    dev = abs(coded.fgap[t] - exact.fgap[t]) / exact.fgap[t]
    print(f"{t:5d} {exact.fgap[t]:18.6e} {coded.fgap[t]:18.6e} {dev:9.2%} {bits:11d}")

dev = np.abs(coded.fgap[10:] - exact.fgap[10:]) / exact.fgap[10:]
print(f"\nmax relative deviation after iteration 10: {dev.max():.4%}")
print(f"total bits, coded run : {coded.total_bits:>12,d}")
print(f"total bits, exact (32-bit floats): {exact.total_bits:>12,d}")
