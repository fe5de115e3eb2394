"""
Interpolation and regression with kernel sections
=================================================

Fitting data (x_m, y_m) with a max of kernel sections
f0(x) = max_m [b(x, p_m) + c_m] reduces to finitely many choices: pick one
dual anchor p_m per sample, check the exchange inequalities, and read the
offsets off the data.  Infeasible data gets a certificate (the first sample
no anchor can serve); noisy data gets the minimal perturbation that
restores feasibility, under either the sup-norm or the l1 loss.
"""

import numpy as np

from tropkern import (
    ClosedFormKernel,
    InfeasibleConstraintsError,
    PointSet,
    SampleSet,
    build_f0,
    feasible_witnesses,
    regress,
)

conv = ClosedFormKernel("conv")
duals = PointSet([-1.0, 0.0, 1.0])

# Convex data: interpolation succeeds and the interpolant is the max of
# two supporting lines, max(0, x-1).
convex = SampleSet(PointSet([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]), duals)
wit = feasible_witnesses(convex, conv)
# The anchors are one (n, d) array, one row per sample.
print("anchors:", wit.witnesses[:, 0].tolist())

f0 = build_f0(convex, wit, conv)
xs = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
print("f0 on", xs, "->", [f0(x) for x in xs])
print("reproduces every sample:",
      all(f0(x) == y for x, y in zip([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])))

# Concave data: no convex function interpolates it; the middle sample is
# the one nothing can serve, and the error names it.
concave = SampleSet(PointSet([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]), duals)
try:
    feasible_witnesses(concave, conv)
except InfeasibleConstraintsError as exc:
    print("\nconcave data refused:", exc, "| blocking sample (0-based):", exc.blocking_index)

# Regression instead: perturb the targets as little as possible.  The best
# sup-norm fit flattens the bump to its average, at distance 0.5.
fit = regress(concave, conv, loss="sup_norm")
print("\nsup-norm fit:", np.round(fit.y_star, 6), "| loss:", fit.loss_value)
print("its anchors:", fit.p_star[:, 0].tolist(), "| offsets:", fit.interpolant.offsets.tolist())
print("optimal over all candidate anchors:", fit.exact)

# The l1 fit of each anchor assignment is exact too (a min-cost flow); here
# it keeps the two outer targets and lowers the bump to them, at distance 1.
fit_l1 = regress(concave, conv, loss="l1")
print("l1 fit:", np.round(fit_l1.y_star, 6), "| loss:", fit_l1.loss_value)

# Anchors can also be pinned by hand; feasibility is then a pure
# difference-constraint system and the fit is certified.
pinned = regress(concave, conv, loss="sup_norm", fixed_p=(0.0, 0.0, 0.0))
print("\npinned anchors (0,0,0) loss:", pinned.loss_value, "| exact:", pinned.exact)
