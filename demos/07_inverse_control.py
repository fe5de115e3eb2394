"""
Inverse control: recovering costs from observed values
======================================================

Two inverse workflows.  Stopping costs: given the optimal values of a
stop-anywhere problem at a few states, rebuild a stopping cost that
reproduces those observations and bounds the rest.  Terminal costs: given
the cost-to-go at a few initial states, rebuild a terminal cost whose
regenerated value function interpolates the observations and dominates the
true one everywhere.
"""

import numpy as np

from tropkern import (
    GramKernel,
    GridFunction,
    InfeasibleConstraintsError,
    LagrangianSpec,
    MaupertuisProblem,
    PointSet,
    SampleSet,
    invert_terminal_cost,
    maupertuis_dp,
    reconstruct_stopping_cost,
    space_slice_kernel,
    value_function,
)

# --- Stopping costs on a 4-point line with the distance kernel -|x-y| ---
pts = PointSet([0.0, 1.0, 2.0, 3.0])
xs = pts.as_array()[:, 0]
kernel = GramKernel(pts, -np.abs(xs[:, None] - xs[None, :]))

# Ground truth: pay 0 to stop at x=0, pay 1 to stop at x=3.
truth = np.maximum(-xs, -np.abs(xs - 3.0) - 1.0)
print("true optimal values:", truth.tolist())

# Observe only the two middle states.
samples = SampleSet(PointSet([1.0, 2.0]), truth[[1, 2]], pts)
rec = reconstruct_stopping_cost(samples, kernel)
print("reconstructed stopping cost:", rec.stopping_cost.values.tolist())
print("fit loss:", rec.loss_value)

rebuilt = rec.generator.on_grid(pts)
print("rebuilt values:", rebuilt.values.tolist())
print("interpolates both observations:",
      bool(np.allclose(rebuilt.values[[1, 2]], truth[[1, 2]], atol=1e-12)))
print("negated values dominate the truth:",
      bool(np.all(-rebuilt.values >= -truth - 1e-12)))

# --- Terminal costs on a quarter-second lattice ---
times = np.round(np.arange(0.0, 1.001, 0.25), 10)
axis = np.round(np.arange(-1.0, 1.001, 0.25), 10)
problem = MaupertuisProblem(
    times, [axis], LagrangianSpec("quadratic"), [(-0.25,), (0.0,), (0.25,)]
)
psi = GridFunction(problem.space_points(), 2.0 * axis**2)
v = value_function(problem, psi)

# Observe -V at three initial states.
index = {p: i for i, p in enumerate(problem.spacetime_points().points)}
sample_rs = (-0.5, 0.0, 0.5)
ys = tuple(float(-v.values[index[(0.0, r)]]) for r in sample_rs)
print("\nobserved -V(0, r) at r =", sample_rs, "->", ys)

slice_kernel = space_slice_kernel(problem)
obs = SampleSet(PointSet(list(sample_rs)), ys, slice_kernel.points)
result = invert_terminal_cost(obs, slice_kernel)
print("witness slice indices:", result.witness_indices)
print("final-slice anchors:", result.witnesses[:, 0].tolist())
print("reconstructed terminal cost:", result.psi_T.values.tolist())

regen = value_function(problem, result.psi_T)
errs = [abs(regen.values[index[(0.0, r)]] + y) for r, y in zip(sample_rs, ys)]
print("interpolation error at the samples:", max(errs))
print("regenerated V dominates the true V:",
      bool(np.all(regen.values >= v.values - 1e-12)))

# Inconsistent observations are refused with a pointer to the first sample
# that cannot be served.
bad = SampleSet(PointSet([0.0, 0.25]), (0.0, 10.0), slice_kernel.points)
try:
    invert_terminal_cost(bad, slice_kernel)
except InfeasibleConstraintsError as exc:
    print("\ninconsistent data refused:", exc, "| blocking sample (0-based):", exc.blocking_index)

# The DP kernel itself is available for inspection.
gram = maupertuis_dp(problem)
print("kernel entry (0,0)->(1,1):",
      gram.matrix[index[(0.0, 0.0)], index[(1.0, 1.0)]])
