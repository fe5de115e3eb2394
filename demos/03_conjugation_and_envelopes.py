"""
Sesquilinear conjugation, envelopes, and range membership
=========================================================

Each kernel induces a conjugation B-bar f(x) = sup_y [b(x,y) - f(y)], the
max-plus analogue of the Legendre-Fenchel transform (which it literally
becomes for the kernel b(x,p) = x*p).  Applying it twice gives the largest
function below f that the kernel can express; a function is expressible --
"in the range" -- exactly when the double conjugate gives it back.
"""

import numpy as np

from tropkern import (
    ClosedFormKernel,
    ConjugationOp,
    GramKernel,
    GridFunction,
    PointSet,
    check_cyclic_monotone,
    check_monotone,
    conj_sesqui,
    diagonal_witness_pair,
    discrepancy_dB,
    funk_kernel,
    is_in_range,
)

sites = PointSet([-1.0, 0.0, 1.0])
conv = ConjugationOp(ClosedFormKernel("conv"), sites)

# For b(x,p) = x*p the double conjugate is a convex envelope with whatever
# slopes the dual grid offers.  A tent (concave bump) collapses to its base:
tent = GridFunction(sites, np.array([-1.0, 0.0, -1.0]))
verdict = is_in_range(conv, tent)
print("tent in range:", verdict.in_range)
print("double conjugate:", verdict.biconjugate.values.tolist())
print("gap:", verdict.gap.values.tolist())

# A convex function comes back unchanged.
vee = GridFunction(sites, np.array([1.0, 0.0, 1.0]))
print("vee in range:", is_in_range(conv, vee).in_range)

# The conjugate itself: slopes of supporting lines.
print("\nconjugate of the vee:", conj_sesqui(conv, vee).values.tolist())

# Positivity of the kernel is equivalent to a Cauchy-Schwarz inequality
# between dual functions; for a kernel that is NOT tpsd, a pair of spikes
# anchored at the violating diagonal exposes the failure.
pts2 = PointSet([0, 1])
bad = ConjugationOp(GramKernel(pts2, np.array([[0.0, 1.0], [1.0, 0.0]])), pts2)
f, g = diagonal_witness_pair(bad, 0, 1)
check = check_monotone(bad, f, g)
print("\nCauchy-Schwarz on a non-tpsd kernel:", check.holds_max)

# On a tpsd kernel all four monotonicity forms hold for any functions.
good = ConjugationOp(GramKernel(pts2, np.array([[0.0, -1.0], [-1.0, 0.0]])), pts2)
h1 = GridFunction(pts2, np.array([0.3, -0.7]))
h2 = GridFunction(pts2, np.array([-0.2, 0.9]))
pair = check_monotone(good, h1, h2)
cyc = check_cyclic_monotone(good, [h1, h2])
print("tpsd kernel:", pair.holds_pair, pair.holds_max, cyc.holds_sum, cyc.holds_max)

# The Funk kernel c(x,y) = sup_z [b(z,x) - b(z,y)] is an asymmetric modulus
# of continuity; for the distance kernel it recovers the distance itself.
lip = ConjugationOp(ClosedFormKernel("lip"), PointSet([0.0, 1.0, 3.0]))
print("\nFunk kernel of -|x-y| on {0,1,3}:")
print(funk_kernel(lip))

# A discrepancy between dual functions, zero iff they share an infimum.
fa = GridFunction(pts2, np.array([0.0, 1.0]))
fb = GridFunction(pts2, np.array([1.0, 0.0]))
print("\ndiscrepancy d_B:", discrepancy_dB(good, fa, fb))
print("d_B of a function with itself:", discrepancy_dB(good, fa, fa))
