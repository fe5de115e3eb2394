"""
Kernels, tropical positivity, and feature maps
==============================================

A kernel here is a symmetric table b(x,y) over a finite grid.  The max-plus
analogue of positive semidefiniteness (tpsd) turns out to be purely
pairwise: b(x,x) + b(y,y) >= 2 b(x,y) for every pair.  The same property
can be stated through permutations (no cyclic rearrangement of diagonal
mass ever gains).  Halving the pair inequality bounds every term of a
permuted sum by the mean of its two diagonal entries, so the pairwise test
decides the permutation verdict too; this demo shows the two agree on a
hand-picked matrix and on a broken copy of it.
"""

import numpy as np

from tropkern import (
    NEG_INF,
    GramKernel,
    PointSet,
    check_permutation_positivity,
    decompose_phi_b0,
    factorize,
    is_tpsd_pairwise,
    kernel_from_spec,
)

# A 5-point kernel made of two "cliques" {0,1} and {2,3,4}: diagonal 0,
# cost -1 to move inside a clique, free between cliques.
bipartite = np.array(
    [
        [0, -1, 0, 0, 0],
        [-1, 0, 0, 0, 0],
        [0, 0, 0, -1, -1],
        [0, 0, -1, 0, -1],
        [0, 0, -1, -1, 0],
    ],
    dtype=float,
)
pts5 = PointSet(list(range(5)))
kernel = GramKernel(pts5, bipartite)

verdict = is_tpsd_pairwise(kernel)
print("pairwise tpsd:", verdict.is_tpsd)

perm = check_permutation_positivity(bipartite, m_max=5)
print("permutation-positive up to size 5:", perm.holds)

# Break positivity: lift one off-diagonal entry above the diagonal mean.
broken = bipartite.copy()
broken[0, 1] = broken[1, 0] = 1.0
bad = is_tpsd_pairwise(GramKernel(pts5, broken))
print("\nafter lifting b(0,1) to 1.0:", bad.is_tpsd, "| witness pair:", bad.witness)
bad_perm = check_permutation_positivity(broken, m_max=5)
print("permutation check agrees:", bad_perm.holds, "| subset:", bad_perm.witness_subset)

# Every tpsd kernel splits as b(x,y) = phi(x) + phi(y) + b0(x,y) with b0
# nonpositive, zero on the diagonal -- the tropical polar form.
phi, b0 = decompose_phi_b0(kernel)
print("\nphi:", phi.values.tolist())
print("b0 diagonal:", np.diag(b0.matrix).tolist(), "| max off-diag:", b0.matrix.max())

# And it admits a feature map psi with b(x,y) = max_z psi(x,z) + psi(y,z);
# the recomposition is exact, entry for entry.
features = factorize(kernel)
print("feature map exact:", bool(np.array_equal(features.recompose(), bipartite)))

# Kernels can also come from a JSON-style description: either a dense gram
# table or a named closed form with parameters.
closed = kernel_from_spec({"type": "closed_form", "name": "lip", "params": {"alpha": 1.0}})
print("\nlip kernel at (0, 3):", closed.eval(0.0, 3.0))
