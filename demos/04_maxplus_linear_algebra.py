"""
Max-plus matrices: closure, residuation, regularity
===================================================

With (max, +) in place of (+, *), matrix algebra turns into path algebra: a
matrix is a graph of edge gains, powers are best paths, and an idempotent
matrix (equal to its own square) encodes a dynamic-programming principle.
Division survives as residuation -- the largest solution of a one-sided
inequality -- and that is enough to decide von Neumann regularity
(existence of A with B A B = B) constructively.
"""

import numpy as np

from tropkern import (
    NEG_INF,
    FunctionFamily,
    GridFunction,
    PointSet,
    closure_CG,
    is_idempotent,
    is_lipschitz_member,
    is_von_neumann_regular,
    left_residual,
    max_kernel_cG,
    mp_matmul,
)

# Best-path products: entry (i,j) of the square is the best two-leg trip.
hop = np.array([[0.0, -1.0, NEG_INF], [-1.0, 0.0, -1.0], [NEG_INF, -1.0, 0.0]])
print("one hop:\n", hop)
print("two hops (square):\n", mp_matmul(hop, hop))
print("idempotent after squaring once:", is_idempotent(mp_matmul(hop, hop)))

# Residuation: the greatest X with  A (x) X <= B, computed entrywise with
# upper subtraction and a min-reduction.
a = np.array([[0.0, -2.0], [-1.0, 0.0]])
b = np.array([[1.0, 0.0], [0.0, 1.0]])
x = left_residual(a, b)
print("\ngreatest X with A*X <= B:\n", x)
print("check A*X <= B:", bool((mp_matmul(a, x) <= b + 1e-12).all()))

# Regularity: does some A satisfy B A B = B?  The residuated candidate is
# the best possible witness, so a single check decides.
grid3 = PointSet([-1.0, 0.0, 1.0])
parabola_gram = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
verdict = is_von_neumann_regular(parabola_gram)
print("\nparabola gram regular:", verdict.regular)

closed = mp_matmul(hop, hop)
verdict2 = is_von_neumann_regular(closed)
print("path-closure matrix regular:", verdict2.regular)
print("witness reproduces B:", bool(np.array_equal(verdict2.product, closed)))

# The maximal kernel of a function family: the largest kernel that
# reproduces every member.  It is always idempotent, and its closure
# operator C_G is extensive, monotone, and idempotent.
family = FunctionFamily(
    grid3,
    (
        GridFunction(grid3, np.array([1.0, 0.0, 1.0])),
        GridFunction(grid3, np.array([0.0, 0.0, 0.0])),
    ),
)
cg = max_kernel_cG(family)
print("\nmaximal kernel c_G:\n", cg)
print("c_G idempotent:", is_idempotent(cg))

probe = GridFunction(grid3, np.array([-1.0, 0.0, -1.0]))
closed_probe = closure_CG(cg, probe)
print("closure of the tent:", closed_probe.values.tolist())
print("extensive:", bool((closed_probe.values >= probe.values).all()))
print("fixed under a second closure:",
      bool(np.array_equal(closure_CG(cg, closed_probe).values, closed_probe.values)))

# Membership in the family's Lipschitz class: members always belong,
# a spike dipping below the closure bound does not.
print("\nfirst member belongs:", is_lipschitz_member(cg, family.members[0]))
dip = GridFunction(grid3, np.array([1.0, -2.0, 1.0]))
print("spiked probe belongs:", is_lipschitz_member(cg, dip))
