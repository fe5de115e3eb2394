"""Kernel-induced conjugation operators on grid functions.

Given a kernel b on codomain x domain, two operators act on functions f over
the domain (sups are exact maxima over the finite grid, -inf absorbing):

* the linear map       B f(x)    = max_y  b(x, y) + f(y)
* the sesquilinear map B-bar f(x) = max_y  b(x, y) - f(y)

together with the duality product <g_hat, f> = max_x f(x) - g_hat(x) (again
with -inf absorbing in the sums/differences).  For symmetric kernels the
double conjugate B-bar B-bar is a closure from below whose fixed points are
exactly the max-plus span of kernel columns and constants; `is_in_range`
decides membership that way.  The monotonicity and Cauchy-Schwarz style
checks, the discrepancy d_B, and the Funk asymmetric modulus all live here.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import (
    ext_close,
    NEG_INF,
    POS_INF,
    GridFunction,
    PointSet,
    PreconditionError,
    Record,
    lower_add,
    lower_add_arrays,
    max_plus,
    max_reduce,
    owned_array,
    upper_add,
    upper_add_arrays,
    upper_sub,
)
from .kernels import KernelRep, _symmetry_witness, gram_on


class ConjugationOp:
    """A kernel operator between two finite grids.

    The operator holds its own read-only table: an explicit ``matrix`` is
    copied, and a table built from ``kernel`` is taken as built.

    Attributes:
        domain: Grid of the argument functions (y runs here).
        codomain: Grid of the result functions (x runs here).
        matrix: Dense (|codomain|, |domain|) table of kernel values b(x, y).
    """

    def __init__(
        self,
        kernel: KernelRep | None,
        domain: PointSet,
        codomain: PointSet | None = None,
        matrix: np.ndarray | None = None,
    ) -> None:
        self.domain = domain
        self.codomain = domain if codomain is None else codomain
        fresh = matrix is None
        if fresh:
            if kernel is None:
                raise ValueError("need a kernel or an explicit matrix")
            matrix = gram_on(kernel, self.codomain, self.domain)
        shape = (len(self.codomain), len(self.domain))
        self.matrix = owned_array(matrix, "kernel values", shape, below_inf=True, copy=not fresh)

    @property
    def is_square(self) -> bool:
        """Whether domain and codomain are the same grid."""
        return self.domain is self.codomain or self.domain == self.codomain

    def transpose(self) -> "ConjugationOp":
        """The operator of the transposed kernel (adjoint direction)."""
        return ConjugationOp(None, self.codomain, self.domain, self.matrix.T)

    def _check_symmetric(self, op_name: str) -> None:
        if not self.is_square:
            raise PreconditionError(f"{op_name} requires domain == codomain")
        witness = _symmetry_witness(self.matrix, 1e-9)
        if witness is not None:
            raise PreconditionError(
                f"{op_name} requires a symmetric kernel; asymmetry at {witness}"
            )

    def _check_domain(self, f: GridFunction) -> None:
        if f.domain != self.domain:
            raise ValueError("function domain does not match operator domain")


def conj_sesqui(op: ConjugationOp, f: GridFunction) -> GridFunction:
    """Sesquilinear conjugate: x -> max_y b(x,y) - f(y), -inf absorbing."""
    op._check_domain(f)
    values = max_reduce(lower_add_arrays(op.matrix, -f.values[None, :]), axis=1)
    return GridFunction(op.codomain, values)


def apply_linear(op: ConjugationOp, f: GridFunction) -> GridFunction:
    """Linear image: x -> max_y b(x,y) + f(y), -inf absorbing."""
    op._check_domain(f)
    values = max_reduce(lower_add_arrays(op.matrix, f.values[None, :]), axis=1)
    return GridFunction(op.codomain, values)


def duality_product(g_hat: GridFunction, f: GridFunction) -> float:
    """The pairing <g_hat, f> = max_x f(x) - g_hat(x), -inf absorbing."""
    if g_hat.domain != f.domain:
        raise ValueError("duality product requires a common domain")
    return float(max_reduce(lower_add_arrays(f.values, -g_hat.values)))


class RangeVerdict(Record):
    """Membership of g in the max-plus range of a symmetric kernel.

    Attributes:
        in_range: True iff the double conjugate equals g (within tolerance).
        biconjugate: The double conjugate (always <= g pointwise).
        gap: g minus the biconjugate (0 where equal, including at matching
            infinities); nonnegative.
    """

    in_range: bool
    biconjugate: GridFunction
    gap: GridFunction


def is_in_range(op: ConjugationOp, g: GridFunction, tol: float = 1e-9) -> RangeVerdict:
    """Decide membership in the kernel's max-plus range by double conjugation.

    Requires a symmetric kernel (domain == codomain).  g belongs to the range
    iff applying the sesquilinear conjugate twice returns g; otherwise the
    double conjugate sits strictly below g somewhere and the pointwise gap is
    returned.

    Raises:
        PreconditionError: If the kernel is asymmetric or rectangular.
    """
    op._check_symmetric("is_in_range")
    op._check_domain(g)
    bicon = conj_sesqui(op, conj_sesqui(op, g))
    equal = ext_close(g.values, bicon.values, tol)
    gap = np.where(equal, 0.0, upper_add_arrays(g.values, -bicon.values))
    return RangeVerdict(bool(equal.all()), bicon, GridFunction(g.domain, gap))


def discrepancy_dB(op: ConjugationOp, f_hat: GridFunction, g_hat: GridFunction) -> float:
    """Quadratic-style discrepancy between two dual functions.

    Computes half of the upper-operation combination
    <f,Bf> + <g,Bg> - <f,Bg> - <g,Bf> (upper additions/subtractions, so +inf
    is absorbing in each step); halving maps ±inf to ±inf.

    Raises:
        PreconditionError: If the kernel is asymmetric.
    """
    op._check_symmetric("discrepancy_dB")
    ff = duality_product(f_hat, conj_sesqui(op, f_hat))
    gg = duality_product(g_hat, conj_sesqui(op, g_hat))
    fg = duality_product(f_hat, conj_sesqui(op, g_hat))
    gf = duality_product(g_hat, conj_sesqui(op, f_hat))
    return 0.5 * upper_sub(upper_sub(upper_add(ff, gg), fg), gf)


class MonotoneCheck(Record):
    """Results of the two pairwise monotonicity inequalities.

    Attributes:
        holds_pair: <f,Bf> + <g,Bg> >= <f,Bg> + <g,Bf>, upper addition on the
            left and lower addition on the right.
        holds_max: max(<f,Bf>, <g,Bg>) >= <f,Bg> (Cauchy-Schwarz form).
    """

    holds_pair: bool
    holds_max: bool


def check_monotone(
    op: ConjugationOp,
    f_hat: GridFunction,
    g_hat: GridFunction,
    tol: float = 1e-9,
) -> MonotoneCheck:
    """Evaluate both pairwise monotonicity forms for one function pair.

    Raises:
        PreconditionError: If the kernel is asymmetric.
    """
    op._check_symmetric("check_monotone")
    ff = duality_product(f_hat, conj_sesqui(op, f_hat))
    gg = duality_product(g_hat, conj_sesqui(op, g_hat))
    fg = duality_product(f_hat, conj_sesqui(op, g_hat))
    gf = duality_product(g_hat, conj_sesqui(op, f_hat))
    holds_pair = upper_add(ff, gg) >= lower_add(fg, gf) - tol
    holds_max = max(ff, gg) >= fg - tol
    return MonotoneCheck(bool(holds_pair), bool(holds_max))


class CyclicCheck(Record):
    """Results of the cyclic monotonicity inequalities for a function tuple.

    Attributes:
        holds_sum: sum_m <f_m, B f_m> >= sum_m <f_m, B f_{m+1}> (cyclic,
            -inf absorbing in the sums).
        holds_max: max_m <f_m, B f_m> >= max_m <f_m, B f_{m+1}>.
    """

    holds_sum: bool
    holds_max: bool


def check_cyclic_monotone(
    op: ConjugationOp,
    f_hats: Sequence[GridFunction],
    tol: float = 1e-9,
) -> CyclicCheck:
    """Evaluate the cyclic monotonicity forms for an ordered function tuple.

    The (m+1)-th index wraps around to the first.  Sums fold with -inf
    absorbing; callers should avoid functions taking the value -inf (which
    would make products +inf and the sums convention-dependent).

    Raises:
        PreconditionError: If the kernel is asymmetric.
    """
    op._check_symmetric("check_cyclic_monotone")
    conj = [conj_sesqui(op, f) for f in f_hats]
    m = len(f_hats)
    diag = [duality_product(f_hats[k], conj[k]) for k in range(m)]
    cyc = [duality_product(f_hats[k], conj[(k + 1) % m]) for k in range(m)]
    lhs_sum = 0.0
    for v in diag:
        lhs_sum = lower_add(lhs_sum, v)
    rhs_sum = 0.0
    for v in cyc:
        rhs_sum = lower_add(rhs_sum, v)
    holds_sum = lhs_sum >= rhs_sum - tol
    holds_max = max(diag) >= max(cyc) - tol
    return CyclicCheck(bool(holds_sum), bool(holds_max))


def diagonal_witness_pair(
    op: ConjugationOp, i: int, j: int
) -> tuple[GridFunction, GridFunction]:
    """Dual spike pair exposing a pairwise positivity violation at (i, j).

    Builds f finite only at x_i with value b(x_i,x_i)/2, and the analogous
    g at x_j.  For a symmetric kernel with finite diagonal, <f, B g> equals
    b(x_i,x_j) - b(x_i,x_i)/2 - b(x_j,x_j)/2 while <f,Bf> = <g,Bg> = 0, so
    the Cauchy-Schwarz form fails exactly when the pair violates positivity.

    Raises:
        PreconditionError: If either diagonal entry is not finite.
    """
    bii = op.matrix[i, i]
    bjj = op.matrix[j, j]
    if not (math.isfinite(bii) and math.isfinite(bjj)):
        raise PreconditionError("witness pair requires finite diagonal entries")
    f = np.full(len(op.domain), POS_INF)
    f[i] = bii / 2.0
    g = np.full(len(op.domain), POS_INF)
    g[j] = bjj / 2.0
    return GridFunction(op.domain, f), GridFunction(op.domain, g)


def funk_kernel(op: ConjugationOp) -> np.ndarray:
    """Asymmetric modulus c(x,y) = max_z [b(z,x) - b(z,y)] over the grid.

    Differences are -inf absorbing, so entries may be +inf when column y is
    -inf somewhere column x is not.  c(x,x) = 0 whenever column x is finite
    somewhere.  Every range element g satisfies g(x) <= g(y) + c(x,y).
    """
    b = op.matrix  # (n_z, n_x), z runs over the codomain
    return max_plus(b.T, -b)
