"""Max-plus matrix algebra: closures, residuation, idempotency, regularity.

The max-plus product used throughout is C[i,j] = max_k A[i,k] + B[k,j] with
-inf absorbing in the sums (so a -inf factor kills a +inf one).  A square
matrix equal to its own max-plus square is *idempotent*; idempotent matrices
are exactly the Bellman closures of shortest-path-type problems.

Given a family G of proper functions (finite somewhere, never -inf), the
largest kernel reproducing every member is

    c_G(x, y) = min_{g in G} g(x) - g(y)     (upper difference),

an idempotent matrix whose closure operator C_G f(x) = max_y c_G(x,y) + f(y)
is extensive, monotone and idempotent; its fixed points are the functions
f with f(x) <= f(y) - c_G(y, x) for all x, y (upper difference).

A square matrix B is *von Neumann regular* if B (x) A (x) B = B for some A.
Since the product is monotone in A, it suffices to test the residuated
greatest candidate A* = largest A with B A B <= B, computed by left/right
residuation (the adjoints of the max-plus product).  An idempotent B is its
own witness; if the exact square has the infinities of B and is within d of
it elsewhere, A = B - 2d gives B A B <= B, so B A* B lies in [B - 4d, B].
``regularity`` takes d = delta + eps M from the computed square S (delta =
max |S - B|, M = max |B| over finite entries, eps = 2**-52) and answers True
when 4 delta + 32 eps M <= tol, a margin that also covers the rounding of
the residuation (about 7 eps M); otherwise it residuates.  A computed square
equal to B entry for entry makes B its own witness at every tol, in both
functions: fl(B (x) B (x) B) = B, although the residuated A* may round so
that B (x) A* (x) B misses B by an ulp.
"""

from __future__ import annotations

import numpy as np

from .core import (
    PAIR_GUARD,
    POS_INF,
    GridFunction,
    PointSet,
    Record,
    SizeError,
    ext_close,
    lower_add_arrays,
    max_plus,
    max_reduce,
    min_plus,
    min_reduce,
    square_matrix,
    upper_add_arrays,
    validate_values,
)


def mp_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-plus matrix product with -inf absorbing in the sums."""
    a = validate_values(a, "left factor")
    b = validate_values(b, "right factor")
    return max_plus(a, b)


def mp_apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Max-plus matrix-vector product, -inf absorbing."""
    return max_reduce(lower_add_arrays(a, np.asarray(v, dtype=float)[None, :]), axis=1)


def is_idempotent(gram: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether the max-plus square of a square matrix equals the matrix.

    Integer-valued inputs are decided exactly (float64 sums and maxes of
    integers are exact); float inputs are compared within ``tol``.
    """
    gram = square_matrix(gram)
    return bool(ext_close(max_plus(gram, gram), gram, tol).all())


def left_residual(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Greatest Z with X (x) Z <= Y:  Z[i,j] = min_k (Y[k,j] - X[k,i]).

    Differences are upper (so +inf is absorbing), giving the adjoint of the
    max-plus product; entries may be ±inf.
    """
    x = validate_values(x, "x")
    y = validate_values(y, "y")
    return min_plus(-x.T, y)


def right_residual(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Greatest Z with Z (x) X <= Y:  Z[i,j] = min_k (Y[i,k] - X[j,k])."""
    x = validate_values(x, "x")
    y = validate_values(y, "y")
    return min_plus(y, -x.T)


class RegularityVerdict(Record):
    """Outcome of the von Neumann regularity decision.

    Attributes:
        regular: True iff B (x) A (x) B = B for the witness A.
        witness: The greatest candidate A* (entries may be ±inf), or B when
            A* fails and the computed square of B equals B; a valid middle
            factor exactly when ``regular``.
        product: B (x) A (x) B, for inspection of the failure gap.
    """

    regular: bool
    witness: np.ndarray
    product: np.ndarray


def is_von_neumann_regular(gram: np.ndarray, tol: float = 1e-9) -> RegularityVerdict:
    """Decide whether some A satisfies B (x) A (x) B = B.

    The product is entrywise monotone in A, and A* = greatest A with
    B A B <= B is computable by two residuations, so the equation has a
    solution iff it holds at A*.  The verdict is that of the computed A*,
    within tol, unless A* fails and the computed square equals B entry for
    entry, which makes B its own witness (see the module docstring).
    """
    return _regular(square_matrix(gram), None, tol)


def _regular(b: np.ndarray, square: np.ndarray | None, tol: float) -> RegularityVerdict:
    """``is_von_neumann_regular`` of B.  A computed square of B at hand
    (``square``) is tested before residuating; without one, the square is
    computed only when A* fails."""
    if square is not None and np.array_equal(square, b):
        return RegularityVerdict(True, b, b)
    a_star = right_residual(left_residual(b, b), b)
    product = max_plus(max_plus(b, a_star), b)
    if ext_close(product, b, tol).all():
        return RegularityVerdict(True, a_star, product)
    if square is None and np.array_equal(max_plus(b, b), b):
        return RegularityVerdict(True, b, b)
    return RegularityVerdict(False, a_star, product)


def regularity(gram: np.ndarray, tol: float = 1e-9) -> tuple[bool, bool]:
    """``(is_idempotent, is_von_neumann_regular(...).regular)`` from one
    max-plus square, see the module docstring."""
    b = square_matrix(gram)
    square = max_plus(b, b)
    idempotent = bool(ext_close(square, b, tol).all())
    finite = np.isfinite(b)
    if np.isfinite(square[finite]).all() and (square[~finite] == b[~finite]).all():
        delta = np.abs(square[finite] - b[finite]).max(initial=0.0)
        eps = np.finfo(float).eps
        if 4 * delta + 32 * eps * np.abs(b[finite]).max(initial=0.0) <= tol:
            return idempotent, True
    return idempotent, _regular(b, square, tol).regular


class FunctionFamily(Record):
    """A finite family of proper functions on a common grid.

    Members take values in (-inf, +inf] and each is finite somewhere.

    Attributes:
        domain: The common PointSet.
        members: The functions, order preserved.
    """

    domain: PointSet
    members: tuple[GridFunction, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("function family must be nonempty")
        for g in self.members:
            if g.domain != self.domain:
                raise ValueError("all members must share the family domain")
            if (g.values == -POS_INF).any():
                raise ValueError("members must not take the value -inf")
            if not np.isfinite(g.values).any():
                raise ValueError("members must be finite somewhere (proper)")

    def as_matrix(self) -> np.ndarray:
        """Member values stacked as an (m, n) array."""
        return np.stack([g.values for g in self.members])


def max_kernel_cG(family: FunctionFamily) -> np.ndarray:
    """Largest kernel reproducing every member of the family.

    c_G(x,y) = min over members of g(x) - g(y) (upper difference).  The
    diagonal is 0 where some member is finite and +inf where every member is
    +inf; the matrix is idempotent.

    Raises:
        SizeError: If the table would hold more than PAIR_GUARD entries;
            checked before anything is allocated.
    """
    n = len(family.domain)
    if n * n > PAIR_GUARD:
        raise SizeError(f"{n} x {n} kernel entries exceed the guard of {PAIR_GUARD}")
    g = family.as_matrix()
    return min_plus(g.T, -g)


def closure_CG(cg: np.ndarray, f: GridFunction) -> GridFunction:
    """Closure image x -> max_y c_G(x,y) + f(y) (-inf absorbing).

    Extensive (result >= f), monotone, and idempotent.
    """
    cg = square_matrix(cg)
    if len(cg) != len(f.domain):
        raise ValueError("kernel shape does not match the function domain")
    return GridFunction(f.domain, mp_apply(cg, f.values))


def is_lipschitz_member(cg: np.ndarray, f: GridFunction, tol: float = 1e-9) -> bool:
    """Whether f satisfies f(x) <= f(y) - c_G(y,x) for all x, y.

    The inequality (upper difference on the right) characterizes the fixed
    points of the closure ``closure_CG``.
    """
    cg = validate_values(cg, "cg")
    rhs = upper_add_arrays(f.values[:, None], -cg)  # rhs[y, x] = f(y) - c(y,x)
    bound = min_reduce(rhs, axis=0)
    return bool(np.all(f.values <= bound + tol))
