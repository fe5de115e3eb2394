"""Kernel representations, built-in families, positivity tests, factorization.

A kernel here is a map b : X x X' -> [-inf, +inf) on finite point sets, given
either as a dense Gram matrix or as a named closed form evaluated on demand.
The central structural notion is *tropical positive semidefiniteness* (tpsd):
symmetry together with

    b(x,x) + b(y,y) >= b(x,y) + b(y,x)   for all points x, y,

sums taken with -inf absorbing.  tpsd kernels decompose as a diagonal
translation of a nonpositive kernel and factor through a max-plus feature map,
both constructed explicitly below.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .core import (
    NEG_INF,
    PAIR_GUARD,
    _TERM_BLOCK,
    GridFunction,
    Point,
    PointSet,
    PreconditionError,
    Record,
    SizeError,
    _adopted,
    _checked,
    as_point,
    decode_extreal,
    decode_values,
    encode_values,
    ext_close,
    lower_add_arrays,
    max_plus,
    owned_array,
    square_matrix,
)

if TYPE_CHECKING:
    from .control import LagrangianSpec

CLOSED_FORM_NAMES = ("conv", "sconv", "lip", "dirac", "power_distance", "lax_hopf")


def _number_param(params: Mapping[str, object], key: str) -> float:
    """The finite number ``params[key]`` (default 1), read by ``decode_extreal``."""
    try:
        number = decode_extreal(params.get(key, 1.0))
    except ValueError as exc:
        raise ValueError(f"param {key!r}: {exc}") from None
    if not math.isfinite(number):
        raise ValueError(f"param {key!r} must be finite")
    return number


class GramKernel(Record):
    """A kernel given by a dense square matrix over a PointSet.

    Attributes:
        points: The n points indexing rows and columns.
        matrix: (n, n) float array; entries in [-inf, +inf) (no +inf, no NaN).
    """

    points: PointSet
    matrix: np.ndarray

    def __post_init__(self, adopted: bool = False) -> None:
        n = len(self.points)
        matrix = owned_array(self.matrix, "kernel values", (n, n), below_inf=True,
                             copy=not adopted)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def _adopt(cls, points: PointSet, matrix: np.ndarray) -> "GramKernel":
        """Take over a float64 matrix the caller has just built and keeps no
        other reference to: checked and made read-only, but not copied."""
        return _adopted(cls, points=points, matrix=matrix)

    def eval(self, x: float | Sequence[float], y: float | Sequence[float]) -> float:
        """b(x, y) by table lookup."""
        return float(self.matrix[self.points.index_of(x), self.points.index_of(y)])

    def transpose(self) -> "GramKernel":
        """The kernel (x, y) -> b(y, x)."""
        return GramKernel(self.points, self.matrix.T)


# The params each closed form reads; any other key is an error.
_CLOSED_FORM_PARAMS = {"lip": ("alpha",), "power_distance": ("p",), "lax_hopf": ("lagrangian",)}


class ClosedFormKernel(Record):
    """A named closed-form kernel evaluated on demand.

    Supported names:
        conv:            b(x, y) = <x, y>                (Euclidean inner product)
        sconv:           b(x, y) = -||x - y||^2
        lip:             b(x, y) = -alpha * ||x - y||    (param ``alpha``, default 1)
        dirac:           b(x, y) = 0 if x == y else -inf
        power_distance:  b(x, y) = -||x - y||^p          (param ``p``, default 1)
        lax_hopf:        least-action cost between spacetime points for a
                         convex state-independent running cost
                         (param ``lagrangian``: a running-cost spec mapping).

    The params are checked when the kernel is built: a form takes no param
    but its own, ``alpha`` and ``p`` must be finite numbers and ``p``
    nonnegative (a negative power divides by the zero distance on the
    diagonal), and ``lagrangian`` must be a running-cost spec.

    Raises:
        TypeError, ValueError, KeyError: For an unknown name or a bad param.
    """

    name: str
    params: Mapping[str, object] = None  # type: ignore[assignment]
    _lagrangian: LagrangianSpec | None = None

    def __post_init__(self) -> None:
        if self.name not in CLOSED_FORM_NAMES:
            raise ValueError(f"unknown closed-form kernel {self.name!r}")
        params = dict(self.params or {})
        object.__setattr__(self, "params", params)
        unknown = sorted(set(params) - set(_CLOSED_FORM_PARAMS.get(self.name, ())), key=str)
        if unknown:
            raise ValueError(f"unknown param(s) {unknown} for kernel {self.name!r}")
        if self.name == "lip":
            _number_param(params, "alpha")
        elif self.name == "power_distance" and _number_param(params, "p") < 0:
            raise ValueError("param 'p' must be >= 0")
        elif self.name == "lax_hopf":
            # Local import: the control module imports this one.
            from .control import LagrangianSpec

            spec = params.get("lagrangian", {"name": "quadratic"})
            object.__setattr__(self, "_lagrangian", LagrangianSpec.from_spec(spec))

    def eval(self, x: float | Sequence[float], y: float | Sequence[float]) -> float:
        """b(x, y): the 1x1 ``gram_on``, so PreconditionError where it is NaN or +inf."""
        return float(gram_on(self, PointSet([as_point(x)]), PointSet([as_point(y)]))[0, 0])

    def table(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """[b(x, y)] for the rows x of ``xs`` (n, d) and y of ``ys`` (m, d)."""
        if xs.shape[1] != ys.shape[1]:
            raise ValueError("points must share one dimension")
        if self.name == "conv":
            return xs @ ys.T
        if self.name == "dirac":
            # One coordinate at a time, as sconv adds, so no (n, m, d) tensor.
            same = np.ones((len(xs), len(ys)), dtype=bool)
            for k in range(xs.shape[1]):
                same &= np.equal.outer(xs[:, k], ys[:, k])
            return np.where(same, 0.0, NEG_INF)
        if self.name == "lax_hopf":
            from .control import lax_hopf_table

            return lax_hopf_table(self._lagrangian, xs, ys)
        if self.name == "sconv":
            # One axis at a time, so no (n, m, d) tensor.  Below 8 axes this
            # is the order np.sum(diff * diff, axis=2) adds in, bit for bit;
            # from 8 on np.sum adds pairwise and may round the last bit apart.
            total = np.zeros((len(xs), len(ys)))
            d = np.empty_like(total)
            for k in range(xs.shape[1]):
                np.subtract.outer(xs[:, k], ys[:, k], out=d)
                d *= d
                total += d
            return np.negative(total, out=total)
        # One dot product per pair keeps np.linalg.norm's scalar rounding (a
        # sum of squares does not), in row blocks of at most _TERM_BLOCK pairs.
        dist = np.empty((len(xs), len(ys)))
        rows = max(1, _TERM_BLOCK // max(len(ys), 1))
        for i in range(0, len(xs), rows):
            diff = xs[i : i + rows, None, :] - ys[None, :, :]
            np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0], out=dist[i : i + rows])
        if self.name == "lip":
            return np.multiply(-_number_param(self.params, "alpha"), dist, out=dist)
        dist **= _number_param(self.params, "p")  # the scalar power's fast paths, as **
        return np.negative(dist, out=dist)


KernelRep = GramKernel | ClosedFormKernel


def gram_on(
    kernel: KernelRep,
    rows: PointSet | np.ndarray | None = None,
    cols: PointSet | np.ndarray | None = None,
) -> np.ndarray:
    """Dense matrix [b(x, y)] for x in ``rows``, y in ``cols``.

    Each of ``rows`` and ``cols`` is a PointSet or an (n, d) float64 array
    of points as ``point_array`` reads them, repeats allowed.  ``cols``
    defaults to ``rows``, and ``rows`` to a Gram kernel's own points.  A
    Gram kernel is read by index, the rows and the columns each mapped to
    its grid once, and raises KeyError for a point off its grid (on its own
    grid, it gives a writable copy of its matrix); a closed form is
    evaluated by its array formula and checked once: it is undefined where
    the formula gives NaN or +inf, as ``conv`` does at an infinite
    coordinate.

    Raises:
        SizeError: If the table would hold more than PAIR_GUARD entries;
            checked before anything is allocated.
        PreconditionError: If a closed-form table holds NaN or +inf.
    """
    if rows is None:
        if not isinstance(kernel, GramKernel):
            raise ValueError("closed-form kernels need an evaluation PointSet")
        rows = kernel.points
    cols = rows if cols is None else cols
    if len(rows) * len(cols) > PAIR_GUARD:
        raise SizeError(
            f"{len(rows)} x {len(cols)} kernel entries exceed the guard of {PAIR_GUARD}"
        )
    if isinstance(kernel, GramKernel):
        grid = kernel.points
        if all(isinstance(s, PointSet) and s == grid for s in (rows, cols)):
            return kernel.matrix.copy()
        at_rows = _grid_indices(grid, rows)
        at_cols = at_rows if cols is rows else _grid_indices(grid, cols)
        return kernel.matrix[np.ix_(at_rows, at_cols)]
    with np.errstate(invalid="ignore", over="ignore"):
        table = kernel.table(_coords(rows), _coords(cols))
    try:
        return _checked(table, f"kernel {kernel.name!r} values", below_inf=True)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None


def _coords(points: PointSet | np.ndarray) -> np.ndarray:
    """The (n, d) array of a PointSet, or the array itself."""
    return points if isinstance(points, np.ndarray) else points.as_array()


def _grid_indices(grid: PointSet, points: PointSet | np.ndarray) -> np.ndarray:
    """The index on ``grid`` of each point; KeyError names the first one off it."""
    coords = _coords(points)
    at = grid.indices(coords)
    off = np.flatnonzero(at < 0)
    if off.size:
        raise KeyError(f"point {tuple(coords[off[0]].tolist())} is not in the set")
    return at


# ---------------------------------------------------------------------------
# Positivity tests.
# ---------------------------------------------------------------------------


class TpsdVerdict(Record):
    """Outcome of a pairwise tpsd check.

    Attributes:
        is_tpsd: True iff symmetric and pairwise-positive on the points.
        failure: None, "symmetry" or "positivity".
        witness: Violating index pair (i, j) when not tpsd.
    """

    is_tpsd: bool
    failure: str | None = None
    witness: tuple[int, int] | None = None


def _symmetry_witness(gram: np.ndarray, tol: float) -> tuple[int, int] | None:
    """First index pair (i, j), i < j in row-major order, where the matrix is
    not symmetric within tol (an infinity matches only itself), or None."""
    bad = np.argwhere(~ext_close(gram, gram.T, tol))
    return tuple(map(int, bad[0])) if bad.size else None


def _tpsd_verdict(gram: np.ndarray, tol: float) -> TpsdVerdict:
    """Symmetry, then the pair inequality, on a Gram matrix without +inf.

    Both violation sets are symmetric with a clean diagonal, so the first
    row-major witness is the first pair (i, j) with i < j.
    """
    sym = _symmetry_witness(gram, tol)
    if sym is not None:
        return TpsdVerdict(False, "symmetry", sym)
    diag = np.diag(gram)
    lhs = diag[:, None] + diag[None, :]  # no +inf entries, so no NaN
    bad = np.argwhere(lhs < gram + gram.T - tol)
    if bad.size:
        return TpsdVerdict(False, "positivity", tuple(map(int, bad[0])))
    return TpsdVerdict(True)


def is_tpsd_pairwise(
    kernel: KernelRep,
    points: PointSet | None = None,
    tol: float = 1e-9,
) -> TpsdVerdict:
    """Check symmetry and the pairwise positivity inequality on a grid.

    The inequality is b(x,x) + b(y,y) >= b(x,y) + b(y,x) with -inf absorbing
    in the sums; a violation must exceed ``tol`` to be reported (guards
    against closed-form rounding).

    Args:
        kernel: Gram or closed-form kernel.
        points: Evaluation grid; defaults to the Gram kernel's own points.

    Returns:
        A TpsdVerdict (with the violating pair and failed condition if any).
    """
    return _tpsd_verdict(gram_on(kernel, points), tol)


class PermutationVerdict(Record):
    """Outcome of the subset/permutation positivity check.

    Attributes:
        holds: True iff every checked subset and permutation satisfies
            sum of diagonal >= sum of permuted entries.
        witness_subset: Violating subset of indices, if any.
        witness_perm: Violating permutation (as a tuple sigma of the subset
            positions), if any.
    """

    holds: bool
    witness_subset: tuple[int, ...] | None = None
    witness_perm: tuple[int, ...] | None = None


def check_permutation_positivity(
    gram: np.ndarray,
    m_max: int,
    tol: float = 1e-9,
) -> PermutationVerdict:
    """Verify the permutation inequality on all subsets of size <= m_max.

    For every subset {x_1..x_M} and permutation sigma the inequality
    sum_m b(x_m, x_m) >= sum_m b(x_m, x_sigma(m)) must hold (-inf absorbing).
    For a symmetric kernel it follows from the pair inequality: each term
    obeys b(x_m, x_sigma(m)) <= (b(x_m, x_m) + b(x_sigma(m), x_sigma(m))) / 2,
    and the halves sum to the diagonal.  Subsets of one point always pass, so
    the verdict is symmetry and, when m_max >= 2, pairwise positivity; no
    subset is enumerated.  With tol > 0 this is the pairwise verdict at tol:
    a cycle of three or more points may exceed tol while no pair does.

    Args:
        gram: Square matrix of kernel values.
        m_max: Largest subset size.
        tol: Violations must exceed this.

    Returns:
        A PermutationVerdict; on failure the witness is the first asymmetric
        or pair-violating (i, j), with the transposition (1, 0) for the latter.

    Raises:
        ValueError: ``gram`` holds NaN or +inf, or is not square.
    """
    gram = square_matrix(gram, below_inf=True)
    n = len(gram)
    verdict = _tpsd_verdict(gram, tol)
    positivity = verdict.failure == "positivity"
    if verdict.is_tpsd or (positivity and min(m_max, n) < 2):
        return PermutationVerdict(True)
    return PermutationVerdict(False, verdict.witness, (1, 0) if positivity else None)


# ---------------------------------------------------------------------------
# Decomposition and feature-map factorization.
# ---------------------------------------------------------------------------


def _require_tpsd(gram: GramKernel, op: str) -> None:
    verdict = is_tpsd_pairwise(gram)
    if not verdict.is_tpsd:
        raise PreconditionError(
            f"{op} requires a tpsd kernel; {verdict.failure} fails at pair "
            f"{verdict.witness}"
        )


def decompose_phi_b0(gram: GramKernel) -> tuple[GridFunction, GramKernel]:
    """Split a tpsd kernel as b = phi(x) + b0(x,y) + phi(y).

    phi(x) = b(x,x)/2; b0 is symmetric, zero on the diagonal and nonpositive.
    Where phi is -inf (a -inf diagonal forces a -inf row), the corresponding
    b0 entries are set to 0 by convention so that b0 stays well-defined.

    Raises:
        PreconditionError: If the kernel is not tpsd.
    """
    _require_tpsd(gram, "decompose_phi_b0")
    phi = np.diag(gram.matrix) / 2.0
    finite = np.isfinite(phi)
    both = finite[:, None] & finite[None, :]
    with np.errstate(invalid="ignore"):
        b0 = np.where(both, gram.matrix - phi[:, None] - phi[None, :], 0.0)
    return GridFunction(gram.points, phi), GramKernel(gram.points, b0)


class FeatureMap(Record):
    """A max-plus feature map psi : X x Z -> [-inf, +inf).

    The defining property is that the sup-product of features recomposes the
    kernel:  sup_z psi(x,z) + psi(y,z) = b(x,y)  (-inf absorbing).

    Attributes:
        points: The n kernel points (rows of psi).
        z_labels: The |Z| feature indices; here ordered pairs (i, j) of point
            indices.
        psi: (n, |Z|) float array with entries < +inf.
    """

    points: PointSet
    z_labels: tuple[tuple[int, int], ...]
    psi: np.ndarray

    def __post_init__(self, adopted: bool = False) -> None:
        shape = (len(self.points), len(self.z_labels))
        psi = owned_array(self.psi, "feature values", shape, below_inf=True, copy=not adopted)
        object.__setattr__(self, "psi", psi)

    def recompose(self) -> np.ndarray:
        """The kernel sup_z psi(x,z) + psi(y,z) as a dense matrix."""
        return max_plus(self.psi, self.psi.T)


def factorize(gram: GramKernel) -> FeatureMap:
    """Explicit feature map for a tpsd kernel over Z = X x X.

    Features: psi(x_i, (i, j)) = b(i,i)/2 and
    psi(x_i, (j, i)) = b(i,j) lower-minus b(j,j)/2 (-inf absorbing), all other
    entries -inf.  The recomposition sup-product returns the kernel exactly.

    Raises:
        SizeError: If the n x n^2 feature table exceeds PAIR_GUARD entries.
        PreconditionError: If the kernel is not tpsd.
    """
    b = gram.matrix
    n = b.shape[0]
    if n**3 > PAIR_GUARD:
        raise SizeError(f"{n}^3 feature entries exceed the guard of {PAIR_GUARD}")
    _require_tpsd(gram, "factorize")
    labels = tuple((i, j) for i in range(n) for j in range(n))
    half = np.diag(b) / 2.0
    psi = np.full((n, n * n), NEG_INF, dtype=float)
    cube, at = psi.reshape(n, n, n), np.arange(n)  # cube[i, a, c] = psi[i, a * n + c]
    cube[at, at, :] = half[:, None]
    cube[at, :, at] = lower_add_arrays(b, -half)  # written last where both meet
    return _adopted(FeatureMap, points=gram.points, z_labels=labels, psi=psi)


# ---------------------------------------------------------------------------
# JSON kernel specs.
# ---------------------------------------------------------------------------


def kernel_from_spec(spec: Mapping[str, object]) -> KernelRep:
    """Build a kernel from its JSON spec.

    Formats:
        {"type": "gram", "points": [...], "matrix": [[...]]}
        {"type": "closed_form", "name": "...", "params": {...}}
    """
    kind = spec.get("type")
    if kind == "gram":
        points = PointSet(spec["points"])  # type: ignore[arg-type]
        matrix = decode_values(spec["matrix"])  # type: ignore[arg-type]
        return GramKernel(points, matrix)
    if kind == "closed_form":
        return ClosedFormKernel(str(spec["name"]), spec.get("params", {}))  # type: ignore[arg-type]
    raise ValueError(f"unknown kernel spec type {kind!r}")


def kernel_to_spec(kernel: KernelRep) -> dict:
    """Serialize a kernel to its JSON spec."""
    if isinstance(kernel, GramKernel):
        return {
            "type": "gram",
            "points": [list(p) for p in kernel.points],
            "matrix": encode_values(kernel.matrix),
        }
    return {"type": "closed_form", "name": kernel.name, "params": dict(kernel.params)}
