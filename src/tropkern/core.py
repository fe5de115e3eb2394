"""Extended-real arithmetic and finite-grid function containers.

The extended real line [-inf, +inf] carries two additions that differ only on
the indeterminate pair (+inf) + (-inf):

* upper addition   -- +inf is absorbing: (+inf) + (-inf) = +inf;
* lower addition   -- -inf is absorbing: (+inf) + (-inf) = -inf.

Subtraction is addition of the negation in the same convention, so the upper
difference (+inf) - (+inf) is +inf while the lower one is -inf.  Everything in
this package (kernel operators, duality products, constraint bounds) is built
on these two operations, with the lattice conventions sup {} = -inf and
inf {} = +inf.

Values are IEEE doubles; NaN is rejected at every construction point so that
the absorbing rules above are the only infinity semantics in play.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

POS_INF = math.inf
NEG_INF = -math.inf


class PreconditionError(ValueError):
    """An operation's structural precondition does not hold for the input."""


class SizeError(ValueError):
    """An input exceeds a guard bound meant to keep runtimes desk-scale."""


#: Largest element count of a dense pair table (n^2 or n^3 entries) an
#: operation may build before it raises SizeError.
PAIR_GUARD = 10**6

#: Value of a supremum over an empty set.
SUP_EMPTY = NEG_INF
#: Value of an infimum over an empty set.
INF_EMPTY = POS_INF

Point = tuple[float, ...]


def ext(value: float) -> float:
    """Validate a scalar as an extended real (finite, +inf or -inf).

    Args:
        value: Any real number, ``math.inf`` or ``-math.inf``.

    Returns:
        The value as a float.

    Raises:
        ValueError: If the value is NaN or an integer too large for a float.
    """
    try:
        out = float(value)
    except OverflowError as exc:
        raise ValueError("integer too large for a float") from exc
    if math.isnan(out):
        raise ValueError("NaN is not an extended real")
    return out


def upper_add(a: float, b: float) -> float:
    """Addition with +inf absorbing.

    Returns +inf if either operand is +inf, else -inf if either operand is
    -inf, else the ordinary sum.
    """
    if a == POS_INF or b == POS_INF:
        return POS_INF
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b


def lower_add(a: float, b: float) -> float:
    """Addition with -inf absorbing.

    Returns -inf if either operand is -inf, else +inf if either operand is
    +inf, else the ordinary sum.
    """
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    if a == POS_INF or b == POS_INF:
        return POS_INF
    return a + b


def upper_sub(a: float, b: float) -> float:
    """Upper difference: ``upper_add(a, -b)``, so (+inf) - (+inf) = +inf."""
    return upper_add(a, -b)


def lower_sub(a: float, b: float) -> float:
    """Lower difference: ``lower_add(a, -b)``, so (+inf) - (+inf) = -inf."""
    return lower_add(a, -b)


# ---------------------------------------------------------------------------
# Vectorized counterparts.
#
# For NaN-free float arrays, ``a + b`` already realizes both conventions
# except on mixed-infinity pairs, where IEEE produces NaN; those slots are
# patched to the absorbing value of the requested convention.
# ---------------------------------------------------------------------------


def upper_add_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise upper addition of NaN-free arrays (broadcasting)."""
    with np.errstate(invalid="ignore"):
        out = np.asarray(a, dtype=float) + np.asarray(b, dtype=float)
    mask = np.isnan(out)
    if mask.any():
        out = np.where(mask, POS_INF, out)
    return out


def lower_add_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise lower addition of NaN-free arrays (broadcasting)."""
    with np.errstate(invalid="ignore"):
        out = np.asarray(a, dtype=float) + np.asarray(b, dtype=float)
    mask = np.isnan(out)
    if mask.any():
        out = np.where(mask, NEG_INF, out)
    return out


def max_reduce(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Maximum along an axis with sup {} = -inf on empty slices."""
    return np.max(a, axis=axis, initial=NEG_INF)


def min_reduce(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Minimum along an axis with inf {} = +inf on empty slices."""
    return np.min(a, axis=axis, initial=POS_INF)


#: Entries of float64 in one block of product terms (512 KiB, within one
#: core's L2 cache while the block is added and then reduced).
_TERM_BLOCK = 1 << 16

#: Inner size from which a product keeps k as the last axis of its term
#: blocks.  Each entry then reduces one contiguous run of k terms; below it,
#: k goes first and each k adds one contiguous slab of (i, j) terms into
#: the entries.  The two orders cross near k = 100 on a 2-vCPU Xeon host.
_LONG_K = 100


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialized float64 array whose data starts on a 64-byte boundary.

    On a 2-vCPU Xeon host, numpy's SIMD loops ran 25-30% slower on buffers
    that malloc placed off a cache-line boundary, and where malloc places a
    buffer changes from one call to the next.
    """
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + size].reshape(shape)


def _row_blocks(m: int, n: int, k: int, triangle: bool) -> list[tuple[int, int, int]]:
    """Row blocks ``(i0, i1, cols)`` of an (m, n) product with inner size k.

    Each block's terms fill at most ``_TERM_BLOCK`` entries, or one row's
    ``cols * k`` when that is more.  A triangle block stops at column
    ``i1``, so its rows and columns grow together.
    """
    per_row = _TERM_BLOCK // max(k, 1)
    blocks = []
    i0 = 0
    while i0 < m:
        if triangle:
            rows = (math.isqrt(i0 * i0 + 4 * per_row) - i0) // 2  # rows * (i0 + rows) <= per_row
        else:
            rows = per_row // max(n, 1)
        i1 = min(m, i0 + max(1, rows))
        blocks.append((i0, i1, i1 if triangle else n))
        i0 = i1
    return blocks


def _tropical_product(a: np.ndarray, b: np.ndarray, accumulate, empty: float) -> np.ndarray:
    """C[i,j] = accumulate over k of a[i,k] + b[k,j], starting from ``empty``.

    Layout: the terms a[i,k] + b[k,j] of rows i0:i1 and columns :cols fill
    one 64-byte-aligned block, and one ``accumulate.reduce`` over k fills
    C[i0:i1, :cols].  A block holds about ``_TERM_BLOCK`` entries (at least
    one row), so the work buffer holds at most max(_TERM_BLOCK, n * k)
    entries and no (m, n, k) tensor is built.  The block is stored (i, j, k)
    when k >= ``_LONG_K`` and (k, i, j) below it.  ``np.fmax`` and
    ``np.fmin`` pass over the NaN of (+inf) + (-inf), which is exactly the
    absorbing rule of the addition that goes with each: lower for max,
    upper for min.

    Mirrored shapes: when k >= ``_LONG_K``, two shapes of product compute
    only the terms of columns j < i1 in each block and write the rest of C
    from them.  ``np.array_equal`` on the factors tells them apart:

    * b == aT: C is symmetric, since a[i,k] + a[j,k] = a[j,k] + a[i,k];
    * b == -aT: C[j,i] is minus the opposite reduction (fmin for fmax) of
      the (i, j) terms, since x - y = -(y - x) exactly; the empty value
      maps to itself, -(+inf) = -inf.

    Below ``_LONG_K`` every product is computed in full: with few terms per
    entry, the mirror's transposed writes cost more than the terms they
    skip (at n = 240 and k = 4, mirrored products ran 10-25% slower).

    Zero rule: every zero entry of C is +0.0.  A sum is -0.0 only when both
    addends are, so the factors are copied with ``+ 0.0`` first; then no
    term is -0.0, and the mirror writes 0.0 - x, not -x.  Without it, which
    of +0.0 and -0.0 wins a tie would depend on the SIMD lane that meets
    it, and ``array_equal`` treats them as equal.

    Raises:
        ValueError: If a factor is not 2-D or the inner dimensions differ.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        kind = "inner dimensions do not match" if a.ndim == b.ndim == 2 else "factors must be 2-D"
        raise ValueError(f"{kind}: shapes {a.shape} and {b.shape}")
    (m, k), n = a.shape, b.shape[1]
    k_last = k >= _LONG_K
    # Copies of a and b.T, C-ordered as the block is (k last or first).
    left, right = (a, b.T) if k_last else (a.T, b)
    left, right = np.add(left, 0.0, order="C"), np.add(right, 0.0, order="C")
    a_rows, b_rows = (left, right) if k_last else (left.T, right.T)
    mirrorable = k_last and left.shape == right.shape
    symmetric = mirrorable and np.array_equal(left, right)
    opposite = None
    if mirrorable and not symmetric and np.array_equal(left, -right):
        opposite = np.fmin if accumulate is np.fmax else np.fmax
    triangle = symmetric or opposite is not None
    blocks = _row_blocks(m, n, k, triangle)
    term = _aligned_empty((max([(i1 - i0) * cols * k for i0, i1, cols in blocks], default=0),))
    if opposite is not None:
        mirror = np.empty(max([(i1 - i0) * i0 for i0, i1, _ in blocks], default=0))
    out = _aligned_empty((m, n))
    with np.errstate(invalid="ignore"):
        for i0, i1, cols in blocks:
            size = (i1 - i0) * cols * k
            if k_last:
                terms = term[:size].reshape(i1 - i0, cols, k)
            else:
                terms = term[:size].reshape(k, i1 - i0, cols).transpose(1, 2, 0)
            np.add(a_rows[i0:i1, None], b_rows[None, :cols], out=terms)
            accumulate.reduce(terms, axis=2, initial=empty, out=out[i0:i1, :cols])
            if triangle and i0:
                upper = out[:i0, i0:i1].T
                if symmetric:
                    upper[...] = out[i0:i1, :i0]
                else:
                    flipped = mirror[: (i1 - i0) * i0].reshape(i1 - i0, i0)
                    opposite.reduce(terms[:, :i0], axis=2, initial=-empty, out=flipped)
                    np.subtract(0.0, flipped, out=upper)
    return out


def max_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i,j] = max_k a[i,k] + b[k,j] with lower addition and sup {} = -inf."""
    return _tropical_product(a, b, np.fmax, SUP_EMPTY)


def min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i,j] = min_k a[i,k] + b[k,j] with upper addition and inf {} = +inf."""
    return _tropical_product(a, b, np.fmin, INF_EMPTY)


def ext_close(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Elementwise extended-real equality within tol.

    Matching infinities compare equal; a finite value never equals an
    infinity; finite values compare by absolute difference.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    exact = a == b
    with np.errstate(invalid="ignore"):
        near = np.abs(a - b) <= tol
    return exact | (np.isfinite(a) & np.isfinite(b) & near)


def validate_values(values: Iterable[float], what: str = "values") -> np.ndarray:
    """``values`` as a float64 array (±inf allowed), rejecting NaN (named
    ``what`` in the error): ``_checked`` of any shape."""
    return _checked(values, what)


def _checked(
    values: Iterable[float], what: str, shape: tuple[int, ...] | None = None,
    *, below_inf: bool = False,
) -> np.ndarray:
    """The one check of an extended-real array.

    Converts ``values`` (named ``what`` in errors) to float64, neither
    copied nor frozen, and raises ValueError for NaN, then a shape other
    than ``shape`` (1-D or 2-D), then with ``below_inf`` for +inf, as the
    kernel codomain is [-inf, +inf).  One max reduction finds both, as it
    propagates NaN.
    """
    arr = np.asarray(values, dtype=float)
    top = arr.max(initial=NEG_INF)
    if math.isnan(top):
        raise ValueError(f"{what} must not contain NaN")
    if shape is not None and arr.shape != shape:
        expected = f"{shape[0]} values" if len(shape) == 1 else "a {}x{} matrix".format(*shape)
        raise ValueError(f"expected {expected}, got shape {arr.shape}")
    if below_inf and top == POS_INF:
        raise ValueError(f"{what} must be < +inf")
    return arr


def owned_array(
    values: Iterable[float], what: str, shape: tuple[int, ...] | None = None,
    *, below_inf: bool = False, copy: bool = True,
) -> np.ndarray:
    """The one gate of the extended-real arrays that containers hold:
    ``_checked``, then a read-only copy, or with ``copy=False`` the array
    itself made read-only, for an array the caller has just built and keeps
    no other reference to."""
    arr = _checked(np.array(values, dtype=float) if copy else values, what, shape,
                   below_inf=below_inf)
    arr.setflags(write=False)
    return arr


def square_matrix(values: Iterable[Iterable[float]], below_inf: bool = False) -> np.ndarray:
    """A square matrix of kernel values through ``_checked``."""
    arr = np.asarray(values, dtype=float)
    n = len(arr) if arr.ndim else 0
    return _checked(arr, "kernel values", (n, n), below_inf=below_inf)


def _adopted(cls: type, **attrs: object):
    """The body of every ``_adopt``: ``cls`` holding ``attrs`` as given, built
    without ``__init__``, its arrays checked by ``__post_init__(adopted=True)``."""
    obj = object.__new__(cls)
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)
    obj.__post_init__(adopted=True)
    return obj


def as_point(p: float | Sequence[float]) -> Point:
    """Normalize one scalar or coordinate sequence to a point tuple, for a
    single lookup such as ``PointSet.index_of``; point lists go through
    ``point_array``."""
    if isinstance(p, (int, float)):
        return (ext(p),)
    return tuple(ext(c) for c in p)


def point_array(points: Sequence[float | Sequence[float]] | np.ndarray) -> np.ndarray:
    """Read a list of points into one new (n, d) float64 array.

    ``decode_values`` reads the coordinates; a list of bare numbers (or a
    1-D array) is a list of 1-D points.  Repeated points are allowed.

    Raises:
        TypeError, ValueError: As ``decode_values``, for more than two
            dimensions, or for no points.
    """
    arr = decode_values(points)  # type: ignore[arg-type]
    if arr.ndim == 1:
        arr = arr[:, None]
    elif arr.ndim != 2:
        raise ValueError(f"expected an (n, d) array of points, got shape {arr.shape}")
    if not len(arr):
        raise ValueError("at least one point is required")
    return arr


def _first_repeat(arr: np.ndarray) -> int | None:
    """The least index of a row of ``arr`` equal to an earlier row (0.0 and
    -0.0 are equal), or None if the rows are pairwise distinct.

    A stable lexicographic sort puts equal rows next to each other in index
    order, so every sorted row equal to its predecessor repeats an earlier one.
    """
    if len(arr) < 2:
        return None
    if not arr.shape[1]:
        return 1
    order = np.lexsort(arr.T[::-1])
    ordered = arr[order]
    repeats = order[1:][(ordered[1:] == ordered[:-1]).all(axis=1)]
    return int(repeats.min()) if repeats.size else None


class PointSet:
    """A finite, ordered set of pairwise-distinct points in R^d.

    The ordering is part of the identity: index ``m`` <-> point ``x_m`` is a
    bijection used by every matrix-valued object in the package.  For
    spacetime problems the first coordinate of each point is a time and
    ``has_time`` is set.

    A set is built either from its points, ``PointSet(points)``, or from one
    coordinate axis per dimension, ``PointSet.lattice(axes)``: the Cartesian
    product of the axes in C order (first axis slowest).  ``PointSet(points)``
    reads the points with ``point_array`` (bare numbers are 1-D points) and
    holds them as one read-only (n, d) float64 array, which ``as_array``
    returns without a copy; a lattice holds its axes and looks points up
    axis by axis.  Either answers ``len``, ``dim``, ``as_array`` and ``==``
    from what it holds; the point tuples (``points``, iteration, hash) and
    the dict index behind ``index_of``, ``indices`` and ``in`` are built on
    first use and kept.  Equality is by points and ``has_time``, whichever
    way either side was built.

    Attributes:
        points: Tuple of coordinate tuples, all of the same dimension.
        has_time: Whether coordinate 0 is a time component.
        axes: For a lattice, its read-only coordinate axes; None otherwise.

    Raises:
        ValueError, TypeError: As ``point_array``, or, with the first
            repeated point in input order, for points that are not pairwise
            distinct (0.0 and -0.0 are one coordinate).
    """

    def __init__(
        self, points: Sequence[float | Sequence[float]] | np.ndarray, has_time: bool = False
    ) -> None:
        arr = point_array(points)
        repeat = _first_repeat(arr)
        if repeat is not None:
            p = tuple(arr[repeat].tolist())
            raise ValueError(f"points must be pairwise distinct, got {p} twice")
        arr.setflags(write=False)
        self._set(_array=arr, _points=None, _index=None, has_time=has_time, axes=None)

    def _set(self, **attrs: object) -> None:
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    @classmethod
    def make(
        cls, points: Sequence[float | Sequence[float]], has_time: bool = False
    ) -> "PointSet":
        """``PointSet(points, has_time)``: from scalars (1-D) or coordinate sequences."""
        return cls(points, has_time=has_time)

    @classmethod
    def lattice(
        cls, axes: Sequence[Iterable[float]], has_time: bool = False
    ) -> "PointSet":
        """The C-order product of coordinate axes, held as its axes.

        Raises:
            ValueError: If there is no axis, or an axis is not a nonempty
                1-D sequence, holds NaN or repeats a coordinate (0.0 and
                -0.0 are one coordinate).
        """
        arrays = []
        for ax in axes:
            arr = owned_array(ax, "point coordinates")
            if arr.ndim != 1 or len(arr) == 0:
                raise ValueError("lattice axes must be nonempty 1-D sequences")
            if len(np.unique(arr)) != len(arr):
                raise ValueError("points must be pairwise distinct: an axis repeats a coordinate")
            arrays.append(arr)
        if not arrays:
            raise ValueError("a lattice needs at least one axis")
        out = cls.__new__(cls)
        # Per-axis lookup tables: float keys match by ==, so 0.0 finds -0.0.
        lookups = tuple({c: i for i, c in enumerate(arr.tolist())} for arr in arrays)
        out._set(_points=None, has_time=has_time, axes=tuple(arrays), _lookups=lookups)
        return out

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PointSet is immutable; cannot set {name!r}")

    @property
    def points(self) -> tuple[Point, ...]:
        """The point tuples in order (built on first use)."""
        if self._points is None:
            self._set(_points=tuple(map(tuple, self.as_array().tolist())))
        return self._points

    def __len__(self) -> int:
        if self.axes is None:
            return len(self._array)
        return math.prod(len(ax) for ax in self.axes)

    def __iter__(self):
        return iter(self.points)

    @property
    def dim(self) -> int:
        """Coordinate dimension d."""
        return self._array.shape[1] if self.axes is None else len(self.axes)

    def _find(self, key: Point) -> int | None:
        """Index of a normalized point, or None if absent."""
        if self.axes is None:
            if self._index is None:
                self._set(_index={p: i for i, p in enumerate(self.points)})
            return self._index.get(key)
        if len(key) != len(self.axes):
            return None
        flat = 0
        for c, lookup in zip(key, self._lookups):
            i = lookup.get(c)
            if i is None:
                return None
            flat = flat * len(lookup) + i
        return flat

    def index_of(self, p: float | Sequence[float]) -> int:
        """Index of a point; raises KeyError if absent."""
        key = as_point(p)
        i = self._find(key)
        if i is None:
            raise KeyError(f"point {key} is not in the set")
        return i

    def indices(self, coords: np.ndarray) -> np.ndarray:
        """Index of each row of an (m, d) coordinate array, -1 for a row not
        in the set (0.0 and -0.0 match)."""
        found = map(self._find, map(tuple, np.asarray(coords, dtype=float).tolist()))
        return np.array([-1 if i is None else i for i in found], dtype=np.intp)

    def __contains__(self, p: object) -> bool:
        try:
            self.index_of(p)  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def as_array(self) -> np.ndarray:
        """Coordinates as an (n, d) float array: the set's own read-only
        array, or for a lattice a new array built from its axes."""
        if self.axes is None:
            return self._array
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, len(self.axes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        if self is other:
            return True
        if self.has_time != other.has_time or len(self) != len(other) or self.dim != other.dim:
            return False
        if self.axes is not None and other.axes is not None and all(
            len(a) == len(b) for a, b in zip(self.axes, other.axes)
        ):
            return all(np.array_equal(a, b) for a, b in zip(self.axes, other.axes))
        return bool((self.as_array() == other.as_array()).all())

    def __hash__(self) -> int:
        return hash((self.points, self.has_time))

    def __repr__(self) -> str:
        if self.axes is None:
            return f"PointSet(points={self.points!r}, has_time={self.has_time!r})"
        axes = [ax.tolist() for ax in self.axes]
        return f"PointSet.lattice(axes={axes!r}, has_time={self.has_time!r})"


@dataclass(frozen=True)
class GridFunction:
    """A total extended-real-valued function on a PointSet.

    Attributes:
        domain: The PointSet (one value per point, in order).
        values: float64 array of length ``len(domain)``; ±inf allowed, NaN not.
    """

    domain: PointSet
    values: np.ndarray

    def __post_init__(self, adopted: bool = False) -> None:
        values = owned_array(self.values, "GridFunction values", (len(self.domain),),
                             copy=not adopted)
        object.__setattr__(self, "values", values)

    @classmethod
    def _adopt(cls, domain: PointSet, values: np.ndarray) -> "GridFunction":
        """Take over a float64 array the caller has just built and keeps no
        other reference to: checked and made read-only, but not copied."""
        return _adopted(cls, domain=domain, values=values)

    def value_at(self, p: float | Sequence[float]) -> float:
        """Value at a given point of the domain."""
        return float(self.values[self.domain.index_of(p)])

    def with_values(self, values: Iterable[float]) -> "GridFunction":
        """Same domain, new values."""
        return GridFunction(self.domain, np.asarray(values, dtype=float))


def grid_function(
    domain: PointSet | Sequence[float | Sequence[float]], values: Iterable[float]
) -> GridFunction:
    """Convenience constructor accepting raw point lists."""
    if not isinstance(domain, PointSet):
        domain = PointSet.make(domain)
    return GridFunction(domain, np.asarray(list(values), dtype=float))


def dirac(domain: PointSet, x: float | Sequence[float], kind: str) -> GridFunction:
    """Indicator spike at a point.

    Args:
        domain: The PointSet the function lives on.
        x: A point of the domain.
        kind: ``"bottom"`` for value 0 at x and -inf elsewhere (the max-plus
            unit vector), ``"top"`` for value 0 at x and +inf elsewhere (its
            min-plus counterpart).

    Returns:
        The indicator GridFunction.

    Raises:
        KeyError: If x is not in the domain.
        ValueError: For an unknown kind.
    """
    if kind not in ("bottom", "top"):
        raise ValueError(f"kind must be 'bottom' or 'top', got {kind!r}")
    i = domain.index_of(x)
    fill = NEG_INF if kind == "bottom" else POS_INF
    values = np.full(len(domain), fill, dtype=float)
    values[i] = 0.0
    return GridFunction(domain, values)


# ---------------------------------------------------------------------------
# JSON / CSV value encoding: finite -> number, +inf -> "inf", -inf -> "-inf".
# ---------------------------------------------------------------------------


def encode_extreal(v: float) -> float | str:
    """Encode one extended real for JSON."""
    if v == POS_INF:
        return "inf"
    if v == NEG_INF:
        return "-inf"
    return float(v)


#: Types of an input number: Python and numpy reals (bools are ints, and
#: are refused by name).
_REAL_TYPES = (int, float, np.integer, np.floating)


def decode_extreal(obj: float | int | str) -> float:
    """Decode one extended real from JSON (number or "inf"/"-inf")."""
    if type(obj) is str:
        if obj == "inf":
            return POS_INF
        if obj == "-inf":
            return NEG_INF
        raise ValueError(f"invalid extended-real string {obj!r}")
    if isinstance(obj, bool) or not isinstance(obj, _REAL_TYPES):
        raise ValueError(f"invalid extended-real value {obj!r}")
    return ext(obj)


def encode_values(values: np.ndarray) -> list:
    """Encode an array of extended reals for JSON: ``encode_extreal`` per entry."""
    arr = np.asarray(values, dtype=float)
    # Python floats for the finite entries only: the least-action kernels
    # are mostly infinite, and a float made for each entry and then dropped
    # leaves the allocator's arenas fragmented.
    out = np.empty(arr.shape, dtype=object)
    finite = np.isfinite(arr)
    out[finite] = arr[finite]
    out[arr == POS_INF] = "inf"
    out[arr == NEG_INF] = "-inf"
    return out.tolist()


def _is_list(obj: object) -> bool:
    """Whether ``obj`` reads as a list: any iterable but a string or a mapping."""
    return isinstance(obj, (list, tuple)) or (
        hasattr(obj, "__iter__") and not isinstance(obj, (str, bytes, Mapping))
    )


def _sequence(obj: object) -> list | tuple:
    """``obj`` as a list or tuple, or TypeError if it does not read as a list."""
    if isinstance(obj, (list, tuple)):
        return obj
    if not _is_list(obj):
        raise TypeError(f"expected a list of extended reals, got {type(obj).__name__}")
    return list(obj)


def decode_values(obj: Sequence) -> np.ndarray:
    """Decode extended reals into a new float64 array: the one reader of
    input numbers.

    An entry is a number (a Python or numpy real, not a bool) or one of the
    strings "inf" and "-inf".  ``obj`` is a list (or other iterable) of
    entries or of equal-length lists of entries, or a numeric array; deeper
    lists are decoded row by row.  The entry types are scanned once and one
    ``np.array`` converts the entries.

    Raises:
        TypeError: If ``obj`` or one of its rows is not a list.
        ValueError: For a bool or other non-number entry, a string other
            than "inf" and "-inf", NaN, rows of unequal lengths, or an
            integer too large for a float.
    """
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "iuf":
        arr = obj.astype(float)
    else:
        entries, rows = _sequence(obj), None
        if entries and _is_list(entries[0]):
            rows = entries
            if not set(map(type, entries)) <= {list, tuple}:
                rows = list(map(_sequence, entries))
            if len(set(map(len, rows))) > 1:
                raise ValueError("all rows must have the same length")
            entries = list(itertools.chain.from_iterable(rows))
        types = set(map(type, entries))
        if not types <= {int, float, str}:
            if rows is not None and types & {list, tuple}:
                return np.array([decode_values(row) for row in rows], dtype=float)
            odd = {t for t in types if t is bool or not issubclass(t, _REAL_TYPES)} - {str}
            if odd:
                bad = next(v for v in entries if type(v) in odd)
                raise ValueError(f"invalid extended-real value {bad!r}")
        if str in types:
            bad = next((v for v in entries if type(v) is str and v not in ("inf", "-inf")), None)
            if bad is not None:
                raise ValueError(f"invalid extended-real string {bad!r}")
        try:
            arr = np.array(entries, dtype=float)
        except OverflowError as exc:
            raise ValueError("integer too large for a float") from exc
        if rows is not None:
            arr = arr.reshape(len(rows), len(rows[0]))
    if np.isnan(arr).any():
        raise ValueError("NaN is not an extended real")
    return arr
