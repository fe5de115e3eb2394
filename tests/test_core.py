"""Extended-real arithmetic, grid functions, and JSON encoding."""

import itertools
import math
import json
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropkern.core as core
from tropkern.core import (
    NEG_INF,
    POS_INF,
    GridFunction,
    PointSet,
    dirac,
    decode_extreal,
    decode_values,
    encode_extreal,
    encode_values,
    ext,
    ext_close,
    grid_function,
    lower_add,
    lower_add_arrays,
    lower_sub,
    max_plus,
    max_reduce,
    min_plus,
    min_reduce,
    upper_add,
    upper_add_arrays,
    upper_sub,
    validate_values,
)
from tropkern.kernels import ClosedFormKernel, GramKernel, PermutationVerdict, TpsdVerdict, gram_on
from tropkern.representer import RegressionResult, SampleSet, regress

from test_cli import module_env

ext_reals = st.one_of(
    st.just(POS_INF),
    st.just(NEG_INF),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

# For laws that re-associate or invert sums: integer-valued floats keep every
# intermediate exact, so the laws can be asserted with == while still
# exercising all the infinity corner cases.
ext_integers = st.one_of(
    st.just(POS_INF),
    st.just(NEG_INF),
    st.integers(min_value=-1_000_000, max_value=1_000_000).map(float),
)


def split_every_product(patch):
    """Have every product of two or more blocks split its blocks between two threads."""
    patch.setattr(core, "_SPLIT_TERMS", 0)
    patch.setattr(core, "_cpus", lambda: 2)


def before_helper_allocations(patch, act):
    """Call ``act()`` before each product buffer allocated off the calling thread."""
    caller = threading.get_ident()
    aligned_empty = core._aligned_empty

    def allocate(shape):
        if threading.get_ident() != caller:
            act()
        return aligned_empty(shape)

    patch.setattr(core, "_aligned_empty", allocate)


def assert_products_match_broadcast_forms(a, b):
    """Both products equal their (m, k, n) broadcast forms byte for byte, +0.0 for zeros."""
    cases = [
        (max_plus(a, b), max_reduce(lower_add_arrays(a[:, :, None], b[None, :, :]), axis=1)),
        (min_plus(a, b), min_reduce(upper_add_arrays(a[:, :, None], b[None, :, :]), axis=1)),
    ]
    for got, want in cases:
        assert got.shape == want.shape
        assert got.tobytes() == (want + 0.0).tobytes()
        assert got.size == 0 or got.ctypes.data % 64 == 0


class TestScalarArithmetic:
    def test_upper_add_mixed_infinities(self):
        assert upper_add(POS_INF, NEG_INF) == POS_INF

    def test_upper_add_finite(self):
        assert upper_add(2.0, 3.0) == 5.0

    def test_upper_add_agreeing_infinities(self):
        assert upper_add(NEG_INF, NEG_INF) == NEG_INF

    def test_lower_add_mixed_infinities(self):
        assert lower_add(POS_INF, NEG_INF) == NEG_INF

    def test_lower_add_identity(self):
        assert lower_add(-1.5, 0.0) == -1.5

    def test_lower_add_agreeing_infinities(self):
        assert lower_add(POS_INF, POS_INF) == POS_INF

    def test_upper_sub_infinity_minus_infinity(self):
        assert upper_sub(POS_INF, POS_INF) == POS_INF

    def test_lower_sub_infinity_minus_infinity(self):
        assert lower_sub(POS_INF, POS_INF) == NEG_INF

    @given(ext_reals, ext_reals)
    def test_commutative(self, a, b):
        assert upper_add(a, b) == upper_add(b, a)
        assert lower_add(a, b) == lower_add(b, a)

    @given(ext_integers, ext_integers, ext_integers)
    def test_associative(self, a, b, c):
        assert upper_add(upper_add(a, b), c) == upper_add(a, upper_add(b, c))
        assert lower_add(lower_add(a, b), c) == lower_add(a, lower_add(b, c))

    @given(ext_reals, ext_reals)
    def test_de_morgan_duality(self, a, b):
        # Unary minus is extended-real negation: it swaps the infinities.
        assert -upper_add(a, b) == lower_add(-a, -b)
        assert -lower_add(a, b) == upper_add(-a, -b)

    @given(ext_reals, ext_reals)
    def test_additions_agree_without_mixed_infinities(self, a, b):
        if {a, b} != {POS_INF, NEG_INF}:
            assert upper_add(a, b) == lower_add(a, b)

    @given(ext_reals)
    def test_lower_absorbs_bottom(self, a):
        assert lower_add(a, NEG_INF) == NEG_INF

    @given(ext_reals)
    def test_upper_add_bottom_iff_not_top(self, a):
        if a == POS_INF:
            assert upper_add(a, NEG_INF) == POS_INF
        else:
            assert upper_add(a, NEG_INF) == NEG_INF

    @given(ext_integers, ext_integers, ext_integers)
    def test_residuation_adjunction(self, a, b, c):
        # lower_add(a, b) <= c  <=>  b <= upper_sub(c, a)
        assert (lower_add(a, b) <= c) == (b <= upper_sub(c, a))

    def test_ext_rejects_nan(self):
        with pytest.raises(ValueError):
            ext(float("nan"))


class TestArrayArithmetic:
    @given(st.lists(ext_reals, min_size=1, max_size=6),
           st.lists(ext_reals, min_size=1, max_size=6))
    def test_arrays_match_scalars(self, xs, ys):
        n = min(len(xs), len(ys))
        a = np.array(xs[:n])
        b = np.array(ys[:n])
        up = upper_add_arrays(a, b)
        lo = lower_add_arrays(a, b)
        for i in range(n):
            assert up[i] == upper_add(a[i], b[i])
            assert lo[i] == lower_add(a[i], b[i])

    def test_no_nan_from_mixed_infinities(self):
        a = np.array([POS_INF, NEG_INF])
        b = np.array([NEG_INF, POS_INF])
        assert not np.isnan(upper_add_arrays(a, b)).any()
        assert not np.isnan(lower_add_arrays(a, b)).any()

    def test_empty_reductions(self):
        assert max_reduce(np.empty((0,))) == NEG_INF
        assert min_reduce(np.empty((0,))) == POS_INF
        col = max_reduce(np.empty((3, 0)), axis=1)
        assert (col == NEG_INF).all()

    def test_validate_values_rejects_nan(self):
        with pytest.raises(ValueError):
            validate_values([1.0, float("nan")])

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
    def test_tropical_products_match_broadcast_forms(self, m, k, n, data):
        # b is drawn as a general factor or as one of the two mirrored shapes.
        mode = data.draw(st.sampled_from(["general", "a.T", "-a.T"]))
        # (_LONG_K, _TERM_BLOCK) overrides: small inputs then also take the
        # k-last block order, whose mirrored shapes compute one triangle,
        # and cross many block boundaries, split between two threads.
        long_k, term_block = data.draw(st.sampled_from([(None, None), (0, None), (0, 8), (None, 8)]))
        entries = st.lists(ext_integers | st.just(-0.0), min_size=m * k + k * n, max_size=m * k + k * n)
        flat = np.array(data.draw(entries), dtype=float)
        a, b = flat[: m * k].reshape(m, k), flat[m * k :].reshape(k, n)
        if mode != "general":
            b = a.T if mode == "a.T" else -a.T
        with pytest.MonkeyPatch.context() as patch:
            split_every_product(patch)
            if long_k is not None:
                patch.setattr(core, "_LONG_K", long_k)
            if term_block is not None:
                patch.setattr(core, "_TERM_BLOCK", term_block)
            assert_products_match_broadcast_forms(a, b)

    @pytest.mark.parametrize("mode", ["general", "a.T", "-a.T"])
    @pytest.mark.parametrize(
        "m, k",
        [
            (70, 70),  # k first: several row blocks, the last one partial
            (70, 150),  # k last: mirrored shapes in several triangle blocks
            (3, 30_000),  # one row's terms exceed a block
            (4, 0),  # no terms: every entry is the empty value
        ],
    )
    def test_tropical_products_across_block_boundaries(self, monkeypatch, mode, m, k):
        split_every_product(monkeypatch)
        rng = np.random.default_rng(m + k)
        pool = np.array([POS_INF, NEG_INF, -0.0, 0.0, 1.0, -1.0, 2.0, -3.0])
        a, b = rng.choice(pool, (m, k)), rng.choice(pool, (k, m))
        if mode != "general":
            b = a.T if mode == "a.T" else -a.T
        assert_products_match_broadcast_forms(a, b)

    @pytest.mark.parametrize("mode", ["general", "a.T", "-a.T"])
    @pytest.mark.parametrize("k", [64, 150])  # both sides of _LONG_K
    def test_split_products_equal_serial_products_bitwise(self, mode, k):
        rng = np.random.default_rng(k)
        pool = np.array([POS_INF, NEG_INF, -0.0, 0.0, 1.0, -1.0, 2.5, -3.0])
        a, b = rng.choice(pool, (240, k)), rng.choice(pool, (k, 240))
        if mode != "general":
            b = a.T if mode == "a.T" else -a.T
        for product in (max_plus, min_plus):
            with pytest.MonkeyPatch.context() as patch:
                split_every_product(patch)
                split = product(a, b)
                patch.setattr(core, "_SPLIT_TERMS", 240 * 240 * k + 1)
                serial = product(a, b)
            assert split.tobytes() == serial.tobytes()

    def test_products_below_the_split_start_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", refuse)
        monkeypatch.setattr(core, "_cpus", lambda: 2)
        a = np.arange(100.0 * 100).reshape(100, 100)
        assert max_plus(a, a).shape == (100, 100)
        assert min_plus(a, -a.T).shape == (100, 100)

    def test_split_products_leave_no_thread(self, monkeypatch):
        # The helper's share starts late, so a product that did not wait for
        # it would return while it is still alive.
        before_helper_allocations(monkeypatch, lambda: time.sleep(0.2))
        monkeypatch.setattr(core, "_cpus", lambda: 2)
        started = threading.active_count()
        a = np.arange(240.0 * 240).reshape(240, 240)
        max_plus(a, a.T)
        assert threading.active_count() == started

    def test_split_products_raise_the_helpers_error(self, monkeypatch):
        class HelperFailed(Exception):
            pass

        def fail():
            raise HelperFailed

        before_helper_allocations(monkeypatch, fail)
        split_every_product(monkeypatch)
        started = threading.active_count()
        a = np.zeros((70, 150))  # several triangle blocks
        with pytest.raises(HelperFailed):
            max_plus(a, a.T)
        assert threading.active_count() == started

    def test_zero_entries_are_positive_zero(self):
        # Every entry is the max (or min) of the same two terms, +0.0 and
        # -0.0, so a SIMD lane that kept -0.0 would show at some position.
        a = np.array([[0.0, -0.0]] * 3)
        b = np.array([[-0.0] * 3] * 2)
        for product in (max_plus, min_plus):
            got = product(a, b)
            assert got.tobytes() == np.zeros((3, 3)).tobytes()

    def test_tropical_products_absorb_like_their_additions(self):
        a = np.array([[POS_INF, 0.0]])
        b = np.array([[NEG_INF], [1.0]])
        assert max_plus(a, b)[0, 0] == 1.0  # (+inf) + (-inf) = -inf, then max with 1
        assert min_plus(a, b)[0, 0] == 1.0  # (+inf) + (-inf) = +inf, then min with 1
        assert max_plus(np.empty((2, 0)), np.empty((0, 3))).tolist() == [[NEG_INF] * 3] * 2
        assert min_plus(np.empty((2, 0)), np.empty((0, 3))).tolist() == [[POS_INF] * 3] * 2
        with pytest.raises(ValueError, match="inner dimensions"):
            max_plus(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "a, b",
        [(np.zeros(3), np.zeros(3)), (np.zeros((2, 2, 2)), np.zeros((2, 2))), (np.zeros((2, 2)), 1.0)],
    )
    def test_tropical_products_reject_factors_that_are_not_2d(self, a, b):
        shapes = f"{np.shape(a)} and {np.shape(b)}"
        for product in (max_plus, min_plus):
            with pytest.raises(ValueError, match=re.escape(f"factors must be 2-D: shapes {shapes}")):
                product(a, b)

    def test_tropical_products_on_transposed_views(self):
        rng = np.random.default_rng(7)
        x = rng.integers(-9, 10, (5, 7)).astype(float)
        y = rng.integers(-9, 10, (5, 6)).astype(float)
        # left residual: min_k y[k, j] - x[k, i]
        want = min_reduce(upper_add_arrays(y[:, None, :], -x[:, :, None]), axis=0)
        got = min_plus(-x.T, y)
        assert np.array_equal(got, want)
        assert got.ctypes.data % 64 == 0

    def test_ext_close_infinities(self):
        assert ext_close(np.array([NEG_INF]), np.array([NEG_INF])).all()
        assert not ext_close(np.array([NEG_INF]), np.array([POS_INF])).any()
        assert not ext_close(np.array([NEG_INF]), np.array([0.0])).any()
        assert ext_close(np.array([1.0]), np.array([1.0 + 1e-12])).all()


class TestPointSetAndGridFunction:
    def test_distinctness_enforced(self):
        with pytest.raises(ValueError):
            PointSet([0.0, 1.0, 0.0])

    def test_index_bijection(self):
        ps = PointSet([(0, 1), (2, 3), (4, 5)])
        for i, p in enumerate(ps):
            assert ps.index_of(p) == i

    def test_grid_function_is_total(self):
        ps = PointSet([0.0, 1.0])
        with pytest.raises(ValueError):
            GridFunction(ps, np.array([1.0]))

    def test_grid_function_copies_the_callers_array(self):
        values = np.array([1.0, -0.0, NEG_INF])
        f = GridFunction(PointSet([0.0, 1.0, 2.0]), values)
        values[:] = 5.0
        assert list(f.values) == [1.0, -0.0, NEG_INF]
        assert not f.values.flags.writeable
        assert list(f.with_values(values).values) == [5.0] * 3

    def test_dirac_bottom(self):
        ps = PointSet([0.0, 1.0, 2.0])
        f = dirac(ps, 1.0, "bottom")
        assert list(f.values) == [NEG_INF, 0.0, NEG_INF]

    def test_dirac_top(self):
        ps = PointSet([0.0, 1.0])
        f = dirac(ps, 0.0, "top")
        assert list(f.values) == [0.0, POS_INF]

    def test_dirac_singleton(self):
        ps = PointSet([7.0])
        assert list(dirac(ps, 7.0, "bottom").values) == [0.0]
        assert list(dirac(ps, 7.0, "top").values) == [0.0]

    def test_dirac_outside_domain(self):
        ps = PointSet([0.0])
        with pytest.raises(KeyError):
            dirac(ps, 1.0, "bottom")

    def test_grid_function_helper(self):
        f = grid_function([0, 1], [NEG_INF, 3.0])
        assert f.value_at(1) == 3.0


def lattice_and_explicit(axes, has_time=False):
    """A lattice and the explicit PointSet of the same points in C order."""
    points = tuple(itertools.product(*[[float(c) for c in ax] for ax in axes]))
    return PointSet.lattice(axes, has_time=has_time), PointSet(points, has_time=has_time)


class TestLatticePointSet:
    """A lattice behaves as the explicit PointSet of its C-order product."""

    AXES = ([0.0, 0.25, 0.5], [-1.0, -0.0, 1.0 / 3.0], [2.0, 7.5])

    @pytest.mark.parametrize("n_axes", [1, 2, 3])
    def test_matches_explicit_points(self, n_axes):
        lattice, explicit = lattice_and_explicit(self.AXES[:n_axes])
        assert len(lattice) == len(explicit)
        assert lattice.dim == explicit.dim == n_axes
        assert list(lattice) == list(explicit)
        assert lattice.points == explicit.points
        assert np.array_equal(lattice.as_array(), explicit.as_array())
        assert lattice.as_array().shape == (len(explicit), n_axes)
        for i, p in enumerate(explicit):
            assert lattice.index_of(p) == explicit.index_of(p) == i
            assert p in lattice
        assert lattice == explicit and explicit == lattice
        assert hash(lattice) == hash(explicit)

    def test_first_axis_is_slowest(self):
        lattice = PointSet.lattice([[0.0, 1.0], [5.0, 6.0, 7.0]])
        assert lattice.points[:4] == ((0.0, 5.0), (0.0, 6.0), (0.0, 7.0), (1.0, 5.0))

    def test_index_of_signed_zero(self):
        lattice, explicit = lattice_and_explicit([[-0.0, 1.0], [0.0, 2.0]])
        for p in [(0.0, -0.0), (-0.0, 0.0), (0, 0)]:
            assert lattice.index_of(p) == explicit.index_of(p) == 0
        assert lattice.index_of((1.0, -0.0)) == 2

    @pytest.mark.parametrize(
        "point", [(0.1, 0.0), (0.0, 0.0, 0.0), (0.0,), (1.0, 3.0), (1.0 + 1e-15, 2.0)]
    )
    def test_off_grid_points(self, point):
        lattice, explicit = lattice_and_explicit([[0.0, 1.0], [0.0, 2.0]])
        for ps in (lattice, explicit):
            with pytest.raises(KeyError):
                ps.index_of(point)
            assert point not in ps
        assert "x" not in lattice and [0.0, "y"] not in lattice

    def test_equality_needs_points_order_and_time(self):
        lattice, explicit = lattice_and_explicit([[0.0, 1.0], [0.0, 2.0]])
        assert lattice != PointSet(explicit.points[::-1])
        assert lattice != PointSet(explicit.points, has_time=True)
        assert lattice != PointSet.lattice([[0.0, 1.0], [0.0, 3.0]])
        assert lattice != PointSet.lattice([[0.0, 1.0]])
        assert lattice == PointSet.lattice([np.array([0.0, 1.0]), (-0.0, 2.0)])
        assert lattice != PointSet.lattice([[0.0, 1.0], [0.0, 2.0]], has_time=True)

    def test_axes_are_read_only_copies(self):
        axis = np.array([0.0, 1.0])
        lattice = PointSet.lattice([axis])
        axis[0] = 5.0
        assert lattice.points == ((0.0,), (1.0,))
        with pytest.raises(ValueError):
            lattice.axes[0][0] = 2.0
        with pytest.raises(AttributeError):
            lattice.has_time = True

    @pytest.mark.parametrize(
        "axes",
        [[], [[]], [0.0], [[[0.0, 1.0]]], [[0.0, math.nan]], [[0.0, 1.0, 0.0]], [[0.0, -0.0]]],
    )
    def test_bad_axes(self, axes):
        with pytest.raises(ValueError):
            PointSet.lattice(axes)


# Few coordinates, so that queries hit; 0.0 and -0.0 are one coordinate.
LOOKUP_COORDS = [NEG_INF, -1.0, -0.0, 0.0, 0.5, 2.0, POS_INF]


def _key(row):
    """A row with its zeros unsigned: equal rows have equal keys."""
    return tuple(c + 0.0 for c in row)


@st.composite
def point_sets_and_queries(draw):
    """A listed set or a lattice (axes in any order) of dimension 1 to 3, and
    (m, d) query rows: its own points, off-grid rows and equal-zero twins."""
    d = draw(st.integers(1, 3))
    coord = st.sampled_from(LOOKUP_COORDS)
    if draw(st.booleans()):
        axis = st.lists(coord, min_size=1, max_size=5, unique_by=lambda c: c + 0.0)
        points = PointSet.lattice([draw(axis) for _ in range(d)])
    else:
        row = st.tuples(*[coord] * d)
        points = PointSet(draw(st.lists(row, min_size=1, max_size=12, unique_by=_key)))
    queries = draw(st.lists(st.tuples(*[st.sampled_from(LOOKUP_COORDS + [7.0])] * d), max_size=12))
    own = draw(st.lists(st.integers(0, len(points) - 1), max_size=6))
    coords = np.array(queries + [points.points[i] for i in own], dtype=float).reshape(-1, d)
    if draw(st.booleans()):
        coords[coords == 0.0] *= -1.0
    return points, coords


def _scan(points, row):
    """The index of ``row`` on ``points`` by a scan of every point, or -1."""
    for i, p in enumerate(points.as_array()):
        if all(a == b for a, b in zip(p, row)):
            return i
    return -1


class TestPointLookup:
    """``indices``, ``index_of`` and ``in`` agree with a scan of the points."""

    @settings(deadline=None, max_examples=300)
    @given(point_sets_and_queries())
    def test_matches_a_scan(self, case):
        points, coords = case
        want = [_scan(points, row) for row in coords]
        got = points.indices(coords)
        assert got.dtype == np.intp and got.tolist() == want
        for row, i in zip(coords.tolist(), want):
            assert (tuple(row) in points) == (i >= 0)
            if i >= 0:
                assert points.index_of(row) == i
            else:
                with pytest.raises(KeyError):
                    points.index_of(row)

    @settings(deadline=None, max_examples=100)
    @given(point_sets_and_queries())
    def test_other_dimensions_and_no_rows(self, case):
        points, coords = case
        d = points.dim
        assert points.indices(np.empty((0, d))).shape == (0,)
        for other in (d - 1, d + 1):
            rows = np.zeros((3, other))
            assert points.indices(rows).tolist() == [-1, -1, -1]
            assert tuple(rows[0]) not in points
            with pytest.raises(KeyError):
                points.index_of(rows[0])

    @settings(deadline=None, max_examples=100)
    @given(point_sets_and_queries(), st.randoms(use_true_random=False))
    def test_gram_on_reads_subsets_by_index(self, case, rand):
        points, _ = case
        n = len(points)
        matrix = np.array([[float(rand.randint(-9, 9)) for _ in range(n)] for _ in range(n)])
        kernel = GramKernel(points, matrix)
        pick = [rand.sample(range(n), rand.randint(1, n)) for _ in range(2)]
        rows, cols = (PointSet(points.as_array()[idx]) for idx in pick)
        assert np.array_equal(gram_on(kernel, rows, cols), matrix[np.ix_(*pick)])


class TestJsonEncoding:
    @given(ext_reals)
    def test_round_trip(self, v):
        assert decode_extreal(encode_extreal(v)) == v

    def test_infinity_strings(self):
        assert encode_extreal(POS_INF) == "inf"
        assert encode_extreal(NEG_INF) == "-inf"
        assert decode_extreal("inf") == POS_INF
        assert decode_extreal("-inf") == NEG_INF

    def test_matrix_round_trip(self):
        m = np.array([[0.0, NEG_INF], [POS_INF, -2.5]])
        assert np.array_equal(decode_values(encode_values(m)), m)

    @pytest.mark.parametrize("shape", [(0,), (5,), (0, 3), (4, 3), (2, 2, 2)])
    def test_values_encode_entry_by_entry(self, shape):
        # json.dumps tells -0.0 from 0.0 (and a float from a numpy scalar).
        def per_entry(arr):
            if arr.ndim == 1:
                return [encode_extreal(v) for v in arr]
            return [per_entry(row) for row in arr]

        pool = np.array([POS_INF, NEG_INF, -0.0, 0.0, 2.5, -7.0])
        rng = np.random.default_rng(sum(shape))
        arr = pool[rng.integers(0, len(pool), size=shape)]
        assert json.dumps(encode_values(arr)) == json.dumps(per_entry(arr))

    def test_decode_rejects_nan_strings(self):
        with pytest.raises(ValueError):
            decode_extreal("nan")

    @pytest.mark.parametrize(
        "obj, error",
        [
            ([1.0, True], ValueError),
            ([[1.0], [None]], ValueError),
            (["inf", "Infinity"], ValueError),
            ([["-inf", "nan"]], ValueError),
            ([math.nan], ValueError),
            ([[1.0, 2.0], [3.0]], ValueError),
            ([[1.0], 2.0], TypeError),
            ([1.0, [2.0]], ValueError),
            ({"0": 1.0}, TypeError),
            ("inf", TypeError),
        ],
    )
    def test_decode_rejects(self, obj, error):
        with pytest.raises(error):
            decode_values(obj)

    @pytest.mark.parametrize("obj", [[10**400], [[1.0, -(10**400)]]])
    def test_decode_rejects_integers_beyond_float(self, obj):
        with pytest.raises(ValueError, match="too large for a float"):
            decode_values(obj)

    def test_decode_keeps_shape_and_signed_zero(self):
        out = decode_values([[-0.0, "inf", 3], ["-inf", 2**53, 0.5]])
        assert out.shape == (2, 3)
        assert math.copysign(1.0, out[0, 0]) == -1.0
        assert out.tolist() == [[0.0, POS_INF, 3.0], [NEG_INF, 2.0**53, 0.5]]
        assert decode_values([[[1, 2]], [[3, "inf"]]]).shape == (2, 1, 2)
        assert decode_values([[]]).shape == (1, 0)
        assert decode_values([]).shape == (0,)

    def test_decode_reads_what_library_callers_pass(self):
        # numpy real scalars, iterables that are not lists, and numeric arrays.
        rows = ((np.float64(0.5), np.int64(2)), [np.float32(1.5), "-inf"])
        assert decode_values(rows).tolist() == [[0.5, 2.0], [1.5, NEG_INF]]
        assert decode_values(range(3)).tolist() == [0.0, 1.0, 2.0]
        assert decode_values(iter([np.array([1, 2]), (3, 4)])).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        given = np.array([[1, -2]])
        out = decode_values(given)
        assert out.dtype == np.float64 and out.tolist() == [[1.0, -2.0]]
        out[0, 0] = 9.0
        assert given[0, 0] == 1  # a new array
        assert decode_extreal(np.float32(0.5)) == 0.5 and decode_extreal(np.int64(-3)) == -3.0

    @pytest.mark.parametrize(
        "obj",
        [[np.bool_(True)], [[1.0, 2.0], [np.bool_(False), 3.0]], ["1.5"], [[1.0], ["1e400"]],
         [np.str_("1.5")], np.array([True]), [np.array([1.0, np.nan])]],
    )
    def test_decode_refuses_bools_and_numeric_strings(self, obj):
        with pytest.raises(ValueError):
            decode_values(obj)

    @pytest.mark.parametrize("obj", [np.True_, np.str_("inf"), None, [1.0, 2.0], "1.5"])
    def test_decode_extreal_refuses_what_is_no_number(self, obj):
        with pytest.raises(ValueError):
            decode_extreal(obj)

    @pytest.mark.parametrize(
        "points, shape",
        [([0.5, -1], (2, 1)), (range(4), (4, 1)), ([(np.float64(1.0), 2)], (1, 2)),
         (np.arange(6).reshape(3, 2), (3, 2)), (np.array([2.0, "-inf"], dtype=object), (2, 1)),
         ([["inf", -0.0]], (1, 2))],
    )
    def test_point_array_reads_through_decode_values(self, points, shape):
        arr = core.point_array(points)
        assert arr.shape == shape
        assert np.array_equal(arr.ravel(), decode_values(points).ravel())

    @pytest.mark.parametrize(
        "points, error",
        [([True, 1.0], ValueError), ([[0.0], ["2.5"]], ValueError), ([], ValueError),
         ([[[0.0]]], ValueError), ([[0.0], [1.0, 2.0]], ValueError), ([1.0, [2.0]], ValueError),
         ([[1.0], 2.0], TypeError), ("12", TypeError), ([[0.0], "5"], TypeError)],
    )
    def test_point_array_refuses(self, points, error):
        with pytest.raises(error):
            core.point_array(points)


class Pair(core.Record):
    """A record with a required field, a defaulted one and a private slot."""

    first: int
    second: tuple = ()
    _cache: object = None

    def __post_init__(self):
        object.__setattr__(self, "second", tuple(self.second))


# Imports tropkern.cli in a fresh interpreter that has loaded numpy, counts
# the builtins.exec calls that run source text (a dataclass execs its
# generated methods; importing a module execs a code object, not text), and
# prints what the import generated and loaded.
IMPORT_GUARD = """
import builtins, json, sys
import numpy
calls = []
real_exec = builtins.exec
def counted(source, *args, **kwargs):
    if isinstance(source, str):
        calls.append(source)
    return real_exec(source, *args, **kwargs)
builtins.exec = counted
import tropkern.cli
builtins.exec = real_exec
modules = sorted(name for name in sys.modules if name.startswith("tropkern."))
generated = sorted({
    f"{obj.__module__}.{obj.__name__}"
    for name in modules for obj in vars(sys.modules[name]).values()
    if isinstance(obj, type) and obj.__module__.startswith("tropkern")
    and "__dataclass_fields__" in vars(obj)
})
print(json.dumps({"exec_calls": len(calls), "generated": generated, "modules": modules}))
"""


class TestRecord:
    """``core.Record``: binding, immutability, value equality, and an import
    that generates no code."""

    def test_arguments_bind_by_position_keyword_and_default(self):
        assert vars(Pair(1, [2])) == {"first": 1, "second": (2,)}
        assert vars(Pair(second=(2,), first=1)) == {"first": 1, "second": (2,)}
        assert Pair(1).second == ()
        assert Pair._fields == ("first", "second")
        # Each class holds __init__ itself: bench/tracing.py wraps it per class.
        assert vars(Pair)["__init__"] is core.Record.__init__

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [((), {}, "missing argument(s) first"),
         ((1,), {"third": 3}, "unexpected argument 'third'"),
         ((1,), {"first": 2}, "multiple values for argument 'first'"),
         ((1, (), 3), {}, "takes 2 arguments but 3 were given")],
        ids=["missing", "unknown", "repeated", "too-many"],
    )
    def test_bad_arguments_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            Pair(*args, **kwargs)

    def test_underscore_fields_are_not_arguments(self):
        with pytest.raises(TypeError, match="unexpected argument '_cache'"):
            Pair(1, _cache=2)
        assert Pair(1)._cache is None
        assert "_cache" not in repr(Pair(1))

    def test_fields_cannot_be_set_or_deleted(self):
        pair = Pair(1)
        with pytest.raises(AttributeError, match="immutable"):
            pair.first = 2
        with pytest.raises(AttributeError, match="immutable"):
            del pair.first
        with pytest.raises(AttributeError, match="immutable"):
            pair.other = 2
        assert pair.first == 1

    def test_repr_lists_the_fields(self):
        assert repr(Pair(1, (2,))) == "Pair(first=1, second=(2,))"
        assert repr(TpsdVerdict(True)) == "TpsdVerdict(is_tpsd=True, failure=None, witness=None)"

    def test_adopted_checks_arrays_without_copying(self):
        domain = PointSet([0.0, 1.0])
        values = np.array([0.0, NEG_INF])
        f = GridFunction._adopt(domain, values)
        assert f.values is values
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="NaN"):
            GridFunction._adopt(domain, np.array([0.0, math.nan]))
        with pytest.raises(ValueError, match="expected 2 values"):
            GridFunction._adopt(domain, np.zeros(3))

    def test_tuples_compare_element_by_element(self):
        assert Pair(1, (np.zeros(2), "a")) == Pair(1, (np.zeros(2), "a"))
        assert Pair(1, (np.zeros(2), "a")) != Pair(1, (np.ones(2), "a"))
        assert Pair(1, (np.zeros(2),)) != Pair(1, (np.zeros(2), "a"))

    def test_equal_regressions_compare_equal(self):
        samples = SampleSet(PointSet([0.0, 1.0, 2.0]), np.array([0.0, 1.5, 0.0]),
                            PointSet([-1.0, 0.0, 1.0]))
        conv = ClosedFormKernel("conv")
        first, second = regress(samples, conv), regress(samples, conv)
        assert first is not second and first == second
        assert first.interpolant == second.interpolant
        fields = {key: getattr(first, key) for key in first._fields}
        moved = first.y_star.copy()
        moved[1] += 0.5
        assert RegressionResult(**fields) == first
        assert RegressionResult(**{**fields, "y_star": moved}) != first

    def test_records_of_different_classes_are_unequal(self):
        assert TpsdVerdict(True) == TpsdVerdict(True)
        assert TpsdVerdict(True) != PermutationVerdict(True)
        assert TpsdVerdict(True) != TpsdVerdict(False)
        domain = PointSet([0.0])
        assert GridFunction(domain, [1.0]) == GridFunction(domain, np.array([1.0]))

    def test_records_are_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(TpsdVerdict(True))
        with pytest.raises(TypeError, match="unhashable"):
            hash(GridFunction(PointSet([0.0]), [1.0]))

    def test_importing_the_cli_generates_no_code(self):
        proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD], capture_output=True,
                              text=True, env=module_env("0"), timeout=60)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["exec_calls"] == 0
        assert report["generated"] == []
        library = {"core", "kernels", "conjugation", "linear_theory", "representer", "control"}
        assert {f"tropkern.{name}" for name in library} <= set(report["modules"])
