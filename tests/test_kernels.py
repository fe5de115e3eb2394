"""Kernel families, tpsd checks, decomposition, and factorization."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from tropkern.core import NEG_INF, POS_INF, PointSet, PreconditionError, SizeError, lower_sub
from tropkern.kernels import (
    ClosedFormKernel,
    GramKernel,
    check_permutation_positivity,
    decompose_phi_b0,
    factorize,
    gram_on,
    is_tpsd_pairwise,
    kernel_from_spec,
    kernel_to_spec,
)

from oracles import perm_positive_brute

BIPARTITE_5 = np.array(
    [
        [0, -1, 0, 0, 0],
        [-1, 0, 0, 0, 0],
        [0, 0, 0, -1, -1],
        [0, 0, -1, 0, -1],
        [0, 0, -1, -1, 0],
    ],
    dtype=float,
)


def gram5() -> GramKernel:
    return GramKernel(PointSet([0, 1, 2, 3, 4]), BIPARTITE_5)


def random_points(rng, n, dim, times=None):
    """n random float points; with ``times``, coordinate 0 is drawn from it."""
    coords = rng.uniform(-3.0, 3.0, (n, dim))
    if times is not None:
        coords[:, 0] = rng.choice(times, n)
    return PointSet(tuple(tuple(map(float, row)) for row in coords))


def rows_and_cols(rng, dim, times=None):
    """Distinct row and column sets sharing two points."""
    rows = random_points(rng, 7, dim, times)
    extra = random_points(rng, 4, dim, times)
    return rows, PointSet(rows.points[5:] + extra.points)


def velocity_table(rows, cols):
    """A convex-flagged table cost tabulating every velocity between the
    sets (as lax_hopf computes it), with costs |v|^2 + 1."""
    vels = {
        tuple((b - a) / (y[0] - x[0]) for a, b in zip(x[1:], y[1:]))
        for x in rows for y in cols if x[0] != y[0]
    }
    vels = sorted(vels)
    return {
        "name": "table",
        "velocities": [list(v) for v in vels],
        "costs": [float(np.dot(v, v)) + 1.0 for v in vels],
        "convex": True,
    }


CLOSED_FORMS = {
    "conv": ClosedFormKernel("conv"),
    "sconv": ClosedFormKernel("sconv"),
    "lip": ClosedFormKernel("lip"),
    "lip_alpha": ClosedFormKernel("lip", {"alpha": 1.7}),
    "dirac": ClosedFormKernel("dirac"),
    "power_distance": ClosedFormKernel("power_distance"),
    "power_distance_p": ClosedFormKernel("power_distance", {"p": 2.5}),
}


def scalar_formula(kernel, x, y):
    """A closed form evaluated entry by entry, as the library once did."""
    ax, ay = np.array(x), np.array(y)
    if kernel.name == "conv":
        return float(ax @ ay)
    if kernel.name == "sconv":
        return float(-np.sum((ax - ay) ** 2))
    if kernel.name == "dirac":
        return 0.0 if x == y else NEG_INF
    if kernel.name == "lip":
        return float(-kernel.params.get("alpha", 1.0) * np.linalg.norm(ax - ay))
    return float(-np.linalg.norm(ax - ay) ** kernel.params.get("p", 1.0))


class TestGramOn:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_closed_form_table_matches_eval(self, name, dim):
        kernel = CLOSED_FORMS[name]
        rows, cols = rows_and_cols(np.random.default_rng(dim), dim)
        got = gram_on(kernel, rows, cols)
        expected = np.array([[kernel.eval(x, y) for y in cols] for x in rows])
        assert np.array_equal(got, expected)
        if name == "dirac":
            assert (expected == 0.0).sum() == 2
        reference = np.array([[scalar_formula(kernel, x, y) for y in cols] for x in rows])
        if name == "power_distance_p":
            # numpy's array pow may round a fractional power one ulp away
            # from the scalar pow.
            np.testing.assert_allclose(got, reference, rtol=4 * np.finfo(float).eps, atol=0)
        else:
            assert np.array_equal(got, reference)

    def test_point_arrays_read_as_point_sets(self):
        # An (n, d) array of points, repeats and signed zeros included, is
        # read as given: a Gram kernel by index, a closed form by its formula.
        grid = PointSet([-1.0, 0.0, 2.0])
        gram = GramKernel(grid, [[0.0, -1.0, -3.0], [-1.0, 0.0, -2.0], [-3.0, -2.0, 0.0]])
        anchors = np.array([[2.0], [-0.0], [2.0], [0.0]])
        assert np.array_equal(gram_on(gram, grid, anchors), gram.matrix[:, [2, 1, 2, 1]])
        assert np.array_equal(gram_on(gram, anchors), gram.matrix[np.ix_([2, 1, 2, 1], [2, 1, 2, 1])])
        with pytest.raises(KeyError, match=re.escape("point (0.5,) is not in the set")):
            gram_on(gram, grid, np.array([[2.0], [0.5]]))
        conv = ClosedFormKernel("conv")
        table = gram_on(conv, PointSet([1.0, 3.0]), anchors)
        assert np.array_equal(table, [[2.0, -0.0, 2.0, 0.0], [6.0, -0.0, 6.0, 0.0]])
        with pytest.raises(SizeError):
            gram_on(conv, np.zeros((1001, 1)), np.zeros((1000, 1)))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("cost", ["quadratic", "absolute", "table"])
    def test_lax_hopf_table_matches_eval(self, cost, dim):
        rng = np.random.default_rng(10 + dim)
        rows, cols = rows_and_cols(rng, dim, times=[0.0, 0.5, 1.25])
        lagrangian = velocity_table(rows, cols) if cost == "table" else {"name": cost}
        kernel = ClosedFormKernel("lax_hopf", {"lagrangian": lagrangian})
        expected = np.array([[kernel.eval(x, y) for y in cols] for x in rows])
        assert np.array_equal(gram_on(kernel, rows, cols), expected)
        assert (expected == NEG_INF).any() and (expected == 0.0).sum() == 2

    @pytest.mark.parametrize("dim", [0, 4, 5, 7])
    def test_sconv_table_adds_as_np_sum_does(self, dim):
        # Bit for bit, signed zeros included, below the 8 axes at which
        # np.sum starts to add pairwise.
        rng = np.random.default_rng(dim)
        xs = rng.integers(-3, 4, (23, dim)) * rng.choice([0.1, -0.0, 1e150], (23, dim))
        ys = rng.normal(size=(17, dim))
        diff = xs[:, None, :] - ys[None, :, :]
        got = ClosedFormKernel("sconv").table(xs, ys)
        assert np.array_equal(got.view(np.int64), (-np.sum(diff * diff, axis=2)).view(np.int64))

    def test_sconv_table_allocates_no_point_pair_axis_tensor(self):
        pts = PointSet([tuple(p) for p in np.random.default_rng(3).normal(size=(240, 3))])
        tracemalloc.start()
        try:
            matrix = gram_on(ClosedFormKernel("sconv"), pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # An (n, n, 3) difference tensor alone would be three outputs.
        assert peak <= 3 * matrix.nbytes

    def test_dirac_table_compares_one_coordinate_at_a_time(self):
        # Coincident rows, some with 0.0 against -0.0, and rows that differ
        # in one of 20 coordinates only.
        rng = np.random.default_rng(12)
        xs = rng.integers(-1, 2, (60, 20)) * rng.choice([1.0, -0.0], (60, 20))
        ys = np.concatenate([np.where(xs[:20] == 0, 0.0, xs[:20]), xs[20:40], rng.normal(size=(10, 20))])
        ys[30:40, 19] += 1.0
        expected = np.where((xs[:, None, :] == ys[None, :, :]).all(axis=2), 0.0, NEG_INF)
        assert (expected == 0.0).sum() >= 20
        assert np.array_equal(ClosedFormKernel("dirac").table(xs, ys), expected)
        big = rng.integers(0, 2, (2, 1000, 20)).astype(float)
        tracemalloc.start()
        try:
            table = ClosedFormKernel("dirac").table(*big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # An (n, m, 20) bool tensor alone would be 2.5 tables.
        assert peak <= 1.5 * table.nbytes

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_lip_and_power_tables_in_row_blocks_match_the_whole_table(self, dim):
        # 300 x 250 pairs fill two row blocks; each entry is the dot product
        # of its pair, as the (n, m, d) difference tensor gives it.
        rng = np.random.default_rng(30 + dim)
        xs = rng.integers(-300, 301, (300, dim)) / 10
        ys = rng.integers(-300, 301, (250, dim)) / 10
        diff = xs[:, None, :] - ys[None, :, :]
        dist = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
        for params, expected in [
            ({"alpha": 0.7}, -0.7 * dist),
            ({"p": 2}, -(dist ** 2)),
            ({"p": 0.5}, -(dist ** 0.5)),
            ({"p": 1.7}, -(dist ** 1.7)),
        ]:
            name = "lip" if "alpha" in params else "power_distance"
            got = ClosedFormKernel(name, params).table(xs, ys)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["lip", "power_distance"])
    def test_lip_and_power_tables_allocate_no_point_pair_axis_tensor(self, name):
        pts = PointSet([tuple(p) for p in np.random.default_rng(4).normal(size=(1000, 3))])
        tracemalloc.start()
        try:
            matrix = gram_on(ClosedFormKernel(name), pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The (n, n, 3) difference tensor alone would be three outputs.
        assert peak <= 2.1 * matrix.nbytes

    def test_gram_kernel_copies_the_callers_matrix(self):
        matrix = BIPARTITE_5.copy()
        gram = GramKernel(PointSet(range(5)), matrix)
        matrix[:] = 7.0
        assert np.array_equal(gram.matrix, BIPARTITE_5)
        assert not gram.matrix.flags.writeable

    def test_adopted_matrix_is_checked_and_frozen_not_copied(self):
        pts = PointSet(range(5))
        matrix = BIPARTITE_5.copy()
        gram = GramKernel._adopt(pts, matrix)
        assert gram.matrix is matrix and not matrix.flags.writeable
        assert np.array_equal(gram.matrix, BIPARTITE_5)
        for bad in (POS_INF, float("nan")):
            matrix = BIPARTITE_5.copy()
            matrix[1, 2] = bad
            with pytest.raises(ValueError):
                GramKernel._adopt(pts, matrix)
        with pytest.raises(ValueError):
            GramKernel._adopt(pts, BIPARTITE_5[:4].copy())

    def test_gram_kernel_reads_shuffled_subset(self):
        rng = np.random.default_rng(5)
        pts = random_points(rng, 9, 2)
        gram = GramKernel(pts, rng.normal(size=(9, 9)))
        r, c = rng.permutation(9)[:5], rng.permutation(9)[:4]
        rows = PointSet(tuple(pts.points[i] for i in r))
        cols = PointSet(tuple(pts.points[i] for i in c))
        assert np.array_equal(gram_on(gram, rows, cols), gram.matrix[np.ix_(r, c)])

    def test_gram_kernel_rows_default_to_its_points(self):
        assert np.array_equal(gram_on(gram5()), BIPARTITE_5)

    def test_point_off_gram_grid_raises_key_error(self):
        with pytest.raises(KeyError):
            gram_on(gram5(), PointSet([0, 1]), PointSet([2, 7]))

    def test_closed_form_needs_rows(self):
        with pytest.raises(ValueError):
            gram_on(ClosedFormKernel("conv"))

    @pytest.mark.parametrize(
        "name, points, message",
        [("conv", [[0.0], [POS_INF]], "must not contain NaN"),
         ("conv", [[1.0], [POS_INF]], "must be < +inf"),
         ("sconv", [[0.0], [NEG_INF]], "must not contain NaN"),
         ("lip", [[0.0, 1.0], [POS_INF, 1.0]], "must not contain NaN"),
         ("power_distance", [[NEG_INF]], "must not contain NaN")],
    )
    def test_closed_form_undefined_at_an_infinite_coordinate(self, name, points, message):
        with pytest.raises(PreconditionError, match=re.escape(f"kernel {name!r} values {message}")):
            gram_on(ClosedFormKernel(name), PointSet(points))

    def test_dirac_is_defined_at_infinite_coordinates(self):
        pts = PointSet([[0.0], [POS_INF], [NEG_INF]])
        assert np.array_equal(gram_on(ClosedFormKernel("dirac"), pts),
                              np.where(np.eye(3, dtype=bool), 0.0, NEG_INF))


class TestClosedFormEval:
    def test_eval_is_checked_as_gram_on_is(self):
        conv = ClosedFormKernel("conv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="values must not contain NaN"):
                conv.eval((0.0,), (POS_INF,))
            with pytest.raises(PreconditionError, match=re.escape("values must be < +inf")):
                conv.eval(1.0, POS_INF)

    def test_conv_inner_product(self):
        k = ClosedFormKernel("conv")
        assert k.eval((1, 2), (3, -1)) == 1.0

    def test_sconv_diagonal(self):
        assert ClosedFormKernel("sconv").eval((2, 5), (2, 5)) == 0.0

    def test_lip_euclidean(self):
        assert ClosedFormKernel("lip").eval(0.0, 3.0) == -3.0

    def test_lip_alpha(self):
        assert ClosedFormKernel("lip", {"alpha": 2.0}).eval(0.0, 3.0) == -6.0

    def test_dirac_kernel(self):
        k = ClosedFormKernel("dirac")
        assert k.eval(1.0, 1.0) == 0.0
        assert k.eval(1.0, 2.0) == NEG_INF

    def test_power_distance(self):
        assert ClosedFormKernel("power_distance", {"p": 2.0}).eval(0.0, 3.0) == -9.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ClosedFormKernel("nope")

    @pytest.mark.parametrize(
        "name, params",
        [
            ("lip", {"alpha": "abc"}),
            ("lip", {"alpha": POS_INF}),
            ("lip", {"alpha": True}),
            ("lip", {"alpha": 10**400}),
            ("power_distance", {"p": -0.5}),
            ("power_distance", {"p": float("nan")}),
            ("lax_hopf", {"lagrangian": {"name": "bogus"}}),
            ("lax_hopf", {"lagrangian": {"name": "table"}}),
        ],
    )
    def test_bad_params_rejected_when_built(self, name, params):
        with pytest.raises((TypeError, ValueError, KeyError)):
            ClosedFormKernel(name, params)

    def test_zero_power_is_allowed(self):
        assert ClosedFormKernel("power_distance", {"p": 0}).eval(0.0, 0.0) == -1.0


class TestTpsd:
    def test_bipartite_matrix(self):
        assert is_tpsd_pairwise(gram5()).is_tpsd

    def test_violating_gram(self):
        verdict = is_tpsd_pairwise(
            GramKernel(PointSet([0, 1]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        )
        assert not verdict.is_tpsd
        assert verdict.failure == "positivity"
        assert verdict.witness == (0, 1)

    def test_lip_always_tpsd(self):
        pts = PointSet([(0, 0), (1, 3), (-2, 5), (4, 4)])
        assert is_tpsd_pairwise(ClosedFormKernel("lip"), pts).is_tpsd

    def test_asymmetric_reported(self):
        verdict = is_tpsd_pairwise(
            GramKernel(PointSet([0, 1]), np.array([[0.0, -1.0], [-2.0, 0.0]]))
        )
        assert not verdict.is_tpsd
        assert verdict.failure == "symmetry"

    def test_gram_rejects_plus_infinity(self):
        with pytest.raises(ValueError):
            GramKernel(PointSet([0]), np.array([[np.inf]]))

    def test_hilbertian_psd_grams_pass(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            feats = rng.normal(size=(5, 3))
            gram = GramKernel(
                PointSet(list(range(5))), feats @ feats.T
            )
            assert is_tpsd_pairwise(gram).is_tpsd

    def test_log_abs_of_psd_gram_passes(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            feats = rng.normal(size=(4, 4))
            k = feats @ feats.T
            with np.errstate(divide="ignore"):
                logk = np.log(np.abs(k))
            gram = GramKernel(PointSet(list(range(4))), logk)
            assert is_tpsd_pairwise(gram).is_tpsd

    def test_stability_sum_constant_restriction(self):
        rng = np.random.default_rng(3)
        pts = PointSet(list(range(4)))
        for _ in range(20):
            f1 = rng.normal(size=(4, 2))
            f2 = rng.normal(size=(4, 2))
            a, b = f1 @ f1.T, f2 @ f2.T
            assert is_tpsd_pairwise(GramKernel(pts, a + b)).is_tpsd
            assert is_tpsd_pairwise(GramKernel(pts, a + 3.5)).is_tpsd
            sub = PointSet([0, 2])
            assert is_tpsd_pairwise(
                GramKernel(sub, a[np.ix_([0, 2], [0, 2])])
            ).is_tpsd


class TestPermutationPositivity:
    def test_bipartite_m5(self):
        verdict = check_permutation_positivity(BIPARTITE_5, m_max=5)
        assert verdict.holds

    def test_transposition_violation(self):
        verdict = check_permutation_positivity(
            np.array([[0.0, 1.0], [1.0, 0.0]]), m_max=2
        )
        assert not verdict.holds
        assert verdict.witness_subset == (0, 1)

    def test_rejects_pos_inf_entry(self):
        # +inf + -inf on the diagonal would be NaN and pass every comparison.
        m = np.array([[POS_INF, 0.0], [0.0, NEG_INF]])
        with pytest.raises(ValueError, match="kernel values must be < \\+inf"):
            check_permutation_positivity(m, m_max=2)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), ()])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="expected a .* matrix, got shape"):
            check_permutation_positivity(np.zeros(shape), m_max=2)

    def test_cycle_method_matches_full_enumeration(self):
        # Every subset and permutation, enumerated by the oracle, against the
        # verdict the pair inequality gives; near-tpsd grams by lifting the
        # diagonal, so both outcomes occur at every size.
        rng = np.random.default_rng(4)
        for n in range(2, 8):
            for scale in (1.0, 0.125):
                for _ in range(4):
                    m = rng.integers(-3, 4, size=(n, n)) * scale
                    m[rng.random((n, n)) < 0.15] = NEG_INF
                    m = np.minimum(m, m.T)
                    m[np.diag_indices(n)] += rng.integers(0, 3, size=n) * scale
                    for m_max in range(1, n + 1):
                        verdict = check_permutation_positivity(m, m_max=m_max)
                        assert verdict.holds == perm_positive_brute(m, m_max)
                        if not verdict.holds:
                            i, j = verdict.witness_subset
                            assert i < j
                            assert m[i, i] + m[j, j] < m[i, j] + m[j, i]
                            assert verdict.witness_perm == (1, 0)

    def test_tolerance_is_the_pairwise_tolerance(self):
        # Each pair has slack 3/4 - 1 < 0, but the 3-cycle sums 9/8 > tol
        # over the diagonal.  The verdict is the pairwise one at tol, so it
        # holds although the enumeration finds the cycle.
        m = np.full((3, 3), 0.375)
        np.fill_diagonal(m, 0.0)
        assert check_permutation_positivity(m, m_max=3, tol=1.0).holds
        assert perm_positive_brute(m, 2, tol=1.0)
        assert not perm_positive_brute(m, 3, tol=1.0)

    def test_pairwise_equals_permutation_verdict(self):
        rng = np.random.default_rng(5)
        pts = PointSet(list(range(4)))
        for _ in range(50):
            m = rng.integers(-3, 4, size=(4, 4)).astype(float)
            m = np.minimum(m, m.T)
            m[rng.random((4, 4)) < 0.2] = NEG_INF
            m = np.minimum(m, m.T)
            pairwise = is_tpsd_pairwise(GramKernel(pts, m)).is_tpsd
            assert pairwise == check_permutation_positivity(m, m_max=4).holds


class TestDecompose:
    def test_conv_gram_example(self):
        gram = GramKernel(
            PointSet([0, 1, 2]),
            np.array([[0.0, 0, 0], [0, 1, 2], [0, 2, 4]]),
        )
        phi, b0 = decompose_phi_b0(gram)
        assert np.allclose(phi.values, [0.0, 0.5, 2.0])
        expected = np.array(
            [[0, -0.5, -2], [-0.5, 0, -0.5], [-2, -0.5, 0]], dtype=float
        )
        assert np.allclose(b0.matrix, expected)

    def test_zero_diagonal_fixed_point(self):
        m = np.array([[0.0, -2.0], [-2.0, 0.0]])
        phi, b0 = decompose_phi_b0(GramKernel(PointSet([0, 1]), m))
        assert (phi.values == 0).all()
        assert np.array_equal(b0.matrix, m)

    def test_minus_inf_row_convention(self):
        m = np.array([[NEG_INF, NEG_INF], [NEG_INF, 0.0]])
        phi, b0 = decompose_phi_b0(GramKernel(PointSet([0, 1]), m))
        assert phi.values[0] == NEG_INF
        assert b0.matrix[0, 0] == 0.0
        assert b0.matrix[0, 1] == 0.0

    def test_reassembly_where_finite(self):
        rng = np.random.default_rng(6)
        pts = PointSet(list(range(4)))
        for _ in range(20):
            feats = rng.normal(size=(4, 3))
            m = feats @ feats.T
            phi, b0 = decompose_phi_b0(GramKernel(pts, m))
            rebuilt = phi.values[:, None] + b0.matrix + phi.values[None, :]
            assert np.allclose(rebuilt, m)
            assert np.allclose(np.diag(b0.matrix), 0.0)
            assert (b0.matrix <= 1e-12).all()

    def test_requires_tpsd(self):
        with pytest.raises(PreconditionError):
            decompose_phi_b0(
                GramKernel(PointSet([0, 1]), np.array([[0.0, 1.0], [1.0, 0.0]]))
            )


class TestFactorize:
    def test_two_point_example(self):
        gram = GramKernel(
            PointSet([0, 1]), np.array([[0.0, -1.0], [-1.0, 0.0]])
        )
        fm = factorize(gram)
        labels = {z: k for k, z in enumerate(fm.z_labels)}
        assert fm.psi[0, labels[(0, 0)]] == 0.0
        assert fm.psi[0, labels[(1, 0)]] == -1.0
        assert fm.psi[1, labels[(1, 1)]] == 0.0
        assert fm.psi[1, labels[(0, 1)]] == -1.0
        assert np.array_equal(fm.recompose(), gram.matrix)

    def test_single_point(self):
        gram = GramKernel(PointSet([5]), np.array([[3.0]]))
        assert np.array_equal(factorize(gram).recompose(), gram.matrix)

    def test_recomposition_exact_on_integer_grams(self):
        rng = np.random.default_rng(7)
        pts = PointSet(list(range(4)))
        count = 0
        while count < 25:
            m = rng.integers(-3, 4, size=(4, 4)).astype(float)
            m = np.minimum(m, m.T)
            m[rng.random((4, 4)) < 0.2] = NEG_INF
            m = np.minimum(m, m.T)
            gram = GramKernel(pts, m)
            if not is_tpsd_pairwise(gram).is_tpsd:
                continue
            count += 1
            assert np.array_equal(factorize(gram).recompose(), m)

    def test_lip_self_factorization(self):
        # The lip gram serves as its own feature map: sup_z b(x,z)+b(y,z)
        # equals b(x,y) because the triangle inequality is tight at z=y.
        pts = PointSet([0.0, 1.0, 2.5])
        b = gram_on(ClosedFormKernel("lip"), pts)
        recomposed = np.max(b[:, None, :] + b[None, :, :], axis=2)
        assert np.allclose(recomposed, b)

    def test_recompose_builds_no_cubic_tensor(self):
        pts = PointSet([float(i) for i in range(60)])
        gram = GramKernel(pts, gram_on(ClosedFormKernel("lip"), pts))
        features = factorize(gram)
        tracemalloc.start()
        try:
            recomposed = features.recompose()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(recomposed, gram.matrix)
        # The (60, 60, 3600) sum alone would take 104 MB.
        assert peak < 10e6

    def test_size_guard(self):
        # 101^3 feature entries exceed PAIR_GUARD; nothing is allocated.
        pts = PointSet([float(i) for i in range(101)])
        with pytest.raises(SizeError):
            factorize(GramKernel(pts, gram_on(ClosedFormKernel("lip"), pts)))

    def test_matches_the_entry_loop(self):
        # Bit for bit, signed zeros and -inf rows included; where the two
        # entries of (i, i) meet, the second one is kept.
        def loop(b):
            n = len(b)
            psi = np.full((n, n * n), NEG_INF)
            for i in range(n):
                for j in range(n):
                    psi[i, i * n + j] = b[i, i] / 2.0
                    psi[i, j * n + i] = lower_sub(b[i, j], b[j, j] / 2.0)
            return psi

        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            phi = rng.choice([NEG_INF, -1.5, -0.0, 0.0, 0.25, 3.0], n, p=[0.1] + [0.18] * 5)
            pool = np.array([0.0, -0.0, -0.5, -1.0, -2.0, NEG_INF])
            b0 = pool[rng.integers(0, len(pool), (n, n))]
            below = np.tril_indices(n, -1)
            b0[below] = b0.T[below]
            np.fill_diagonal(b0, pool[rng.integers(0, 2, n)])
            m = phi[:, None] + b0 + phi[None, :]  # b0 <= 0 is symmetric, so m is tpsd
            gram = GramKernel(PointSet(range(n)), m)
            fm = factorize(gram)
            assert not fm.psi.flags.writeable
            assert np.array_equal(fm.psi.view(np.int64), loop(gram.matrix).view(np.int64))

    def test_requires_tpsd(self):
        with pytest.raises(PreconditionError):
            factorize(
                GramKernel(PointSet([0, 1]), np.array([[0.0, 1.0], [1.0, 0.0]]))
            )


class TestKernelSpecs:
    def test_gram_round_trip(self):
        gram = gram5()
        again = kernel_from_spec(kernel_to_spec(gram))
        assert isinstance(again, GramKernel)
        assert np.array_equal(again.matrix, gram.matrix)
        assert again.points == gram.points

    def test_closed_form_round_trip(self):
        k = ClosedFormKernel("power_distance", {"p": 3.0})
        again = kernel_from_spec(kernel_to_spec(k))
        assert again.eval(0.0, 2.0) == k.eval(0.0, 2.0)
