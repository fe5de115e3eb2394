"""Full-suite gate: pinned instances, independent oracles, and time budgets.

Every numeric expectation here is either computed by an oracle in
``oracles.py`` (a second, structurally different route to the same value) or
asserted exactly on integer-valued inputs where the max-plus operations are
closed.  Runtime ceilings are part of the contract and are asserted with a
wall clock.
"""

import time

import numpy as np
import pytest

from tropkern.core import NEG_INF, POS_INF, GridFunction, PointSet
from tropkern.conjugation import (
    ConjugationOp,
    check_cyclic_monotone,
    check_monotone,
    conj_sesqui,
    diagonal_witness_pair,
    is_in_range,
)
from tropkern.kernels import (
    ClosedFormKernel,
    GramKernel,
    check_permutation_positivity,
    gram_on,
    is_tpsd_pairwise,
)
from tropkern.linear_theory import (
    FunctionFamily,
    closure_CG,
    is_idempotent,
    is_von_neumann_regular,
    left_residual,
    max_kernel_cG,
    mp_matmul,
    right_residual,
)
from tropkern.representer import (
    InfeasibleConstraintsError,
    SampleSet,
    build_f0,
    feasible_witnesses,
    reconstruct_stopping_cost,
    regress,
)
from tropkern.control import (
    LagrangianSpec,
    MaupertuisProblem,
    asymmetrize,
    invert_terminal_cost,
    maupertuis_dp,
    space_slice_kernel,
    value_function,
)

from oracles import (
    lower_convex_envelope,
    lp_regression,
    perm_positive_brute,
    regression_brute,
    regularity_brute_all,
    regularity_exhaustive,
    true_value_quadratic,
)

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

CONV = ClosedFormKernel("conv")
CAND3 = PointSet([-1.0, 0.0, 1.0])
QUAD = LagrangianSpec("quadratic")


def random_symmetric_gram(rng, n=4):
    """Symmetric integer matrix with entries in [-3, 3] and a -inf sprinkle."""
    m = rng.integers(-3, 4, size=(n, n)).astype(float)
    m = np.minimum(m, m.T)
    m[rng.random((n, n)) < 0.2] = NEG_INF
    return np.minimum(m, m.T)


def random_tpsd_gram(rng, n=4):
    """phi_i + phi_j plus a nonpositive zero-diagonal symmetric part.

    The pairwise inequality b(x,x) + b(y,y) - 2 b(x,y) = -2 c(x,y) >= 0 holds
    by construction, so every instance is tpsd with finite entries.
    """
    phi = rng.integers(-2, 3, size=n).astype(float)
    c = rng.integers(-3, 1, size=(n, n)).astype(float)
    c = np.minimum(c, c.T)
    np.fill_diagonal(c, 0.0)
    return phi[:, None] + phi[None, :] + c


def random_non_tpsd_gram(rng, n=4):
    """Finite symmetric matrix with one off-diagonal lifted above the
    diagonal mean; returns the matrix and the violating index pair."""
    m = rng.integers(-3, 4, size=(n, n)).astype(float)
    m = np.minimum(m, m.T)
    i, j = sorted(int(k) for k in rng.choice(n, size=2, replace=False))
    m[i, j] = m[j, i] = (m[i, i] + m[j, j]) / 2.0 + 1.0
    return m, i, j


def lattice_problem(dt, dr, cap=1, t_end=1.0, r_max=1.0):
    """Quadratic-Lagrangian problem on [0, t_end] x [-r_max, r_max].

    The stencil allows displacements k*dr for |k*dr/dt| <= cap (at least one
    cell either way).
    """
    times = np.round(np.arange(0.0, t_end + dt / 2, dt), 10)
    axis = np.round(np.arange(-r_max, r_max + dr / 2, dr), 10)
    kmax = max(1, int(round(cap * dt / dr)))
    stencil = [(k * dr,) for k in range(-kmax, kmax + 1)]
    return MaupertuisProblem(times, [axis], QUAD, stencil)


def closed_form_gap(problem, gram_matrix):
    """sup |gram - quadratic closed form| over pairs the stencil connects."""
    pts = np.asarray(problem.spacetime_points().points)
    t, r = pts[:, 0], pts[:, 1]
    tau = t[None, :] - t[:, None]
    disp = r[None, :] - r[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        hopf = np.where(
            tau == 0.0,
            np.where(disp == 0.0, 0.0, NEG_INF),
            -np.abs(tau) * (disp / np.where(tau == 0.0, 1.0, tau)) ** 2,
        )
    mask = gram_matrix > NEG_INF
    return float(np.max(np.abs(gram_matrix[mask] - hopf[mask])))


def grid_index(problem):
    return {p: i for i, p in enumerate(problem.spacetime_points().points)}


@pytest.fixture(scope="module")
def small_gram_stack():
    """Every 3x3 matrix over {0, -1, -inf} with its enumeration verdict."""
    vals = np.array([0.0, -1.0, NEG_INF])
    codes = np.indices((3,) * 9).reshape(9, -1).T
    grams = vals[codes].reshape(-1, 3, 3)
    return grams, regularity_brute_all(grams)


class TestBipartitePositivity:
    def test_pairwise_and_permutation_positive_within_second(self):
        start = time.perf_counter()
        kernel = GramKernel(PointSet(list(range(5))), BIPARTITE_5)
        assert is_tpsd_pairwise(kernel).is_tpsd
        assert check_permutation_positivity(BIPARTITE_5, m_max=5).holds
        assert time.perf_counter() - start < 1.0


class TestPairwiseEqualsPermutation:
    def test_two_hundred_random_grams_agree_with_brute_force(self):
        rng = np.random.default_rng(2024)
        pts = PointSet(list(range(4)))
        start = time.perf_counter()
        mismatches = 0
        for _ in range(200):
            m = random_symmetric_gram(rng)
            pairwise = is_tpsd_pairwise(GramKernel(pts, m)).is_tpsd
            if pairwise != perm_positive_brute(m, 4):
                mismatches += 1
        assert mismatches == 0
        assert time.perf_counter() - start < 5.0


class TestMonotonicityForms:
    def test_all_four_inequalities_hold_on_tpsd_grams(self):
        rng = np.random.default_rng(31)
        pts = PointSet(list(range(4)))
        failures = 0
        for _ in range(50):
            op = ConjugationOp(GramKernel(pts, random_tpsd_gram(rng)), pts)
            for _ in range(20):
                f = GridFunction(pts, rng.normal(size=4))
                g = GridFunction(pts, rng.normal(size=4))
                pair = check_monotone(op, f, g)
                cyc = check_cyclic_monotone(op, [f, g])
                ok = (
                    pair.holds_pair
                    and pair.holds_max
                    and cyc.holds_sum
                    and cyc.holds_max
                )
                failures += int(not ok)
        assert failures == 0

    def test_diagonal_witnesses_break_cauchy_schwarz_on_non_tpsd(self):
        rng = np.random.default_rng(32)
        pts = PointSet(list(range(4)))
        failures = 0
        for _ in range(50):
            m, i, j = random_non_tpsd_gram(rng)
            op = ConjugationOp(GramKernel(pts, m), pts)
            f, g = diagonal_witness_pair(op, i, j)
            failures += int(check_monotone(op, f, g).holds_max)
        assert failures == 0


class TestExactIntegerAlgebra:
    def test_five_hundred_cases_hold_exactly(self):
        rng = np.random.default_rng(41)
        pts = PointSet(list(range(4)))
        rows = PointSet([0, 1, 2])
        cols = PointSet([10, 20])
        start = time.perf_counter()
        for _ in range(500):
            op = ConjugationOp(GramKernel(pts, random_symmetric_gram(rng)), pts)
            f_vals = rng.integers(-4, 5, size=4).astype(float)
            f_vals[rng.random(4) < 0.2] = POS_INF
            if not np.isfinite(f_vals).any():
                f_vals[0] = 0.0
            one = conj_sesqui(op, GridFunction(pts, f_vals))
            three = conj_sesqui(op, conj_sesqui(op, one))
            assert np.array_equal(one.values, three.values)

            rect = rng.integers(-4, 5, size=(3, 2)).astype(float)
            rect_op = ConjugationOp(
                GramKernel(rows, np.zeros((3, 3))), cols, rows, matrix=rect
            )
            rf = GridFunction(cols, rng.integers(-4, 5, size=2).astype(float))
            r_one = conj_sesqui(rect_op, rf)
            r_three = conj_sesqui(
                rect_op, conj_sesqui(rect_op.transpose(), r_one)
            )
            assert np.array_equal(r_one.values, r_three.values)

            g_vals = rng.integers(-4, 5, size=4).astype(float)
            g = GridFunction(pts, g_vals)
            assert (is_in_range(op, g).biconjugate.values <= g_vals).all()

            higher = GridFunction(pts, g_vals + rng.integers(0, 3, size=4))
            cg_low = conj_sesqui(op, g).values
            cg_high = conj_sesqui(op, higher).values
            assert (cg_low >= cg_high).all()

            h_vals = rng.integers(-4, 5, size=4).astype(float)
            c_min = conj_sesqui(op, GridFunction(pts, np.minimum(g_vals, h_vals)))
            c_h = conj_sesqui(op, GridFunction(pts, h_vals)).values
            assert np.array_equal(c_min.values, np.maximum(cg_low, c_h))
            lam = float(rng.integers(-3, 4))
            shifted = conj_sesqui(op, GridFunction(pts, g_vals + lam)).values
            assert np.array_equal(shifted, cg_low - lam)

            members = tuple(
                GridFunction(pts, rng.integers(-4, 5, size=4).astype(float))
                for _ in range(3)
            )
            c = max_kernel_cG(FunctionFamily(pts, members))
            assert np.array_equal(mp_matmul(c, c), c)
            h = GridFunction(pts, rng.integers(-5, 6, size=4).astype(float))
            ch = closure_CG(c, h)
            assert (ch.values >= h.values).all()
            above = GridFunction(pts, h.values + rng.integers(0, 4, size=4))
            assert (closure_CG(c, above).values >= ch.values).all()
            assert np.array_equal(closure_CG(c, ch).values, ch.values)
        assert time.perf_counter() - start < 5.0


class TestConvexEnvelopeMembership:
    @staticmethod
    def convex_with_optional_bump(rng, sites):
        """Convex data with slopes drawn from the site values, plus at most
        one upward bump strictly inside a constant-slope run.

        Keeping the bump inside one linear piece (both neighbours on the
        piece) makes the chord across it coincide with the piece, so the
        geometric lower envelope of the bumped data equals the unbumped
        convex function at every site, and that function is itself a max of
        sections with grid slopes.
        """
        n = len(sites)
        slopes = np.sort(rng.choice(sites, size=n - 1))
        anchor = float(rng.integers(-2, 3))
        base = anchor + np.concatenate([[0.0], np.cumsum(slopes * np.diff(sites))])
        flats = [i for i in range(1, n - 1) if slopes[i - 1] == slopes[i]]
        data = base.copy()
        bumped = None
        if flats:
            bumped = int(rng.choice(flats))
            data[bumped] += float(rng.integers(1, 4))
        return data, base, bumped

    def test_biconjugate_matches_envelope_oracle(self):
        rng = np.random.default_rng(51)
        for n in range(3, 10):
            sites = np.arange(n, dtype=float) - (n - 1) / 2.0
            pts = PointSet([float(x) for x in sites])
            op = ConjugationOp(CONV, pts)
            for _ in range(10):
                data, base, bumped = self.convex_with_optional_bump(rng, sites)
                verdict = is_in_range(op, GridFunction(pts, data))
                env = lower_convex_envelope(sites, data)
                assert np.max(np.abs(verdict.biconjugate.values - env)) <= 1e-9
                assert np.max(np.abs(env - base)) <= 1e-9
                if bumped is None:
                    assert verdict.in_range
                else:
                    assert not verdict.in_range
                    assert verdict.gap.values[bumped] > 0.0

    def test_chord_slope_duals_reproduce_envelope_on_arbitrary_data(self):
        # With every pairwise chord slope available as a dual point, the
        # double conjugate of arbitrary data equals the geometric lower
        # convex envelope at the sites.
        rng = np.random.default_rng(52)
        for n in range(3, 10):
            for _ in range(10):
                sites = np.sort(
                    rng.choice(np.arange(-6, 7), size=n, replace=False)
                ).astype(float)
                data = rng.integers(-5, 6, size=n).astype(float)
                iu = np.triu_indices(n, 1)
                chords = (data[None, :] - data[:, None])[iu]
                gaps = (sites[None, :] - sites[:, None])[iu]
                slopes = np.unique(np.concatenate([chords / gaps, [0.0]]))
                sites_pts = PointSet([float(x) for x in sites])
                slope_pts = PointSet([float(p) for p in slopes])
                op = ConjugationOp(CONV, slope_pts, sites_pts)
                g = GridFunction(sites_pts, data)
                biconj = conj_sesqui(op, conj_sesqui(op.transpose(), g))
                env = lower_convex_envelope(sites, data)
                assert np.max(np.abs(biconj.values - env)) <= 1e-9

    def test_pinned_tent_biconjugate_and_gap(self):
        op = ConjugationOp(CONV, CAND3)
        verdict = is_in_range(op, GridFunction(CAND3, np.array([-1.0, 0.0, -1.0])))
        assert not verdict.in_range
        assert np.array_equal(verdict.biconjugate.values, [-1.0, -1.0, -1.0])
        assert np.array_equal(verdict.gap.values, [0.0, 1.0, 0.0])
        env = lower_convex_envelope(
            np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 0.0, -1.0])
        )
        assert np.array_equal(env, [-1.0, -1.0, -1.0])


class TestRegularityVerdicts:
    def test_three_point_parabola_gram_neither_idempotent_nor_regular(self):
        matrix = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.array_equal(matrix, gram_on(CONV, CAND3, CAND3))
        assert not is_idempotent(matrix)
        assert not is_von_neumann_regular(matrix).regular

    def test_squares_to_fixpoint_matrices_are_regular(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            m = rng.integers(-5, 1, size=(4, 4)).astype(float)
            m[rng.random((4, 4)) < 0.2] = NEG_INF
            np.fill_diagonal(m, 0.0)
            while not np.array_equal(mp_matmul(m, m), m):
                m = mp_matmul(m, m)
            verdict = is_von_neumann_regular(m)
            assert verdict.regular
            assert np.array_equal(verdict.product, m)
            # The residuated A* itself is the witness, exactly.
            a_star = right_residual(left_residual(m, m), m)
            assert np.array_equal(verdict.witness, a_star)
            assert np.array_equal(mp_matmul(mp_matmul(m, a_star), m), m)

    def test_residuation_matches_enumeration_on_all_small_grams(
        self, small_gram_stack
    ):
        grams, expected = small_gram_stack
        got = np.fromiter(
            (is_von_neumann_regular(g).regular for g in grams),
            dtype=bool,
            count=len(grams),
        )
        assert int(np.count_nonzero(got != expected)) == 0

    def test_exhaustive_witness_search_on_balanced_subsample(
        self, small_gram_stack
    ):
        grams, expected = small_gram_stack
        rng = np.random.default_rng(66)
        picks = np.concatenate(
            [
                rng.choice(np.flatnonzero(expected), 5, replace=False),
                rng.choice(np.flatnonzero(~expected), 5, replace=False),
            ]
        )
        for k in picks:
            gram = grams[k]
            verdict = is_von_neumann_regular(gram)
            assert verdict.regular == regularity_exhaustive(gram)
            if verdict.regular:
                # Witness entries above 2 (including +inf residuations) can
                # be lowered to 2 on this alphabet without losing B A B = B.
                capped = np.minimum(verdict.witness, 2.0)
                assert np.array_equal(
                    mp_matmul(mp_matmul(gram, capped), gram), gram
                )


class TestRepresenterPinned:
    def convex_samples(self):
        return SampleSet(
            PointSet([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]), CAND3
        )

    def concave_samples(self):
        return SampleSet(
            PointSet([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]), CAND3
        )

    def test_convex_dataset_reproduced_exactly(self):
        samples = self.convex_samples()
        wit = feasible_witnesses(samples, CONV)
        f0 = build_f0(samples, wit.witnesses, CONV)
        for x, y in zip([0.0, 1.0, 2.0], [0.0, 0.0, 1.0]):
            assert f0(x) == y
        for x in np.linspace(-1.0, 3.0, 17):
            assert f0(float(x)) == max(0.0, float(x) - 1.0)

    def test_concave_dataset_blocked_at_second_sample(self):
        with pytest.raises(InfeasibleConstraintsError) as exc:
            feasible_witnesses(self.concave_samples(), CONV)
        assert exc.value.blocking_index == 1  # reported one-based as position 2

    def test_regression_matches_enumeration_oracle(self):
        samples = self.concave_samples()
        bxp = gram_on(CONV, samples.xs, CAND3)
        for loss in ("sup_norm", "l1"):
            result = regress(samples, CONV, loss=loss)
            best_loss, _, _ = regression_brute(bxp, samples.ys, loss)
            assert result.loss_value == pytest.approx(best_loss, abs=1e-3)


def sorted_slope_instance(seed, n):
    """Fixed-anchor conv regression: sorted integer sites, integer targets in
    [-30, 30] and sorted slope anchors on a quarter grid, which make the
    exchange system feasible.  Returns the samples, the anchors and the gaps
    (x_k - x_m) p_m of the constraints y_k - y_m >= gap, written out here."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.choice(np.arange(-2 * n, 2 * n), n, replace=False)).astype(float)
    ys = rng.integers(-30, 31, n).astype(float)
    slopes = np.sort(rng.choice(np.arange(-2 * n, 2 * n), n, replace=False)) / 4.0
    gaps = (xs[:, None] - xs[None, :]) * slopes[None, :]
    np.fill_diagonal(gaps, NEG_INF)
    samples = SampleSet(PointSet(xs), ys, PointSet(slopes))
    return samples, tuple((p,) for p in slopes), gaps


class TestRegressionMatchesLP:
    @pytest.mark.parametrize("loss", ["sup_norm", "l1"])
    @pytest.mark.parametrize(
        "n, seed", [(20, 1), (20, 2), (20, 3), (50, 1), (50, 2), (200, 1)]
    )
    def test_fixed_anchor_fit_is_the_lp_optimum(self, n, seed, loss):
        samples, anchors, gaps = sorted_slope_instance(seed, n)
        result = regress(samples, CONV, loss=loss, fixed_p=anchors)
        feasible, best, _ = lp_regression(gaps, samples.ys, loss)
        assert feasible
        assert abs(result.loss_value - best) <= 1e-9 * max(1.0, abs(best))
        y = result.y_star
        slack = y[:, None] - y[None, :] - gaps
        assert np.all(slack >= -1e-9 * np.maximum(1.0, np.abs(gaps)))


class TestLeastActionAccuracy:
    def test_velocity_refinement_budgets(self):
        start = time.perf_counter()
        gaps = []
        for dr in (0.2, 0.1, 0.05):
            prob = lattice_problem(0.25, dr, cap=2)
            gram = maupertuis_dp(prob)
            assert is_tpsd_pairwise(gram, tol=0.0).is_tpsd
            assert is_idempotent(asymmetrize(gram).matrix, tol=0.0)
            gaps.append(closed_form_gap(prob, gram.matrix))
        assert gaps[-1] <= 0.1
        assert gaps[0] / gaps[1] >= 1.8
        assert gaps[1] / gaps[2] >= 1.8

        prob = lattice_problem(0.25, 0.05, cap=2)
        psi = GridFunction(prob.space_points(), prob.space_axes[0] ** 2)
        v = value_function(prob, psi)
        err = max(
            abs(v.values[i] - true_value_quadratic(t, r, 1.0))
            for i, (t, r) in enumerate(prob.spacetime_points().points)
        )
        assert err <= 0.05
        assert time.perf_counter() - start < 30.0

    @pytest.mark.xfail(
        strict=True,
        reason="documented alternative reading; round trips through a later "
        "time layer give the max-plus square finite entries at equal-time "
        "pairs where the symmetric kernel is -inf",
    )
    def test_symmetric_gram_idempotent_reading(self):
        gram = maupertuis_dp(lattice_problem(0.25, 0.2, cap=2))
        assert is_idempotent(gram.matrix, tol=0.0)

    @pytest.mark.xfail(
        strict=True,
        reason="documented alternative reading; with the time and space "
        "steps tied together the reachable velocity lattice stays integer "
        "and the closed-form gap stalls near 0.25 instead of entering the "
        "0.1 band",
    )
    def test_equal_step_gap_within_tenth_reading(self):
        prob = lattice_problem(0.05, 0.05)
        assert closed_form_gap(prob, maupertuis_dp(prob).matrix) <= 0.1

    @pytest.mark.xfail(
        strict=True,
        reason="documented alternative reading; the equal-step gap moves "
        "from 0.24 to 0.25 under the first halving, so no halving factor "
        "is attained",
    )
    def test_equal_step_gap_halves_reading(self):
        gaps = []
        for d in (0.2, 0.1):
            prob = lattice_problem(d, d)
            gaps.append(closed_form_gap(prob, maupertuis_dp(prob).matrix))
        assert gaps[0] / gaps[1] >= 1.8


class TestInverseRoundTrips:
    def test_stopping_cost_round_trip_dominates(self):
        pts = PointSet([0.0, 1.0, 2.0, 3.0])
        xs = pts.as_array()[:, 0]
        kernel = GramKernel(pts, -np.abs(xs[:, None] - xs[None, :]))
        truth = np.maximum(-xs, -np.abs(xs - 3.0) - 1.0)
        samples = SampleSet(PointSet([1.0, 2.0]), truth[[1, 2]], pts)
        result = reconstruct_stopping_cost(samples, kernel)
        assert result.loss_value == 0.0
        assert np.array_equal(
            result.stopping_cost.values, [POS_INF, 1.0, 2.0, POS_INF]
        )
        rebuilt = result.generator.on_grid(pts)
        for m, idx in enumerate((1, 2)):
            assert abs(rebuilt.values[idx] - samples.ys[m]) <= 1e-9
        # Negating turns range elements into costs-to-go: domination there
        # is the rebuilt function sitting below the truth here.
        assert np.all(-rebuilt.values >= -truth - 1e-12)

    def test_terminal_cost_round_trip_dominates(self):
        prob = lattice_problem(0.25, 0.25)
        psi = GridFunction(prob.space_points(), 2.0 * prob.space_axes[0] ** 2)
        v = value_function(prob, psi)
        idx = grid_index(prob)
        sample_rs = (-0.5, 0.0, 0.5)
        ys = tuple(float(-v.values[idx[(0.0, r)]]) for r in sample_rs)
        slice_kernel = space_slice_kernel(prob)
        samples = SampleSet(
            PointSet(list(sample_rs)), ys, slice_kernel.points
        )
        result = invert_terminal_cost(samples, slice_kernel)
        # Every witness maximizes its section, which is what makes the
        # reconstructed terminal cost regenerate a dominating cost-to-go.
        rs = [r for (r,) in slice_kernel.points.points]
        for m, j in enumerate(result.witness_indices):
            row = slice_kernel.matrix[rs.index(samples.xs.points[m][0])]
            section = row - np.asarray(psi.values)
            assert section[j] == pytest.approx(np.max(section), abs=1e-12)
        regen = value_function(prob, result.psi_T)
        for m, r in enumerate(sample_rs):
            assert regen.values[idx[(0.0, r)]] == pytest.approx(
                -samples.ys[m], abs=1e-9
            )
        assert np.all(regen.values >= v.values - 1e-12)
