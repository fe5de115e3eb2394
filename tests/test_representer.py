"""Interpolation witnesses, canonical interpolants, and constrained regression."""

import itertools
import math

import numpy as np
import pytest

from tropkern.core import (
    NEG_INF,
    POS_INF,
    GridFunction,
    PointSet,
    PreconditionError,
)
from tropkern.conjugation import ConjugationOp, is_in_range
from tropkern.kernels import ClosedFormKernel, GramKernel, gram_on
import tropkern.representer as representer
from tropkern.representer import (
    CanonicalInterpolant,
    InfeasibleConstraintsError,
    SampleSet,
    _closure,
    _greatest_below,
    _regress_fixed,
    build_f0,
    feasible_witnesses,
    reconstruct_stopping_cost,
    regress,
)

from oracles import (
    lo_add,
    lo_sub,
    lp_difference_feasible,
    lp_regression,
    regression_brute,
    two_cycle_free_assignments,
    up_sub,
    witnesses_per_sample,
)

CAND3 = PointSet.make([-1.0, 0.0, 1.0])
CONV = ClosedFormKernel("conv")


def convex_samples() -> SampleSet:
    return SampleSet(PointSet.make([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]), CAND3)


def concave_samples() -> SampleSet:
    return SampleSet(PointSet.make([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]), CAND3)


def lip_gram(points) -> GramKernel:
    pts = PointSet.make(points)
    return GramKernel(pts, gram_on(ClosedFormKernel("lip"), pts))


def random_instance(rng, n_samples=4, n_cand=5, bottom_density=0.15):
    xs = PointSet.make([(0.0, float(i)) for i in range(n_samples)])
    cands = PointSet.make([(1.0, float(j)) for j in range(n_cand)])
    bxp = rng.integers(-4, 5, size=(n_samples, n_cand)).astype(float)
    bxp[rng.random((n_samples, n_cand)) < bottom_density] = NEG_INF
    matrix = np.full((n_samples + n_cand, n_samples + n_cand), NEG_INF)
    matrix[:n_samples, n_samples:] = bxp
    matrix[n_samples:, :n_samples] = bxp.T
    all_points = PointSet.make(list(xs.points) + list(cands.points))
    kernel = GramKernel(all_points, matrix)
    ys = rng.integers(-4, 5, size=n_samples).astype(float)
    return SampleSet(xs, ys, cands), kernel, bxp


def _grid_points(rng, count, dim, scale, low=-6, high=7):
    """``count`` distinct points of the integer grid times ``scale``."""
    pts = set()
    while len(pts) < count:
        pts.add(tuple(float(c) * scale for c in rng.integers(low, high, dim)))
    return PointSet.make(sorted(pts))


def _closed_case(name, dim=1, span=6, **params):
    """Up to 6 sites and 5 candidates in [-span, span]^dim times the scale."""
    def build(rng, scale):
        n, n_cand = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        kernel = ClosedFormKernel(name, params)
        return kernel, *(_grid_points(rng, count, dim, scale, -span, span + 1)
                         for count in (n, n_cand))
    return build


def _lax_hopf_case(rng, scale):
    # Sites at t = 0, anchors at t in {0, 1, 2, 4}: dyadic actions, and -inf
    # between distinct simultaneous points.
    n, n_cand = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    xs = PointSet.make([(0.0, x) for x in sorted({float(v) for v in rng.integers(-4, 5, n)})])
    cands = sorted({(float(rng.choice([0, 1, 2, 4])), float(v) * scale)
                    for v in rng.integers(-4, 5, n_cand)})
    return ClosedFormKernel("lax_hopf"), xs, PointSet.make(cands)


def _gram_case(rng, scale):
    samples, kernel, _ = random_instance(
        rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), bottom_density=0.25
    )
    if scale != 1.0:
        kernel = GramKernel(kernel.points, kernel.matrix * scale)
    return kernel, samples.xs, samples.dual_candidates


WITNESS_CASES = {
    "conv": _closed_case("conv"),
    "conv-2d": _closed_case("conv", dim=2),
    "sconv": _closed_case("sconv"),
    "lip": _closed_case("lip", alpha=0.5),
    "dirac": _closed_case("dirac", dim=2, span=1),
    "power_distance": _closed_case("power_distance", p=2),
    "lax_hopf": _lax_hopf_case,
    "gram": _gram_case,
}


def unpruned_search(samples: SampleSet, kernel, loss: str, tol: float = 1e-9):
    """Fit every assignment of usable anchors through ``_regress_fixed`` and
    keep the least loss, a tie within 1e-12 going to the least exchange-gap
    mass."""
    candidates = samples.dual_candidates
    bxp = gram_on(kernel, samples.xs, candidates)
    n = len(samples)
    usable = [np.flatnonzero(bxp[m] > NEG_INF) for m in range(n)]
    if any(len(u) == 0 for u in usable):
        raise InfeasibleConstraintsError("some sample admits no usable anchor")
    best, best_mass = None, POS_INF
    for combo in itertools.product(*usable):
        idx = tuple(int(k) for k in combo)
        anchors = tuple(candidates.points[k] for k in idx)
        try:
            result = _regress_fixed(samples, kernel, loss, anchors, idx, tol)
        except InfeasibleConstraintsError:
            continue
        mass = float(bxp[:, list(idx)].sum() - n * bxp[np.arange(n), list(idx)].sum())
        if best is None or result.loss_value < best.loss_value - 1e-12 or (
            result.loss_value <= best.loss_value + 1e-12 and mass < best_mass
        ):
            best, best_mass = result, mass
    if best is None:
        raise InfeasibleConstraintsError("no anchor assignment is feasible")
    return best


def anchor_gaps(bxp: np.ndarray, indices) -> np.ndarray:
    """gaps[k, m] = b(x_k, p_m) - b(x_m, p_m) for the anchors ``indices``
    (all finite), with the diagonal vacuous."""
    sections = bxp[:, list(indices)]
    gaps = sections - np.diag(sections)[None, :]
    np.fill_diagonal(gaps, NEG_INF)
    return gaps


def witness_oracle(samples: SampleSet, bxp: np.ndarray) -> bool:
    """Independent feasibility decision: raise each candidate section as high
    as the data allows (residuated height), then test whether the max of the
    raised sections reproduces every target."""
    n, n_cand = bxp.shape
    y = samples.ys
    heights = [
        min(up_sub(y[m], bxp[m, j]) for m in range(n)) for j in range(n_cand)
    ]
    recon = [
        max(lo_add(bxp[m, j], heights[j]) for j in range(n_cand)) for m in range(n)
    ]
    return all(recon[m] == y[m] for m in range(n))


class TestSampleSet:
    def test_shape_and_finiteness_validation(self):
        xs = PointSet.make([0.0, 1.0])
        with pytest.raises(ValueError):
            SampleSet(xs, np.array([0.0]), CAND3)
        with pytest.raises(ValueError):
            SampleSet(xs, np.array([0.0, POS_INF]), CAND3)
        with pytest.raises(ValueError):
            SampleSet(PointSet.make([]), np.array([]), CAND3)


class TestFeasibleWitnesses:
    def test_convex_data_witnesses(self):
        result = feasible_witnesses(convex_samples(), CONV)
        assert result.feasible
        assert result.witness_indices == (1, 1, 2)
        assert result.witnesses == tuple(CAND3.points[i] for i in (1, 1, 2))

    def test_concave_data_blocked_at_middle(self):
        result = feasible_witnesses(concave_samples(), CONV)
        assert not result.feasible
        assert result.blocking_index == 1
        assert result.witnesses is None

    def test_single_sample_lowest_index(self):
        samples = SampleSet(PointSet.make([0.5]), np.array([2.0]), CAND3)
        result = feasible_witnesses(samples, CONV)
        assert result.feasible
        assert result.witness_indices == (0,)

    def test_bottom_self_evaluation_disqualifies(self):
        pts = PointSet.make([0, 1])
        matrix = np.array([[NEG_INF, 0.0], [0.0, 0.0]])
        kernel = GramKernel(pts, matrix)
        samples = SampleSet(PointSet.make([0]), np.array([1.0]), pts)
        result = feasible_witnesses(samples, kernel)
        assert result.feasible
        assert result.witness_indices == (1,)

    def test_index_equivariance_under_permutation(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            samples, kernel, _ = random_instance(rng)
            base = feasible_witnesses(samples, kernel)
            perm = rng.permutation(len(samples))
            shuffled = SampleSet(
                PointSet.make([samples.xs.points[i] for i in perm]),
                samples.ys[perm],
                samples.dual_candidates,
            )
            other = feasible_witnesses(shuffled, kernel)
            assert base.feasible == other.feasible
            if base.feasible:
                expected = tuple(base.witness_indices[i] for i in perm)
                assert other.witness_indices == expected

    @pytest.mark.parametrize("case", sorted(WITNESS_CASES))
    def test_matches_per_sample_rule(self, case):
        # Integer and dyadic data: the column-minimum rule and the per-sample
        # rule agree exactly, on feasibility, indices and blocking sample.
        rng = np.random.default_rng(list(map(ord, case)))
        outcomes = set()
        for trial in range(60):
            scale = 1.0 if trial % 2 else 0.25
            kernel, xs, cands = WITNESS_CASES[case](rng, scale)
            bxp = gram_on(kernel, xs, cands)
            ys = rng.integers(-6, 7, len(xs)) * scale
            if trial % 3:
                # Targets in the span of a few sections, so some are feasible.
                cols = rng.choice(len(cands), size=min(3, len(cands)), replace=False)
                heights = rng.integers(-4, 5, len(cols)) * scale
                spanned = np.max(bxp[:, cols] + heights, axis=1)
                ys = np.where(np.isfinite(spanned), spanned, ys)
            samples = SampleSet(xs, ys, cands)
            for tol in (0.0, 1e-9):
                got = feasible_witnesses(samples, kernel, tol=tol)
                feasible, indices, blocking = witnesses_per_sample(bxp, ys, tol)
                assert (got.feasible, got.witness_indices, got.blocking_index) == (
                    feasible, indices, blocking)
            outcomes.add(feasible)
        assert outcomes == {True, False}


class TestBuildF0:
    def test_convex_example_shape(self):
        samples = convex_samples()
        result = feasible_witnesses(samples, CONV)
        f0 = build_f0(samples, result.witnesses, CONV)
        for x in np.linspace(-1.0, 3.0, 17):
            assert f0(float(x)) == pytest.approx(max(0.0, x - 1.0), abs=1e-12)
        for x, y in zip(samples.xs, samples.ys):
            assert f0(x) == y

    def test_single_sample_section(self):
        samples = SampleSet(PointSet.make([1.0]), np.array([3.0]), CAND3)
        f0 = build_f0(samples, (1.0,), CONV)
        for x in np.linspace(-2, 2, 9):
            assert f0(float(x)) == pytest.approx(x * 1.0 - 1.0 + 3.0, abs=1e-12)

    def test_idempotent_kernel_self_anchors(self):
        kernel = lip_gram([0.0, 1.0, 2.0, 3.0])
        xs = PointSet.make([0.0, 2.0])
        ys = np.array([1.0, 0.5])
        samples = SampleSet(xs, ys, kernel.points)
        f0 = build_f0(samples, tuple(xs.points), kernel)
        for x in kernel.points.as_array()[:, 0]:
            expected = max(-abs(x - 0.0) + 1.0, -abs(x - 2.0) + 0.5)
            assert f0(float(x)) == pytest.approx(expected, abs=1e-12)

    def test_invalid_witnesses_rejected(self):
        samples = concave_samples()
        with pytest.raises(PreconditionError):
            build_f0(samples, (0.0, 0.0, 0.0), CONV)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            build_f0(convex_samples(), (0.0,), CONV)

    def test_reports_first_failure_in_loop_order(self):
        # Random anchors, repeats included: the error names the first
        # (m, k) that a loop over samples m, then k, meets.
        rng = np.random.default_rng(57)
        outcomes = set()
        for _ in range(200):
            samples, kernel, bxp = random_instance(rng, n_samples=4, n_cand=3)
            idx = rng.integers(0, 3, size=4)
            wit = feasible_witnesses(samples, kernel)
            if wit.feasible and rng.random() < 0.5:
                idx = np.array(wit.witness_indices)
            anchors = tuple(samples.dual_candidates.points[j] for j in idx)
            y, expected = samples.ys, None
            for m in range(4):
                self_eval = bxp[m, idx[m]]
                if not np.isfinite(self_eval):
                    expected = f"witness for sample {m} has non-finite self-evaluation"
                    break
                bad = [k for k in range(4)
                       if y[k] - y[m] < lo_sub(bxp[k, idx[m]], self_eval) - 1e-9]
                if bad:
                    expected = (f"witness for sample {m} violates the exchange "
                                f"inequality against sample {bad[0]}")
                    break
            if expected is None:
                f0 = build_f0(samples, anchors, kernel)
                assert np.array_equal(f0.on_grid(samples.xs).values, y)
                outcomes.add("built")
            else:
                with pytest.raises(PreconditionError) as exc:
                    build_f0(samples, anchors, kernel)
                assert str(exc.value) == expected
                outcomes.add("violates" if "violates" in expected else "non-finite")
        assert outcomes == {"built", "non-finite", "violates"}

    def test_tie_of_signed_zeros_follows_term_order(self):
        # At x = 0 the lip terms are -0.0 + -0.0 and -1.0 + 1.0: a running
        # max keeps whichever comes first.
        lip = ClosedFormKernel("lip")
        anchors, offsets = ((0.0,), (1.0,)), (-0.0, 1.0)
        first = CanonicalInterpolant(lip, anchors, offsets)
        second = CanonicalInterpolant(lip, anchors[::-1], offsets[::-1])
        assert np.copysign(1.0, first(0.0)) == -1.0
        assert np.copysign(1.0, second(0.0)) == 1.0
        grid = PointSet.make([0.0])
        assert np.copysign(1.0, first.on_grid(grid).values[0]) == -1.0

    def test_terms_expose_representation(self):
        samples = convex_samples()
        f0 = build_f0(samples, (0.0, 0.0, 1.0), CONV)
        assert len(f0.terms) == 3
        rebuilt = [
            max(p * x + off for p, off in f0.terms) for x in (-2.0, 0.3, 4.0)
        ]
        assert rebuilt == [f0(-2.0), f0(0.3), f0(4.0)]

    def test_anchors_normalized_once(self, monkeypatch):
        samples = convex_samples()
        f0 = build_f0(samples, (0.0, 0, 1.0), CONV)
        assert f0.anchor_points == (0.0, 0, 1.0)
        assert f0.points == ((0.0,), (0.0,), (1.0,))
        assert all(type(c) is float for p in f0.points for c in p)

        def refuse(p):
            raise AssertionError("anchors are normalized by build_f0")

        monkeypatch.setattr(representer, "as_point", refuse)
        assert np.array_equal(f0.on_grid(samples.xs).values, samples.ys)


class TestDifferenceConstraints:
    """The exchange systems' solver: ``_closure`` of gaps[k, m], the
    constraints y_k - y_m >= gaps[k, m], and the fixed-anchor fit on it."""

    def test_two_cycle_infeasible(self):
        # y_1 - y_0 >= 1 and y_0 - y_1 >= 0.
        gaps = np.array([[NEG_INF, 0.0], [1.0, NEG_INF]])
        _, cycle = _closure(gaps)
        assert cycle is not None
        assert set(cycle) == {0, 1}

    def test_slack_constraint_with_point_boxes(self):
        # y_1 - y_0 >= -1 holds at 0, the greatest point below the box top 0.
        gaps = np.array([[NEG_INF, NEG_INF], [-1.0, NEG_INF]])
        closure, cycle = _closure(gaps)
        assert cycle is None
        assert np.array_equal(_greatest_below(closure, np.zeros(2)), np.zeros(2))

    def test_convex_regression_system_exact_boxes(self):
        samples = convex_samples()
        anchors = ((0.0,), (0.0,), (1.0,))
        for loss in ("sup_norm", "l1"):
            result = _regress_fixed(samples, CONV, loss, anchors, (1, 1, 2), 1e-9)
            assert result.loss_value == 0.0
            assert np.array_equal(result.y_star, samples.ys)

    def test_top_bound_rejected_at_construction(self):
        # A -inf self-evaluation makes the sample's gaps +inf, which no
        # finite targets satisfy: refused before any closure.
        pts = PointSet.make([0, 1])
        kernel = GramKernel(pts, np.array([[NEG_INF, 0.0], [0.0, 0.0]]))
        samples = SampleSet(PointSet.make([0, 1]), np.array([0.0, 0.0]), pts)
        with pytest.raises(InfeasibleConstraintsError, match="infinite") as exc:
            _regress_fixed(samples, kernel, "sup_norm", ((0.0,), (1.0,)), (0, 1), 1e-9)
        assert exc.value.cycle is None

    def test_bottom_bounds_dropped(self):
        closure, cycle = _closure(np.full((2, 2), NEG_INF))
        assert cycle is None
        assert np.array_equal(closure, [[0.0, NEG_INF], [NEG_INF, 0.0]])

    def test_feasibility_matches_lp(self):
        # Boxes lo <= y <= hi enter as arcs to an extra node z held at 0:
        # y_i - y_z >= lo_i and y_z - y_i >= -hi_i.
        rng = np.random.default_rng(51)
        verdicts = set()
        for _ in range(40):
            n = int(rng.integers(2, 5))
            cons = []
            for _ in range(int(rng.integers(1, 7))):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    cons.append((int(a), int(b), float(rng.integers(-3, 4))))
            lower = rng.integers(-5, 0, size=n).astype(float)
            upper = lower + rng.integers(0, 8, size=n)
            gaps = np.full((n + 1, n + 1), NEG_INF)
            for a, b, c in cons:
                gaps[a, b] = max(gaps[a, b], c)
            gaps[:n, n], gaps[n, :n] = lower, -upper
            closure, cycle = _closure(gaps)
            expected = lp_difference_feasible(n, cons, lower, upper)
            assert (cycle is None) == expected
            verdicts.add(expected)
            if expected:
                y = _greatest_below(closure, np.append(upper, 0.0))
                y = y[:n] - y[n]
                assert (y >= lower - 1e-9).all() and (y <= upper + 1e-9).all()
                for a, b, c in cons:
                    assert y[a] - y[b] >= c - 1e-9
        assert verdicts == {True, False}

    def test_assignment_componentwise_maximal(self):
        rng = np.random.default_rng(52)
        checked = 0
        while checked < 15:
            n = int(rng.integers(2, 5))
            cons = []
            for _ in range(int(rng.integers(1, 6))):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    cons.append((int(a), int(b), float(rng.integers(-3, 4))))
            gaps = np.full((n, n), NEG_INF)
            for a, b, c in cons:
                gaps[a, b] = max(gaps[a, b], c)
            closure, cycle = _closure(gaps)
            if cycle is not None:
                continue
            checked += 1
            upper = rng.integers(0, 5, size=n).astype(float)
            y = _greatest_below(closure, upper)
            assert (y <= upper).all()
            for i in range(n):
                bumped = y.copy()
                bumped[i] += 0.5
                box_ok = bumped[i] <= upper[i] + 1e-9
                cons_ok = all(
                    bumped[a] - bumped[b] >= c - 1e-9 for a, b, c in cons
                )
                assert not (box_ok and cons_ok)

    def test_zero_weight_cycle_with_float_drift_is_feasible(self):
        # The exact sum of these gaps is 0, but summed left to right it is 2:
        # a positive diagonal the closure meets is float drift, not a cycle.
        gaps = [-1e16, -1.0, -1.0, 1e16 + 2]
        assert math.fsum(gaps) == 0.0
        assert ((gaps[0] + gaps[1]) + gaps[2]) + gaps[3] > 0.0
        matrix = np.full((4, 4), NEG_INF)
        for i, c in enumerate(gaps):
            matrix[i, (i + 1) % 4] = c
        closure, cycle = _closure(matrix)
        assert cycle is None
        assert np.isfinite(_greatest_below(closure, np.zeros(4))).all()


class TestRegress:
    def test_exact_data_zero_loss(self):
        samples = convex_samples()
        result = regress(samples, CONV, loss="sup_norm", fixed_p=(0.0, 0.0, 1.0))
        assert result.loss_value == 0.0
        assert np.allclose(result.y_star, samples.ys, atol=1e-12)
        assert result.exact

    def test_concave_search_sup_norm_matches_brute(self):
        samples = concave_samples()
        result = regress(samples, CONV, loss="sup_norm")
        bxp = gram_on(CONV, samples.xs, CAND3)
        best_loss, best_y, _ = regression_brute(bxp, samples.ys, "sup_norm")
        assert best_loss == pytest.approx(0.5, abs=1e-9)
        assert result.loss_value == pytest.approx(best_loss, abs=1e-3)
        assert result.exact

    def test_concave_search_l1_matches_brute(self):
        samples = concave_samples()
        result = regress(samples, CONV, loss="l1")
        bxp = gram_on(CONV, samples.xs, CAND3)
        best_loss, _, _ = regression_brute(bxp, samples.ys, "l1")
        assert best_loss == pytest.approx(1.0, abs=1e-9)
        assert result.loss_value == pytest.approx(best_loss, abs=1e-3)

    @pytest.mark.xfail(
        strict=True,
        reason="documented alternative example value; summing the two "
        "middle-sample constraints forces fits convex at the midpoint, so "
        "the best sup-norm loss on this dataset is 0.5, not 0.25",
    )
    def test_concave_sup_norm_quarter_loss_reading(self):
        result = regress(concave_samples(), CONV, loss="sup_norm")
        assert result.loss_value == pytest.approx(0.25, abs=1e-9)

    def test_single_sample_zero_loss(self):
        samples = SampleSet(PointSet.make([0.5]), np.array([7.0]), CAND3)
        for loss in ("sup_norm", "l1"):
            assert regress(samples, CONV, loss=loss).loss_value == 0.0

    def test_sup_alias_and_bad_loss(self):
        samples = convex_samples()
        assert regress(samples, CONV, loss="sup").loss_value == 0.0
        with pytest.raises(ValueError):
            regress(samples, CONV, loss="l2")

    def test_bottom_anchor_infeasible(self):
        pts = PointSet.make([0, 1])
        kernel = GramKernel(pts, np.array([[NEG_INF, 0.0], [0.0, 0.0]]))
        samples = SampleSet(PointSet.make([0]), np.array([1.0]), pts)
        with pytest.raises(InfeasibleConstraintsError):
            regress(samples, kernel, fixed_p=(0,))

    def test_fixed_sup_norm_matches_lp_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            samples, kernel, bxp = random_instance(rng, n_samples=3, n_cand=4)
            j = rng.integers(0, 4, size=3)
            if (bxp[np.arange(3), j] == NEG_INF).any():
                continue
            anchors = tuple(samples.dual_candidates.points[k] for k in j)
            gaps = np.array(
                [
                    [lo_sub(bxp[n, j[m]], bxp[m, j[m]]) for m in range(3)]
                    for n in range(3)
                ]
            )
            np.fill_diagonal(gaps, NEG_INF)
            feasible, lp_loss, _ = lp_regression(gaps, samples.ys, "sup_norm")
            if not feasible:
                with pytest.raises(InfeasibleConstraintsError):
                    regress(samples, kernel, loss="sup_norm", fixed_p=anchors)
                continue
            result = regress(samples, kernel, loss="sup_norm", fixed_p=anchors)
            assert result.loss_value == pytest.approx(lp_loss, abs=1e-3)

    def test_infeasible_anchors_carry_a_positive_cycle(self):
        # Unsorted slope anchors for convex-kernel sites: the reported cycle
        # is a certificate, its gaps (x_k - x_m) p_m summing exactly to > 0.
        rng = np.random.default_rng(58)
        infeasible = 0
        for _ in range(20):
            n = int(rng.integers(3, 21))
            xs = np.sort(rng.choice(np.arange(-2 * n, 2 * n), n, replace=False))
            slopes = rng.choice(np.arange(-2 * n, 2 * n), n, replace=False) / 4.0
            gaps = (xs[:, None] - xs[None, :]) * slopes[None, :]
            np.fill_diagonal(gaps, NEG_INF)
            samples = SampleSet(
                PointSet.make(xs.astype(float)),
                rng.integers(-30, 31, n).astype(float),
                PointSet.make(slopes),
            )
            cons = [(k, m, gaps[k, m]) for k in range(n) for m in range(n) if k != m]
            try:
                regress(samples, CONV, fixed_p=tuple((p,) for p in slopes))
            except InfeasibleConstraintsError as exc:
                cycle = exc.cycle
                weight = math.fsum(
                    gaps[a, b] for a, b in zip(cycle, cycle[1:] + cycle[:1])
                )
                assert len(set(cycle)) == len(cycle) >= 2
                assert weight > 0.0
                assert not lp_difference_feasible(n, cons)
                infeasible += 1
            else:
                assert lp_difference_feasible(n, cons)
        assert infeasible >= 10

    def test_fitted_targets_are_feasible(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            samples, kernel, bxp = random_instance(rng, n_samples=3, n_cand=4)
            try:
                result = regress(samples, kernel, loss="sup_norm")
            except InfeasibleConstraintsError:
                continue
            refit = SampleSet(samples.xs, result.y_star, samples.dual_candidates)
            f0 = build_f0(refit, result.p_star, kernel, tol=1e-6)
            for x, y in zip(refit.xs, result.y_star):
                assert f0(x) == pytest.approx(y, abs=1e-6)

    @pytest.mark.parametrize("loss", ["sup_norm", "l1"])
    def test_search_matches_unpruned_enumeration(self, loss):
        rng = np.random.default_rng(59)
        raised = 0
        for trial in range(80):
            if trial % 2:
                samples, kernel, _ = random_instance(
                    rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)), 0.2
                )
            else:
                n = int(rng.integers(2, 6))
                xs = np.sort(rng.choice(np.arange(-10, 11), n, replace=False))
                cands = np.sort(rng.choice(np.arange(-4, 5), 3, replace=False))
                samples = SampleSet(PointSet.make(xs * 0.5), rng.integers(-10, 11, n) * 0.5,
                                    PointSet.make(cands.astype(float)))
                kernel = CONV
            try:
                expected = unpruned_search(samples, kernel, loss)
            except InfeasibleConstraintsError as exc:
                with pytest.raises(InfeasibleConstraintsError, match=str(exc)):
                    regress(samples, kernel, loss=loss)
                raised += 1
                continue
            got = regress(samples, kernel, loss=loss)
            assert got.loss_value == expected.loss_value
            assert got.exact == (loss == "sup_norm")
            if loss == "l1":
                assert np.array_equal(got.y_star, expected.y_star)
                assert got.p_star == expected.p_star
                assert got.p_indices == expected.p_indices
                assert got.interpolant.offsets == expected.interpolant.offsets
                continue
            # The greatest optimal sup-norm fit, which the enumeration need not
            # pick: the max-plus projection z of the targets onto the column
            # span of b(x_k, p), raised by half the largest remaining gap.
            bxp = gram_on(kernel, samples.xs, samples.dual_candidates)
            bxp = bxp[:, (bxp > NEG_INF).any(axis=0)]
            z = (bxp + (samples.ys[:, None] - bxp).min(axis=0)).max(axis=1)
            assert np.array_equal(got.y_star, z + 0.5 * (samples.ys - z).max())
            assert np.array_equal(got.interpolant.on_grid(samples.xs).values, got.y_star)
        assert raised >= 5

    def test_search_closes_only_two_cycle_free_assignments(self, monkeypatch):
        # The fixed l1 search input of the regression benchmark: 243
        # assignments, of which 21 have no positive two-cycle.  Each of those
        # is closed once, and the winner once more by its fixed-anchor fit.
        samples = SampleSet(
            PointSet.make([-8.0, -4.0, -1.0, 3.0, 7.0]),
            np.array([-3.0, 8.0, -9.0, -9.0, -6.0]),
            PointSet.make([-3.0, 0.0, 1.0]),
        )
        bxp = gram_on(CONV, samples.xs, samples.dual_candidates)
        assert len(two_cycle_free_assignments(bxp)) == 21
        calls = []

        def counting_closure(gaps):
            calls.append(gaps)
            return _closure(gaps)

        monkeypatch.setattr(representer, "_closure", counting_closure)
        result = regress(samples, CONV, loss="l1")
        assert len(calls) == 21 + 1
        assert result.p_indices in two_cycle_free_assignments(bxp)
        assert result.loss_value == unpruned_search(samples, CONV, "l1").loss_value

    def test_search_sup_norm_at_scale_is_lp_optimal(self):
        # 200 samples and 200 candidates, far beyond any enumeration.
        rng = np.random.default_rng(60)
        samples = SampleSet(
            PointSet.make(np.sort(rng.choice(np.arange(-400, 401), 200, replace=False)) * 0.5),
            rng.integers(-400, 401, 200) * 0.5,
            PointSet.make(np.sort(rng.choice(np.arange(-400, 401), 200, replace=False)) * 0.25),
        )
        result = regress(samples, CONV, loss="sup_norm")
        bxp = gram_on(CONV, samples.xs, samples.dual_candidates)
        z = (bxp + (samples.ys[:, None] - bxp).min(axis=0)).max(axis=1)
        assert result.loss_value == 0.5 * (samples.ys - z).max()
        feasible, lp_loss, _ = lp_regression(
            anchor_gaps(bxp, result.p_indices), samples.ys, "sup_norm"
        )
        assert feasible and result.loss_value == pytest.approx(lp_loss, abs=1e-6)
        refit = SampleSet(samples.xs, result.y_star, samples.dual_candidates)
        build_f0(refit, result.p_star, CONV)

    def test_search_sup_norm_on_decimal_data_matches_brute(self):
        # Collinear decimal targets: some optimal anchors have a cycle of
        # gaps whose weight is 0 before rounding and 1.1e-16 after it.
        xs = np.array([-2.0, -1.7, 0.5, 1.7, 2.2, 2.7])
        samples = SampleSet(PointSet.make(xs), 0.3 * xs + 0.1, PointSet.make([-3.0, -0.3]))
        result = regress(samples, CONV, loss="sup_norm")
        bxp = gram_on(CONV, samples.xs, samples.dual_candidates)
        best_loss, _, _ = regression_brute(bxp, samples.ys, "sup_norm")
        assert result.loss_value == pytest.approx(best_loss, abs=1e-9)
        fitted = result.interpolant.on_grid(samples.xs).values
        assert fitted == pytest.approx(result.y_star, abs=1e-12)

    def test_search_beyond_budget_fits_every_usable_instance(self):
        # 4 ** 9 assignments exceed the enumeration budget, and every sample
        # has a usable anchor, so both losses return a fit.
        rng = np.random.default_rng(0)
        xs = np.sort(rng.choice(np.arange(-20, 21), 9, replace=False)) * 0.5
        cands = np.sort(rng.choice(np.arange(-8, 9), 4, replace=False)) * 0.5
        samples = SampleSet(
            PointSet.make(xs), rng.integers(-20, 21, 9) * 0.5, PointSet.make(cands)
        )
        assert 4 ** 9 > representer.SEARCH_ENUMERATION_BUDGET
        bxp = gram_on(CONV, samples.xs, samples.dual_candidates)
        for loss in ("sup_norm", "l1"):
            result = regress(samples, CONV, loss=loss)
            feasible, lp_loss, _ = lp_regression(
                anchor_gaps(bxp, result.p_indices), samples.ys, loss
            )
            assert feasible and result.loss_value == pytest.approx(lp_loss, abs=1e-6)


class TestEquivalenceInvariant:
    def test_witness_feasibility_matches_interpolation_oracle(self):
        rng = np.random.default_rng(55)
        feasible_seen = infeasible_seen = 0
        for _ in range(120):
            n = int(rng.integers(1, 6))
            n_cand = int(rng.integers(1, 8))
            samples, kernel, bxp = random_instance(
                rng, n_samples=n, n_cand=n_cand, bottom_density=0.2
            )
            verdict = feasible_witnesses(samples, kernel, tol=0.0)
            oracle = witness_oracle(samples, bxp)
            assert verdict.feasible == oracle
            if verdict.feasible:
                feasible_seen += 1
                f0 = build_f0(samples, verdict.witnesses, kernel, tol=1e-9)
                for x, y in zip(samples.xs, samples.ys):
                    assert f0(x) == y
            else:
                infeasible_seen += 1
        assert feasible_seen >= 10 and infeasible_seen >= 10

    def test_f0_lies_in_operator_range(self):
        samples = convex_samples()
        witnesses = feasible_witnesses(samples, CONV).witnesses
        f0 = build_f0(samples, witnesses, CONV)
        grid = PointSet.make([-1.0, 0.0, 0.5, 1.0, 2.0])
        op = ConjugationOp(CONV, grid)
        assert is_in_range(op, f0.on_grid(grid)).in_range


class TestStoppingCost:
    def kernel_and_truth(self):
        kernel = lip_gram([0.0, 1.0, 2.0, 3.0])
        v = np.array([0.0, NEG_INF, NEG_INF, -1.0])  # negated stopping cost
        b = kernel.matrix
        f = np.array([max(b[i, 0] + v[0], b[i, 3] + v[3]) for i in range(4)])
        return kernel, f

    def test_consistent_samples_interpolated_exactly(self):
        kernel, f = self.kernel_and_truth()
        xs = PointSet.make([1.0, 2.0])
        samples = SampleSet(xs, f[1:3], kernel.points)
        result = reconstruct_stopping_cost(samples, kernel)
        assert result.loss_value == 0.0
        assert np.array_equal(result.y_star, f[1:3])
        assert result.generator(1.0) == f[1]
        assert result.generator(2.0) == f[2]
        assert result.stopping_cost.value_at(1.0) == -f[1]
        assert result.stopping_cost.value_at(0.0) == POS_INF

    def test_reconstruction_below_source_value(self):
        kernel, f = self.kernel_and_truth()
        samples = SampleSet(PointSet.make([1.0, 2.0]), f[1:3], kernel.points)
        result = reconstruct_stopping_cost(samples, kernel)
        rebuilt = np.array([result.generator(x) for x in kernel.points])
        assert (rebuilt <= f + 1e-12).all()

    @pytest.mark.xfail(
        strict=True,
        reason="documented alternative domination direction; interpolants built "
        "from a sample subset lie below, not above, the source function",
    )
    def test_reconstruction_dominates_source_value(self):
        kernel, f = self.kernel_and_truth()
        samples = SampleSet(PointSet.make([1.0, 2.0]), f[1:3], kernel.points)
        result = reconstruct_stopping_cost(samples, kernel)
        rebuilt = np.array([result.generator(x) for x in kernel.points])
        assert (rebuilt >= f - 1e-12).all()

    def test_singleton_sample_top_spike_cost(self):
        kernel, _ = self.kernel_and_truth()
        samples = SampleSet(PointSet.make([2.0]), np.array([1.5]), kernel.points)
        result = reconstruct_stopping_cost(samples, kernel)
        w = result.stopping_cost.values
        assert w[kernel.points.index_of(2.0)] == -1.5
        mask = np.arange(4) != kernel.points.index_of(2.0)
        assert (w[mask] == POS_INF).all()

    def test_non_idempotent_kernel_rejected(self):
        pts = PointSet.make([-1.0, 0.0, 1.0])
        kernel = GramKernel(pts, gram_on(CONV, pts))
        samples = SampleSet(PointSet.make([0.0]), np.array([0.0]), pts)
        with pytest.raises(PreconditionError):
            reconstruct_stopping_cost(samples, kernel)

    def test_nonzero_diagonal_rejected(self):
        pts = PointSet.make([0, 1])
        kernel = GramKernel(pts, np.array([[1.0, 0.0], [0.0, 1.0]]))
        samples = SampleSet(PointSet.make([0]), np.array([0.0]), pts)
        with pytest.raises(PreconditionError):
            reconstruct_stopping_cost(samples, kernel)

    def test_off_grid_sample_rejected(self):
        kernel, _ = self.kernel_and_truth()
        samples = SampleSet(PointSet.make([9.0]), np.array([0.0]), kernel.points)
        with pytest.raises(PreconditionError):
            reconstruct_stopping_cost(samples, kernel)
