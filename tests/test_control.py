"""Least-action kernels, value functions, and the two inverse workflows."""

import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropkern.core import (
    NEG_INF,
    POS_INF,
    GridFunction,
    PointSet,
    PreconditionError,
    SizeError,
    ext_close,
)
from tropkern.conjugation import ConjugationOp, apply_linear, conj_sesqui, is_in_range
from tropkern.kernels import GramKernel, is_tpsd_pairwise
from tropkern.linear_theory import is_idempotent, mp_matmul
from tropkern.control import (
    LagrangianSpec,
    MaupertuisProblem,
    _conjugate,
    _stepper,
    _sweep,
    asymmetrize,
    invert_terminal_cost,
    largest_subsolution_check,
    lax_hopf,
    lax_hopf_table,
    lift_terminal,
    maupertuis_dp,
    space_slice_kernel,
    value_function,
)
from tropkern.representer import InfeasibleConstraintsError, SampleSet

from oracles import (
    backward_value_from_paths,
    hopf_quadratic,
    min_action_matrix,
    stencil_step,
    true_value_quadratic,
)

QUAD = LagrangianSpec("quadratic")
ABS = LagrangianSpec("absolute")


def lattice_problem(dt, dr, cap=1, t_end=1.0, r_max=1.0, lagrangian=QUAD, **kw):
    """Uniform 1-D problem on [0, t_end] x [-r_max, r_max].

    The stencil allows displacements k*dr for |k*dr/dt| <= cap (at least
    one cell either way).
    """
    times = np.round(np.arange(0.0, t_end + dt / 2, dt), 10)
    axis = np.round(np.arange(-r_max, r_max + dr / 2, dr), 10)
    kmax = max(1, int(round(cap * dt / dr)))
    stencil = [(k * dr,) for k in range(-kmax, kmax + 1)]
    return MaupertuisProblem(times, [axis], lagrangian, stencil, **kw)


def hopf_gap(problem):
    """sup |gram - closed form| over pairs the stencil can connect."""
    gram = maupertuis_dp(problem).matrix
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
    mask = gram > NEG_INF
    return float(np.max(np.abs(gram[mask] - hopf[mask])))


def grid_index(problem):
    return {p: i for i, p in enumerate(problem.spacetime_points().points)}


def kernel_from_paths(dist):
    """The symmetric least-action kernel from all-pairs path costs."""
    forward = np.where(np.isinf(dist), NEG_INF, -dist)
    return np.fmax(forward, forward.T)


def plane_problem(nt, n, offsets, lagrangian, step=0.25, **kw):
    """2-D problem on an n x n lattice of dyadic step, time step 0.25."""
    axis = (np.arange(n) - n // 2) * step
    stencil = [(i * step, j * step) for i, j in offsets]
    return MaupertuisProblem(np.arange(nt) * 0.25, [axis, axis], lagrangian, stencil, **kw)


NINE_POINT = list(itertools.product((-1, 0, 1), repeat=2))


class TestLaxHopf:
    def test_quadratic_unit_square(self):
        assert lax_hopf(QUAD, (0.0, 0.0), (1.0, 1.0)) == -1.0

    def test_coincident_points_zero(self):
        assert lax_hopf(QUAD, (0.5, -0.25), (0.5, -0.25)) == 0.0

    def test_simultaneous_distinct_bottom(self):
        assert lax_hopf(QUAD, (0.5, 0.0), (0.5, 1.0)) == NEG_INF

    def test_time_reversal_symmetric(self):
        assert lax_hopf(QUAD, (1.0, 1.0), (0.0, 0.0)) == -1.0

    def test_absolute_form(self):
        assert lax_hopf(ABS, (0.0, 0.0), (2.0, 3.0)) == -3.0

    def test_two_space_dimensions(self):
        assert lax_hopf(QUAD, (0.0, 0.0, 0.0), (1.0, 1.0, 2.0)) == -5.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t0, r0, t1, r1 = rng.uniform(-2, 2, 4)
            got = lax_hopf(QUAD, (t0, r0), (t1, r1))
            assert got == pytest.approx(hopf_quadratic(t0, r0, t1, r1), abs=1e-12)

    def test_nonconvex_table_rejected(self):
        table = LagrangianSpec(
            "table", velocities=((0.0,), (1.0,)), costs=(0.0, 1.0)
        )
        with pytest.raises(PreconditionError):
            lax_hopf(table, (0.0, 0.0), (1.0, 1.0))

    def test_asserted_convex_table_allowed(self):
        table = LagrangianSpec(
            "table", velocities=((1.0,),), costs=(2.0,), convex_flag=True
        )
        assert lax_hopf(table, (0.0, 0.0), (1.0, 1.0)) == -2.0

    def test_scalar_points_rejected(self):
        with pytest.raises(ValueError):
            lax_hopf(QUAD, 0.0, 1.0)

    @pytest.mark.parametrize("point", [("0", 0.0), (0.0, True), "0"])
    def test_bool_and_string_coordinates_rejected(self, point):
        with pytest.raises(ValueError, match="invalid extended-real"):
            lax_hopf(QUAD, point, (1.0, 1.0))

    def test_table_cost_not_consulted_between_simultaneous_points(self):
        # (0, 0) and (0, 2) are simultaneous; their displacement 2 is not a
        # tabulated velocity, and must not be looked up.
        table = LagrangianSpec(
            "table", velocities=((-1.0,), (0.0,), (1.0,)), costs=(1.0, 0.0, 1.0),
            convex_flag=True,
        )
        pts = PointSet([(0.0, 0.0), (0.0, 2.0), (1.0, 1.0)])
        xs = pts.as_array()
        expected = np.array(
            [[0.0, NEG_INF, -1.0], [NEG_INF, 0.0, -1.0], [-1.0, -1.0, 0.0]]
        )
        assert np.array_equal(lax_hopf_table(table, xs, xs), expected)
        assert lax_hopf(table, (0.0, 0.0), (0.0, 2.0)) == NEG_INF

    @pytest.mark.parametrize("lagrangian", [QUAD, ABS], ids=["quadratic", "absolute"])
    def test_table_is_scalar_lax_hopf_per_entry(self, lagrangian):
        rng = np.random.default_rng(8)
        xs = rng.uniform(-2, 2, (6, 3))
        ys = rng.uniform(-2, 2, (5, 3))
        ys[:2, 0] = xs[:2, 0]  # some simultaneous pairs
        expected = [[lax_hopf(lagrangian, x, y) for y in ys] for x in xs]
        assert np.array_equal(lax_hopf_table(lagrangian, xs, ys), expected)

    @pytest.mark.parametrize("lagrangian", [QUAD, ABS], ids=["quadratic", "absolute"])
    def test_table_in_row_blocks_matches_the_whole_table(self, lagrangian):
        # 300 x 250 pairs of 3 coordinates fill four row blocks; the
        # (n, m, d) formula gives the same bits, signed zeros included.
        rng = np.random.default_rng(9)
        xs = rng.integers(-3, 4, (300, 3)) * rng.choice([0.5, 0.1, -0.0], (300, 3))
        ys = rng.integers(-3, 4, (250, 3)) * rng.choice([0.5, 0.1, -0.0], (250, 3))
        ys[:40] = xs[:40]  # coincident pairs
        ys[40:80, 0] = xs[40:80, 0]  # simultaneous pairs
        x0, x1 = xs[:, None, :], ys[None, :, :]
        tau = x1[..., 0] - x0[..., 0]
        expected = np.where((x0[..., 1:] == x1[..., 1:]).all(axis=2), 0.0, NEG_INF)
        moving = x0[..., 0] != x1[..., 0]
        velocity = (x1 - x0)[..., 1:][moving] / tau[moving][:, None]
        expected[moving] = -np.abs(tau[moving]) * lagrangian.on_velocities(velocity)
        got = lax_hopf_table(lagrangian, xs, ys)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_table_reports_the_first_untabulated_velocity_of_a_later_block(self):
        # 400 columns of 2 coordinates: 81 rows a block.  Rows 150 and 170,
        # both in the second block, are the first to move at an untabulated
        # velocity, -9 (to ys[0]) and then 9.
        velocities = tuple((float(v),) for v in range(-3, 4))
        table = LagrangianSpec("table", velocities=velocities,
                               costs=tuple(v * v for (v,) in velocities), convex_flag=True)
        xs = np.column_stack([np.zeros(200), np.arange(200.0) % 3])
        ys = np.column_stack([np.ones(400), np.arange(400.0) % 3])
        xs[150, 1], xs[170, 1] = 9.0, -9.0
        with pytest.raises(ValueError, match=re.escape("velocity (-9.0,) is not tabulated")):
            lax_hopf_table(table, xs, ys)

    def test_table_allocates_no_point_pair_axis_tensor(self):
        rng = np.random.default_rng(10)
        xs, ys = rng.normal(size=(2, 1000, 20))
        tracemalloc.start()
        try:
            table = lax_hopf_table(QUAD, xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The (n, m, d) temporaries once took 43 tables (1.19 now).
        assert peak <= 1.5 * table.nbytes


class TestLagrangianSpec:
    def test_builtin_values(self):
        assert QUAD.eval(0.0, (0.0,), (1.5,)) == pytest.approx(2.25)
        assert ABS.eval(0.0, (0.0,), (-1.5,)) == pytest.approx(1.5)

    def test_builtins_convex_and_nonnegative(self):
        assert QUAD.convex and QUAD.nonnegative
        assert ABS.convex and ABS.nonnegative

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            LagrangianSpec("cubic")

    def test_table_requires_matching_costs(self):
        with pytest.raises(ValueError):
            LagrangianSpec("table", velocities=((0.0,),), costs=(0.0, 1.0))

    def test_table_rejects_non_finite_cost(self):
        with pytest.raises(ValueError):
            LagrangianSpec("table", velocities=((0.0,),), costs=(POS_INF,))

    @pytest.mark.parametrize(
        "velocities, costs",
        [(((0.0,), (1.0, 0.0)), (0.0, 1.0)), ([[0.0], [True]], [0.0, 1.0]),
         ([["0.5"]], [1.0]), ([[0.0]], [True]), ([[0.0]], ["1.0"]), ([], [])],
    )
    def test_table_reads_one_array_of_numbers(self, velocities, costs):
        # Mixed dimensions never matched a velocity of the problem's.
        with pytest.raises(ValueError):
            LagrangianSpec("table", velocities=velocities, costs=costs)

    def test_table_looks_up_each_row_within_1e_9(self):
        table = LagrangianSpec("table", velocities=np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 1.0]]),
                               costs=range(3))
        assert table.velocities == ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0))
        assert table.costs == (0.0, 1.0, 2.0)
        v = np.array([[1.0, 0.0], [-1.0 + 1e-10, 1.0], [0.0, 1.0], [1.0, 0.0]])
        assert table.on_velocities(v).tolist() == [1.0, 2.0, 0.0, 1.0]
        for bad in (np.array([[1.0, 2e-9]]), np.array([[1.0]])):
            with pytest.raises(ValueError, match="is not tabulated"):
                table.on_velocities(bad)
        with pytest.raises(ValueError, match=re.escape("velocity (1.0, 1.0) is not tabulated")):
            LagrangianSpec("table", velocities=[[1.0]], costs=[0.0]).on_velocities(np.ones((1, 2)))

    def test_untabulated_velocity_rejected(self):
        table = LagrangianSpec("table", velocities=((0.0,),), costs=(0.0,))
        with pytest.raises(ValueError):
            table.eval(0.0, (0.0,), (1.0,))

    def test_spec_round_trip(self):
        table = LagrangianSpec(
            "table", velocities=((0.0,), (1.0,)), costs=(0.0, 2.0), convex_flag=True
        )
        assert LagrangianSpec.from_spec(table.to_spec()) == table
        assert LagrangianSpec.from_spec(QUAD.to_spec()) == QUAD

    @pytest.mark.parametrize("convex", ["no", "false", 0, 1, None])
    def test_spec_convex_must_be_boolean(self, convex):
        spec = {"name": "table", "velocities": [[0.0]], "costs": [0.0], "convex": convex}
        with pytest.raises(ValueError, match="convex must be true or false"):
            LagrangianSpec.from_spec(spec)


class TestProblemValidation:
    def test_nonuniform_time_grid_rejected(self):
        with pytest.raises(ValueError):
            MaupertuisProblem([0.0, 0.25, 0.8], [np.array([0.0, 1.0])], QUAD, [(0.0,)])

    def test_single_time_rejected(self):
        with pytest.raises(ValueError):
            MaupertuisProblem([0.0], [np.array([0.0, 1.0])], QUAD, [(0.0,)])

    def test_decreasing_space_axis_rejected(self):
        with pytest.raises(ValueError):
            MaupertuisProblem([0.0, 1.0], [np.array([1.0, 0.0])], QUAD, [(0.0,)])

    def test_nonuniform_space_axis_rejected(self):
        with pytest.raises(ValueError):
            MaupertuisProblem([0.0, 1.0], [np.array([0.0, 1.0, 3.0])], QUAD, [(0.0,)])

    def test_empty_stencil_rejected(self):
        with pytest.raises(ValueError):
            MaupertuisProblem([0.0, 1.0], [np.array([0.0, 1.0])], QUAD, [])

    def test_off_lattice_displacement_rejected(self):
        with pytest.raises(ValueError):
            MaupertuisProblem([0.0, 1.0], [np.array([0.0, 1.0])], QUAD, [(0.5,)])

    @pytest.mark.parametrize(
        "stencil", [[(POS_INF,)], [(NEG_INF,)], [(True,)], [("0.0",)], [0.0, (1.0,)], [(0.25 + 2e-6,)]]
    )
    def test_stencil_is_lattice_numbers(self, stencil):
        with pytest.raises(ValueError):
            MaupertuisProblem([0.0, 1.0], [np.array([0.0, 0.25, 0.5])], QUAD, stencil,
                              claim_reversible=False)

    def test_stencil_offsets_round_each_quotient(self):
        axes = [np.array([0.0, 0.1, 0.2]), np.array([0.0, 0.3, 0.6])]
        stencil = [(0.1 * k, 0.3 * m) for k in (-2, 0, 1) for m in (-1, 0, 2)]
        prob = MaupertuisProblem([0.0, 1.0], axes, QUAD, stencil, claim_reversible=False)
        expected = [(k, m) for k in (-2, 0, 1) for m in (-1, 0, 2)]
        assert prob._offsets.tolist() == [list(o) for o in expected]
        assert prob.stencil == tuple(map(tuple, np.array(stencil).tolist()))

    def test_stencil_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MaupertuisProblem([0.0, 1.0], [np.array([0.0, 1.0])], QUAD, [(0.0, 0.0)])

    def test_one_sided_stencil_needs_reversibility_waiver(self):
        with pytest.raises(ValueError):
            MaupertuisProblem([0.0, 1.0], [np.array([0.0, 1.0])], QUAD, [(0.0,), (1.0,)])
        prob = MaupertuisProblem(
            [0.0, 1.0], [np.array([0.0, 1.0])], QUAD, [(0.0,), (1.0,)],
            claim_reversible=False,
        )
        assert prob.stencil == ((0.0,), (1.0,))

    def test_negative_cost_needs_nonneg_waiver(self):
        dipped = LagrangianSpec(
            "table", velocities=((-1.0,), (0.0,), (1.0,)), costs=(1.0, -0.5, 1.0)
        )
        with pytest.raises(ValueError):
            MaupertuisProblem(
                [0.0, 1.0], [np.array([0.0, 1.0])], dipped, [(-1.0,), (0.0,), (1.0,)]
            )
        prob = MaupertuisProblem(
            [0.0, 1.0], [np.array([0.0, 1.0])], dipped,
            [(-1.0,), (0.0,), (1.0,)], require_nonneg=False,
        )
        assert prob.n_time == 2

    @pytest.mark.parametrize("key", ["reversible", "require_nonneg"])
    @pytest.mark.parametrize("value", ["no", "", 0, 1, None])
    def test_spec_flags_must_be_booleans(self, key, value):
        spec = {"time_grid": [0.0, 1.0], "space_grid": [0.0, 1.0],
                "stencil": [[-1.0], [0.0], [1.0]], key: value}
        with pytest.raises(ValueError, match=f"{key} must be true or false"):
            MaupertuisProblem.from_spec(spec)

    def test_spec_flags_read_booleans(self):
        spec = {"time_grid": [0.0, 1.0], "space_grid": [0.0, 1.0],
                "stencil": [[0.0], [1.0]], "reversible": False, "require_nonneg": True}
        prob = MaupertuisProblem.from_spec(spec)
        assert not prob.claim_reversible and prob.require_nonneg

    def test_stencil_velocities_scale_by_time_step(self):
        prob = lattice_problem(0.25, 0.25)
        assert prob.stencil_velocities() == ((-1.0,), (0.0,), (1.0,))

    def test_grid_geometry(self):
        prob = lattice_problem(0.25, 0.5)
        assert prob.dt == pytest.approx(0.25)
        assert prob.space_step() == pytest.approx(0.5)
        assert prob.n_time == 5 and prob.n_space == 5
        assert prob.space_shape == (5,)

    def test_spacetime_points_time_major(self):
        prob = MaupertuisProblem(
            [0.0, 1.0], [np.array([0.0, 1.0])], QUAD, [(-1.0,), (0.0,), (1.0,)]
        )
        assert prob.spacetime_points().points == (
            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
        )
        assert prob.space_points().points == ((0.0,), (1.0,))


@pytest.fixture(scope="module")
def desk_gram():
    prob = lattice_problem(0.25, 0.25)
    return prob, maupertuis_dp(prob)


@pytest.fixture(scope="module")
def desk_causal(desk_gram):
    prob, gram = desk_gram
    return prob, gram, asymmetrize(gram)


@pytest.fixture(scope="module")
def desk_value(desk_gram):
    prob, _ = desk_gram
    psi = GridFunction(prob.space_points(), prob.space_axes[0] ** 2)
    return prob, psi, value_function(prob, psi)


@pytest.fixture(scope="module")
def wide_gram():
    """1-D 11 x 61 quadratic problem with reach 2 (velocities k/2)."""
    axis = np.arange(-30, 31) * 0.125
    stencil = [(k * 0.125,) for k in range(-2, 3)]
    prob = MaupertuisProblem(np.arange(11) * 0.25, [axis], QUAD, stencil)
    return prob, maupertuis_dp(prob)


class TestDPKernel:

    def test_diagonal_zero(self, desk_gram):
        _, gram = desk_gram
        assert np.array_equal(np.diag(gram.matrix), np.zeros(len(gram.points)))

    def test_equal_time_off_diagonal_bottom(self, desk_gram):
        prob, gram = desk_gram
        idx = grid_index(prob)
        assert gram.matrix[idx[(0.5, 0.0)], idx[(0.5, 0.25)]] == NEG_INF

    def test_single_step_one_cell(self, desk_gram):
        prob, gram = desk_gram
        idx = grid_index(prob)
        assert gram.matrix[idx[(0.0, 0.0)], idx[(0.25, 0.25)]] == -0.25

    def test_single_step_two_cells(self):
        prob = lattice_problem(0.25, 0.25, cap=2)
        idx = grid_index(prob)
        gram = maupertuis_dp(prob)
        assert gram.matrix[idx[(0.0, 0.0)], idx[(0.25, 0.5)]] == -1.0

    def test_symmetric_matrix(self, desk_gram):
        _, gram = desk_gram
        assert np.array_equal(gram.matrix, gram.matrix.T)

    def test_matches_shortest_path_oracle(self, desk_gram):
        prob, gram = desk_gram
        dist = min_action_matrix(
            prob.time_grid, prob.space_axes, [(-1,), (0,), (1,)], lambda v: v[0] * v[0]
        )
        nt, ns = prob.n_time, prob.n_space
        for i in range(nt):
            for k in range(i, nt):
                block = gram.matrix[i * ns : (i + 1) * ns, k * ns : (k + 1) * ns]
                ref = dist[i * ns : (i + 1) * ns, k * ns : (k + 1) * ns]
                assert np.array_equal(block, np.where(np.isinf(ref), NEG_INF, -ref))

    def test_reachability_cone(self, desk_gram):
        prob, gram = desk_gram
        pts = np.asarray(prob.spacetime_points().points)
        tau = np.abs(pts[:, 0][None, :] - pts[:, 0][:, None])
        disp = np.abs(pts[:, 1][None, :] - pts[:, 1][:, None])
        finite = gram.matrix > NEG_INF
        assert np.array_equal(finite, disp <= tau + 1e-12)

    def test_tpsd_for_reversible_nonnegative(self, desk_gram):
        _, gram = desk_gram
        assert is_tpsd_pairwise(gram).is_tpsd

    def test_absolute_lagrangian_steps(self):
        prob = lattice_problem(0.25, 0.25, lagrangian=ABS)
        idx = grid_index(prob)
        gram = maupertuis_dp(prob)
        assert gram.matrix[idx[(0.0, 0.0)], idx[(0.25, 0.25)]] == -0.25
        assert gram.matrix[idx[(0.0, 0.0)], idx[(0.5, 0.5)]] == -0.5

    def test_zero_cost_table(self):
        zero = LagrangianSpec(
            "table", velocities=((-1.0,), (0.0,), (1.0,)), costs=(0.0, 0.0, 0.0)
        )
        gram = maupertuis_dp(lattice_problem(0.25, 0.25, lagrangian=zero))
        finite = gram.matrix[gram.matrix > NEG_INF]
        assert np.array_equal(finite, np.zeros(len(finite)))

    def test_pair_guard(self):
        prob = MaupertuisProblem(
            [0.0, 1.0], [np.linspace(0.0, 1.0, 600)], QUAD, [(0.0,)]
        )
        with pytest.raises(SizeError):
            maupertuis_dp(prob)

    def test_matches_shortest_path_oracle_at_11x61_reach_2(self, wide_gram):
        prob, gram = wide_gram
        dist = min_action_matrix(
            prob.time_grid, prob.space_axes, [(k,) for k in range(-2, 3)],
            lambda v: v[0] * v[0],
        )
        assert np.array_equal(gram.matrix, kernel_from_paths(dist))


class TestIdempotency:
    def test_causal_kernel_idempotent_exactly(self):
        gram = maupertuis_dp(lattice_problem(0.25, 0.25))
        assert is_idempotent(asymmetrize(gram).matrix, tol=0.0)

    def test_causal_kernel_idempotent_non_dyadic_steps(self):
        gram = maupertuis_dp(lattice_problem(0.2, 0.2))
        assert is_idempotent(asymmetrize(gram).matrix, tol=0.0)

    def test_causal_kernel_idempotent_fine_dyadic(self):
        prob = MaupertuisProblem(
            np.arange(0.0, 0.751, 0.25),
            [np.arange(-0.125, 0.1251, 0.0625)],
            QUAD,
            [(-0.0625,), (0.0,), (0.0625,)],
        )
        assert is_idempotent(asymmetrize(maupertuis_dp(prob)).matrix, tol=0.0)

    @pytest.mark.xfail(
        strict=True,
        reason="documented alternative reading; round trips through a later "
        "time layer give the max-plus square finite entries at equal-time "
        "pairs where the symmetric kernel is -inf",
    )
    def test_symmetric_gram_idempotent_reading(self):
        gram = maupertuis_dp(lattice_problem(0.25, 0.25))
        assert is_idempotent(gram.matrix)

    def test_symmetric_square_fills_equal_time_pairs(self):
        prob = lattice_problem(0.25, 0.25)
        gram = maupertuis_dp(prob)
        square = mp_matmul(gram.matrix, gram.matrix)
        idx = grid_index(prob)
        i, j = idx[(0.0, 0.0)], idx[(0.0, 0.25)]
        assert gram.matrix[i, j] == NEG_INF
        # Via the next layer: one leg moves a cell (-0.25), the other stays (0).
        assert square[i, j] == -0.25


class TestAsymmetrize:
    def test_forward_entries_unchanged(self, desk_causal):
        prob, gram, causal = desk_causal
        pts = np.asarray(prob.spacetime_points().points)
        forward = pts[:, 0][:, None] <= pts[:, 0][None, :]
        assert np.array_equal(causal.matrix[forward], gram.matrix[forward])

    def test_backward_entries_bottom(self, desk_causal):
        prob, _, causal = desk_causal
        pts = np.asarray(prob.spacetime_points().points)
        backward = pts[:, 0][:, None] > pts[:, 0][None, :]
        assert np.all(causal.matrix[backward] == NEG_INF)

    def test_diagonal_zero(self, desk_causal):
        _, _, causal = desk_causal
        assert np.array_equal(np.diag(causal.matrix), np.zeros(len(causal.points)))

    def test_points_preserved(self, desk_causal):
        prob, _, causal = desk_causal
        assert causal.points == prob.spacetime_points()

    def test_matrices_are_read_only(self, desk_causal):
        _, gram, causal = desk_causal
        assert not gram.matrix.flags.writeable
        assert not causal.matrix.flags.writeable
        assert not np.shares_memory(gram.matrix, causal.matrix)

    def test_positive_entry_rejected(self):
        pts = PointSet([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(PreconditionError):
            asymmetrize(GramKernel(pts, np.array([[0.0, 0.5], [0.5, 0.0]])))

    def test_requires_time_coordinate(self):
        pts = PointSet([0.0, 1.0])
        with pytest.raises(PreconditionError):
            asymmetrize(GramKernel(pts, np.array([[0.0, -1.0], [-1.0, 0.0]])))


class TestValueFunction:
    def test_final_slice_equals_terminal_cost(self, desk_value):
        prob, psi, v = desk_value
        assert np.array_equal(v.values[-prob.n_space :], psi.values)

    def test_matches_path_oracle(self, desk_value):
        prob, psi, v = desk_value
        dist = min_action_matrix(
            prob.time_grid, prob.space_axes, [(-1,), (0,), (1,)], lambda v_: v_[0] * v_[0]
        )
        ref = backward_value_from_paths(
            dist, prob.n_time, prob.n_space, np.asarray(psi.values)
        )
        assert np.array_equal(v.values, ref.reshape(-1))

    def test_dirac_terminal_gives_kernel_column(self, desk_value):
        prob, _, _ = desk_value
        spike = np.full(prob.n_space, POS_INF)
        spike[6] = 0.0  # r* = 0.5
        v = value_function(prob, GridFunction(prob.space_points(), spike))
        gram = maupertuis_dp(prob)
        col = gram.matrix[:, grid_index(prob)[(1.0, 0.5)]]
        assert np.array_equal(v.values, -col)

    def test_quadratic_closed_form_agreement(self):
        prob = lattice_problem(0.25, 0.05, cap=2)
        psi = GridFunction(prob.space_points(), prob.space_axes[0] ** 2)
        v = value_function(prob, psi)
        errs = [
            abs(v.values[i] - true_value_quadratic(t, r, 1.0))
            for i, (t, r) in enumerate(prob.spacetime_points().points)
        ]
        assert max(errs) == pytest.approx(0.01, abs=1e-9)
        assert max(errs) <= 0.05

    def test_domain_mismatch_rejected(self, desk_value):
        prob, _, _ = desk_value
        other = GridFunction(PointSet([0.0, 1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            value_function(prob, other)

    def test_zero_cost_zero_terminal(self):
        zero = LagrangianSpec(
            "table", velocities=((-1.0,), (0.0,), (1.0,)), costs=(0.0, 0.0, 0.0)
        )
        prob = lattice_problem(0.25, 0.25, lagrangian=zero)
        v = value_function(
            prob, GridFunction(prob.space_points(), np.zeros(prob.n_space))
        )
        assert np.array_equal(v.values, np.zeros(len(v.values)))

    def test_monotone_in_terminal_cost(self, desk_value):
        prob, psi, v = desk_value
        rng = np.random.default_rng(11)
        bigger = GridFunction(
            prob.space_points(), psi.values + rng.uniform(0.0, 1.0, prob.n_space)
        )
        v2 = value_function(prob, bigger)
        assert np.all(v2.values >= v.values)

    @pytest.mark.parametrize(
        "lagrangian, offsets",
        [
            (ABS, NINE_POINT),
            (
                LagrangianSpec(
                    "table",
                    velocities=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)),
                    costs=(0.5, 0.25, 1.0, 0.75, 1.5),
                ),
                [(0, 0), (1, 0), (0, 1), (1, 1), (1, -1)],
            ),
        ],
        ids=["absolute-9-point", "table-one-sided"],
    )
    def test_2d_matches_path_oracle(self, lagrangian, offsets):
        prob = plane_problem(7, 13, offsets, lagrangian, claim_reversible=False)
        rng = np.random.default_rng(5)
        psi = rng.integers(-8, 9, prob.n_space) / 4.0
        psi[rng.choice(prob.n_space, 20, replace=False)] = POS_INF
        v = value_function(prob, GridFunction(prob.space_points(), psi))
        dist = min_action_matrix(
            prob.time_grid, prob.space_axes, offsets,
            lambda vel: float(lagrangian.on_velocities(np.array([vel]))[0]),
        )
        ref = backward_value_from_paths(dist, prob.n_time, prob.n_space, psi)
        assert np.array_equal(v.values, ref.reshape(-1))

    def test_2d_60_squared_stays_within_memory(self):
        prob = plane_problem(11, 60, NINE_POINT, QUAD, step=0.125)
        r = prob.space_points().as_array()
        psi = GridFunction(prob.space_points(), (r * r).sum(axis=1))
        tracemalloc.start()
        try:
            value_function(prob, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One dense 3600 x 3600 step matrix alone would take 104 MB.
        assert peak < 20e6

    def test_2d_101_by_200_squared_runs_on_the_lattice(self):
        prob = plane_problem(101, 200, NINE_POINT, QUAD, step=0.125)
        r = prob.space_points().as_array()
        psi = GridFunction(prob.space_points(), (r * r).sum(axis=1))
        start = time.perf_counter()
        v = value_function(prob, psi)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            value_function(prob, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4.04M spacetime points: one tuple per point alone would take about
        # 500 MB; the values themselves take 32 MB, and the GridFunction
        # takes them over (37.3 MB traced, with the NaN check's 4 MB mask).
        assert elapsed < 1.0
        assert peak < 40e6
        assert len(v.domain) == 101 * 200 * 200
        assert v.domain.index_of((25.0, -12.5, 12.375)) == ((100 * 200) + 0) * 200 + 199
        assert np.array_equal(v.values[-prob.n_space:], psi.values)

    def test_2d_101_by_200_squared_extremal_check(self):
        prob = plane_problem(101, 200, NINE_POINT, QUAD, step=0.125)
        r = prob.space_points().as_array()
        psi = GridFunction(prob.space_points(), (r * r).sum(axis=1))
        tracemalloc.start()
        try:
            holds = largest_subsolution_check(prob, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The dense kernel would hold (4.04M)^2 pairs; the sweeps hold at
        # most three 32.3 MB spacetime arrays (98.0 MB traced).
        assert holds
        assert peak <= 3.1 * prob.n_time * prob.n_space * 8


class TestLargestSubsolution:
    def quadratic_pair(self):
        prob = lattice_problem(0.25, 0.25)
        psi = GridFunction(prob.space_points(), prob.space_axes[0] ** 2)
        return prob, psi

    def test_quadratic_instance_holds(self):
        prob, psi = self.quadratic_pair()
        assert largest_subsolution_check(prob, psi)

    def test_zero_cost_instance_holds(self):
        zero = LagrangianSpec(
            "table", velocities=((-1.0,), (0.0,), (1.0,)), costs=(0.0, 0.0, 0.0)
        )
        prob = lattice_problem(0.25, 0.25, lagrangian=zero)
        psi = GridFunction(prob.space_points(), np.zeros(prob.n_space))
        assert np.array_equal(
            value_function(prob, psi).values,
            np.zeros(prob.n_time * prob.n_space),
        )
        assert largest_subsolution_check(prob, psi)

    def test_random_terminal_on_five_point_grid(self):
        prob = MaupertuisProblem(
            np.arange(0.0, 0.751, 0.25),
            [np.arange(-0.5, 0.51, 0.25)],
            QUAD,
            [(-0.25,), (0.0,), (0.25,)],
        )
        rng = np.random.default_rng(7)
        psi = GridFunction(prob.space_points(), rng.normal(size=prob.n_space))
        assert largest_subsolution_check(prob, psi)

    def test_lifted_terminal_conjugate_is_negated_value(self):
        prob, psi = self.quadratic_pair()
        gram = maupertuis_dp(prob)
        op = ConjugationOp(gram, gram.points)
        conj = conj_sesqui(op, lift_terminal(prob, psi))
        v = value_function(prob, psi)
        assert ext_close(conj.values, -v.values, 1e-12).all()

    def test_pinned_range_elements_dominate(self):
        prob, psi = self.quadratic_pair()
        causal = asymmetrize(maupertuis_dp(prob))
        op = ConjugationOp(causal, causal.points)
        v = value_function(prob, psi)
        rng = np.random.default_rng(5)
        for _ in range(10):
            coeffs = rng.normal(0.0, 2.0, len(causal.points))
            coeffs[-prob.n_space :] = -np.asarray(psi.values)
            element = apply_linear(op, GridFunction(causal.points, coeffs))
            assert np.array_equal(element.values[-prob.n_space :], -psi.values)
            assert np.all(element.values >= -v.values - 1e-12)

    def test_dominance_attained_at_bottom_generator(self):
        prob, psi = self.quadratic_pair()
        causal = asymmetrize(maupertuis_dp(prob))
        op = ConjugationOp(causal, causal.points)
        coeffs = np.full(len(causal.points), NEG_INF)
        coeffs[-prob.n_space :] = -np.asarray(psi.values)
        element = apply_linear(op, GridFunction(causal.points, coeffs))
        v = value_function(prob, psi)
        assert np.array_equal(element.values, -v.values)

    @pytest.mark.xfail(
        strict=True,
        reason="documented alternative sign reading; range elements whose "
        "final slice carries the terminal cost itself, rather than its "
        "negation, need not dominate the negated value function",
    )
    def test_slice_pinned_to_terminal_cost_dominates_reading(self):
        zero = LagrangianSpec(
            "table", velocities=((-1.0,), (0.0,), (1.0,)), costs=(0.0, 0.0, 0.0)
        )
        prob = lattice_problem(0.25, 0.25, lagrangian=zero)
        psi = GridFunction(prob.space_points(), np.full(prob.n_space, -5.0))
        causal = asymmetrize(maupertuis_dp(prob))
        op = ConjugationOp(causal, causal.points)
        v = value_function(prob, psi)
        rng = np.random.default_rng(0)
        coeffs = rng.normal(0.0, 2.0, len(causal.points))
        coeffs[-prob.n_space :] = np.asarray(psi.values)
        element = apply_linear(op, GridFunction(causal.points, coeffs))
        assert np.array_equal(element.values[-prob.n_space :], psi.values)
        assert np.all(element.values >= -v.values - 1e-12)


def _dense_check(problem, psi_T, tol=1e-9):
    """The largest-subsolution check composed over the dense kernel."""
    gram = maupertuis_dp(problem)
    pts = gram.points
    op = ConjugationOp(gram, pts)
    neg_v = GridFunction(pts, -value_function(problem, psi_T).values)
    if not is_in_range(op, neg_v, tol=tol).in_range:
        return False
    conj = conj_sesqui(op, lift_terminal(problem, psi_T))
    if not ext_close(conj.values, neg_v.values, tol).all():
        return False
    op_asym = ConjugationOp(asymmetrize(gram), pts)
    floor_gen = np.full(len(pts), NEG_INF)
    floor_gen[-problem.n_space:] = -np.asarray(psi_T.values)
    attained = apply_linear(op_asym, GridFunction(pts, floor_gen))
    return bool(ext_close(attained.values, neg_v.values, tol).all())


FORMS = ("quadratic", "absolute", "table")


def random_dyadic_problem(rng, dim, form, reversible, negative=False):
    """A small random problem whose path sums are exact in float64.

    Steps are 0.25 or 0.5 in time and space, so every step cost and every
    sum of them is dyadic.  One-sided stencils keep a random subset of the
    displacements; ``negative`` draws table costs that may be below zero.
    """
    dt, dr = rng.choice([0.25, 0.5], size=2)
    nt = int(rng.integers(2, 6))
    n = int(rng.integers(2, 8 if dim == 1 else 5))
    reach = range(-2, 3) if dim == 1 else range(-1, 2)
    offsets = list(itertools.product(reach, repeat=dim))
    if not reversible:
        keep = rng.random(len(offsets)) < 0.5
        keep[rng.integers(len(offsets))] = True
        offsets = [o for o, k in zip(offsets, keep) if k]
    if form == "table":
        low = -2 if negative else 0
        costs = rng.integers(low, 5, len(offsets)) / 2.0
        lagrangian = LagrangianSpec(
            "table",
            velocities=tuple(tuple(k * dr / dt for k in o) for o in offsets),
            costs=tuple(costs),
        )
    else:
        lagrangian = LagrangianSpec(form)
    return MaupertuisProblem(
        np.arange(nt) * dt,
        [np.arange(n) * dr] * dim,
        lagrangian,
        [tuple(k * dr for k in o) for o in offsets],
        claim_reversible=reversible,
        require_nonneg=not negative,
    )


def random_argument(rng, shape):
    """Half-integers with some +-inf entries and zeros of both signs."""
    g = rng.integers(-6, 7, shape) / 2.0
    u = rng.random(shape)
    g[u < 0.1] = POS_INF
    g[u > 0.9] = NEG_INF
    g[(0.45 < u) & (u < 0.5)] = -0.0
    return g


class TestSweepOperators:
    """The sweeps against the dense kernel's operators, bitwise."""

    @pytest.mark.parametrize("reversible", [True, False])
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_sweeps_equal_dense_operators(self, dim, form, reversible):
        rng = np.random.default_rng([dim, FORMS.index(form), reversible])
        for _ in range(20):
            prob = random_dyadic_problem(rng, dim, form, reversible)
            costs = prob.dt * prob._stencil_costs()
            shape = (prob.n_time, *prob.space_shape)
            gram = maupertuis_dp(prob)
            pts = gram.points
            g = random_argument(rng, shape)
            f = GridFunction(pts, g.reshape(-1))
            dense = conj_sesqui(ConjugationOp(gram, pts), f).values
            assert np.array_equal(_conjugate(prob, costs, g.copy()).reshape(-1), dense)
            causal = apply_linear(ConjugationOp(asymmetrize(gram), pts), f).values
            swept = np.negative(_sweep(prob, costs, -g, 1)).reshape(-1)
            assert np.array_equal(swept, causal)


def outcome(check, problem, psi):
    """A check's verdict, or the message of its PreconditionError."""
    try:
        return check(problem, psi)
    except PreconditionError as exc:
        return str(exc)


class TestSweepCheckAgreesWithDense:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_same_outcome_on_random_problems(self, dim):
        rng = np.random.default_rng(dim)
        seen = set()
        for trial in range(60):
            form = FORMS[trial % 3]
            negative = form == "table" and trial % 2 == 0
            prob = random_dyadic_problem(rng, dim, form, trial % 4 < 2, negative)
            psi = GridFunction(
                prob.space_points(), random_argument(rng, prob.space_shape).reshape(-1)
            )
            dense = outcome(_dense_check, prob, psi)
            assert outcome(largest_subsolution_check, prob, psi) == dense
            seen.add(dense)
        assert seen == {True, "asymmetrize requires nonpositive kernel values"}


class TestLiftedSweepIsTheValueFunction:
    """Conditions 2 and 3 of ``largest_subsolution_check`` hold by
    construction: the backward sweep of the lifted terminal cost computes
    min(+inf, step(h)) with the stepper and costs of ``value_function``, so
    it is V bit for bit, and the check does not run it."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bitwise_equal_with_signed_zeros_and_infinities(self, dim):
        rng = np.random.default_rng([dim, 24])
        for trial in range(60):
            prob = random_dyadic_problem(rng, dim, FORMS[trial % 3], trial % 4 < 2)
            psi = GridFunction(
                prob.space_points(), random_argument(rng, prob.space_shape).reshape(-1)
            )
            lifted = lift_terminal(prob, psi).values.reshape(prob.n_time, *prob.space_shape)
            swept = _sweep(prob, prob.dt * prob._stencil_costs(), lifted.copy(), 1)
            assert_same_bits(swept.reshape(-1), value_function(prob, psi).values)


def offset_problem(shape, offsets):
    """A problem on a unit-step lattice of ``shape`` with integer ``offsets``;
    its own running cost is not used by the steps under test."""
    return MaupertuisProblem(
        [0.0, 1.0], [np.arange(n, dtype=float) for n in shape], QUAD,
        [tuple(map(float, o)) for o in offsets],
        claim_reversible=False, require_nonneg=False,
    )


DYADIC = st.integers(-12, 12).map(lambda k: k / 4.0)
ENTRIES = DYADIC | st.sampled_from([POS_INF, NEG_INF, -0.0])


@st.composite
def step_cases(draw):
    """(shape, offsets, costs, batch, sign, two arguments) of one step."""
    dim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(dim))
    reach = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["symmetric", "one-sided"]))
    low = 0 if kind == "one-sided" else -reach
    cells = list(itertools.product(range(low, reach + 1), repeat=dim))
    offsets = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=9, unique=True))
    if kind == "symmetric":
        offsets = sorted(set(offsets) | {tuple(-k for k in o) for o in offsets})
    costs = np.array(
        draw(st.lists(DYADIC | st.just(-0.0), min_size=len(offsets), max_size=len(offsets)))
    )
    batch = draw(st.sampled_from([(), (3,)]))
    size = int(np.prod((*batch, *shape)))
    args = [
        np.array(draw(st.lists(ENTRIES, min_size=size, max_size=size))).reshape(*batch, *shape)
        for _ in range(2)
    ]
    return shape, offsets, costs, batch, draw(st.sampled_from([1, -1])), args


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestStepper:
    """The stepper against the per-offset reference step, bitwise."""

    @settings(deadline=None, max_examples=200)
    @given(step_cases())
    def test_equals_reference_step(self, case):
        shape, offsets, costs, batch, sign, (a, b) = case
        step = _stepper(offset_problem(shape, offsets), costs, sign, batch)
        # One stepper serves every step: a new output, then one in place.
        assert_same_bits(step(a, np.empty_like(a)), stencil_step(shape, offsets, costs, a, sign))
        want = stencil_step(shape, offsets, costs, b, sign)
        assert_same_bits(step(b, b), want)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "offsets",
        [
            [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)],  # sparse cross
            list(itertools.product((0, 1, 2), repeat=2)),  # one-sided box
            [(0, 4), (0, 0), (0, -4)],  # sparse, longer than the lattice
            [(1, 1), (2, 1)],  # no zero displacement
        ],
    )
    @pytest.mark.parametrize("batch", [(), (7,)])
    def test_chained_steps(self, batch, offsets, sign):
        shape = (5, 4)
        rng = np.random.default_rng(len(offsets))
        costs = rng.integers(0, 9, len(offsets)) / 4.0
        arg = rng.choice([POS_INF, NEG_INF, -0.0, 0.0, 0.5, -1.25], (*batch, *shape))
        step = _stepper(offset_problem(shape, offsets), costs, sign, batch)
        for _ in range(3):
            want = stencil_step(shape, offsets, costs, arg, sign)
            assert_same_bits(step(arg, arg), want)

    def test_negative_zero_cost_keeps_its_sign(self):
        # A literal -0.0 table cost gives -0.0 where a -0.0 entry meets it,
        # as in the per-offset step; the kernel zeros keep their signs too.
        lagrangian = LagrangianSpec(
            "table", velocities=((0.0,), (1.0,), (-1.0,)), costs=(-0.0, 0.5, 0.5)
        )
        prob = MaupertuisProblem(
            np.arange(4) * 0.5, [np.arange(6) * 0.5], lagrangian, [(0.0,), (0.5,), (-0.5,)]
        )
        costs = prob.dt * prob._stencil_costs()
        arg = np.array([-0.0, 0.0, -0.0, 1.0, POS_INF, -0.0])
        for sign in (1, -1):
            want = stencil_step((6,), prob._offsets, costs, arg, sign)
            assert np.signbit(want[want == 0.0]).any()
            assert_same_bits(_stepper(prob, costs, sign)(arg, np.empty(6)), want)
        slices = value_function(prob, GridFunction(prob.space_points(), arg)).values
        want = [arg]
        for _ in range(prob.n_time - 1):
            want.insert(0, stencil_step((6,), prob._offsets, costs, want[0], 1))
        assert_same_bits(slices, np.concatenate(want))


class TestSpaceSliceKernel:
    def test_single_step_values(self):
        prob = lattice_problem(0.25, 0.25)
        sk = space_slice_kernel(prob, 0, 1)
        rs = prob.space_axes[0]
        for a, ra in enumerate(rs):
            for b, rb in enumerate(rs):
                k = abs(round((rb - ra) / 0.25))
                expect = -0.25 * (k * 1.0) ** 2 if k <= 1 else NEG_INF
                assert sk.matrix[a, b] == expect

    def test_symmetric_for_even_cost(self):
        prob = lattice_problem(0.25, 0.25)
        sk = space_slice_kernel(prob, 0, 2)
        assert np.array_equal(sk.matrix, sk.matrix.T)
        assert is_tpsd_pairwise(sk).is_tpsd

    def test_two_step_slice_not_idempotent(self):
        prob = lattice_problem(0.25, 0.25)
        sk = space_slice_kernel(prob, 0, 2)
        assert not is_idempotent(sk.matrix)

    def test_square_extends_reach(self):
        prob = lattice_problem(0.25, 0.25)
        sk = space_slice_kernel(prob, 0, 2)
        square = mp_matmul(sk.matrix, sk.matrix)
        rs = list(prob.space_axes[0])
        a, b = rs.index(-0.5), rs.index(0.25)  # three cells apart
        assert sk.matrix[a, b] == NEG_INF
        assert square[a, b] > NEG_INF

    def test_default_stop_is_final_slice(self):
        prob = lattice_problem(0.25, 0.25)
        assert np.array_equal(
            space_slice_kernel(prob).matrix, space_slice_kernel(prob, 0, 4).matrix
        )

    def test_index_validation(self):
        prob = lattice_problem(0.25, 0.25)
        for start, stop in ((-1, 2), (2, 2), (3, 1), (0, 5)):
            with pytest.raises(ValueError):
                space_slice_kernel(prob, start, stop)

    def test_lives_on_space_grid(self):
        prob = lattice_problem(0.25, 0.25)
        assert space_slice_kernel(prob, 0, 2).points == prob.space_points()

    def test_every_slice_pair_is_a_dp_block(self, wide_gram):
        prob, gram = wide_gram
        ns = prob.n_space
        for start, stop in itertools.combinations(range(prob.n_time), 2):
            block = gram.matrix[start * ns : (start + 1) * ns, stop * ns : (stop + 1) * ns]
            assert np.array_equal(space_slice_kernel(prob, start, stop).matrix, block)

    def test_pair_guard(self):
        # 40 x 40 space points: 2.56M pairs, above the guard.
        prob = plane_problem(3, 40, NINE_POINT, QUAD)
        with pytest.raises(SizeError):
            space_slice_kernel(prob)

    def test_batched_steps_stay_within_memory(self):
        # 961 x 31 x 31 powers, 25-point stencil: one power takes 7.4 MB;
        # a step holds the power, its bordered copy and one term array.
        prob = plane_problem(11, 31, list(itertools.product(range(-2, 3), repeat=2)), QUAD)
        tracemalloc.start()
        try:
            space_slice_kernel(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6


class TestInvertTerminalCost:
    def steep_instance(self):
        """Quadratic problem whose steep terminal cost pulls every chosen
        witness onto a maximizer of rho -> b(x_m, rho) - psi_T(rho)."""
        prob = lattice_problem(0.25, 0.25)
        psi = GridFunction(prob.space_points(), 2.0 * prob.space_axes[0] ** 2)
        v = value_function(prob, psi)
        idx = grid_index(prob)
        sample_rs = (-0.5, 0.0, 0.5)
        ys = tuple(float(-v.values[idx[(0.0, r)]]) for r in sample_rs)
        slice_kernel = space_slice_kernel(prob)
        samples = SampleSet(PointSet(list(sample_rs)), ys, slice_kernel.points)
        return prob, psi, v, samples, slice_kernel

    def test_consistent_samples_feasible(self):
        _, _, _, samples, slice_kernel = self.steep_instance()
        result = invert_terminal_cost(samples, slice_kernel)
        assert result.witness_indices == (3, 4, 5)

    def test_witnesses_maximize_sections(self):
        _, psi, _, samples, slice_kernel = self.steep_instance()
        result = invert_terminal_cost(samples, slice_kernel)
        rs = list(r for (r,) in slice_kernel.points.points)
        for m, j in enumerate(result.witness_indices):
            row = slice_kernel.matrix[rs.index(samples.xs.points[m][0])]
            section = row - np.asarray(psi.values)
            assert section[j] == pytest.approx(np.max(section), abs=1e-12)

    def test_reconstruction_matches_cost_at_witnesses(self):
        _, psi, _, samples, slice_kernel = self.steep_instance()
        result = invert_terminal_cost(samples, slice_kernel)
        witness_set = set(result.witness_indices)
        for j in range(len(slice_kernel.points)):
            if j in witness_set:
                assert result.psi_T.values[j] == pytest.approx(
                    psi.values[j], abs=1e-12
                )
            else:
                assert result.psi_T.values[j] == POS_INF

    def test_regenerated_value_interpolates_and_dominates(self):
        prob, _, v, samples, slice_kernel = self.steep_instance()
        result = invert_terminal_cost(samples, slice_kernel)
        regen = value_function(prob, result.psi_T)
        idx = grid_index(prob)
        for m, (r,) in enumerate(samples.xs.points):
            assert regen.values[idx[(0.0, r)]] == pytest.approx(
                -samples.ys[m], abs=1e-9
            )
        assert np.all(regen.values >= v.values - 1e-12)

    def test_reversed_candidates_map_to_the_space_grid(self):
        # Candidates in the reverse order of the space grid: the witness
        # indices count in the candidates, psi_T is written on the grid.
        prob, _, v, samples, slice_kernel = self.steep_instance()
        reversed_grid = PointSet(slice_kernel.points.as_array()[::-1])
        samples = SampleSet(samples.xs, samples.ys, reversed_grid)
        result = invert_terminal_cost(samples, slice_kernel)
        last = len(slice_kernel.points) - 1
        assert result.witness_indices == (last - 3, last - 4, last - 5)
        assert np.array_equal(result.witnesses, slice_kernel.points.as_array()[[3, 4, 5]])
        assert not result.witnesses.flags.writeable
        assert result.psi_T.domain == prob.space_points()
        regen = value_function(prob, result.psi_T)
        idx = grid_index(prob)
        for m, (r,) in enumerate(samples.xs.points):
            assert regen.values[idx[(0.0, r)]] == pytest.approx(-samples.ys[m], abs=1e-9)
        assert np.all(regen.values >= v.values - 1e-12)

    def test_full_slice_samples_interpolate(self):
        prob = lattice_problem(0.25, 0.25)
        psi = GridFunction(prob.space_points(), prob.space_axes[0] ** 2)
        v = value_function(prob, psi)
        idx = grid_index(prob)
        rs = prob.space_axes[0]
        ys = tuple(float(-v.values[idx[(0.0, r)]]) for r in rs)
        slice_kernel = space_slice_kernel(prob)
        samples = SampleSet(
            PointSet([float(r) for r in rs]), ys, slice_kernel.points
        )
        result = invert_terminal_cost(samples, slice_kernel)
        regen = value_function(prob, result.psi_T)
        for m, (r,) in enumerate(samples.xs.points):
            assert regen.values[idx[(0.0, r)]] == pytest.approx(
                -samples.ys[m], abs=1e-9
            )

    def test_single_sample_top_spike_section(self):
        prob, _, v, _, slice_kernel = self.steep_instance()
        idx = grid_index(prob)
        y1 = float(-v.values[idx[(0.0, 0.5)]])
        samples = SampleSet(PointSet([0.5]), (y1,), slice_kernel.points)
        result = invert_terminal_cost(samples, slice_kernel)
        j = result.witness_indices[0]
        rs = list(r for (r,) in slice_kernel.points.points)
        expect = np.full(len(rs), POS_INF)
        expect[j] = slice_kernel.matrix[rs.index(0.5), j] - y1
        assert np.array_equal(result.psi_T.values, expect)

    def test_inconsistent_samples_infeasible(self):
        prob = lattice_problem(0.25, 0.25)
        slice_kernel = space_slice_kernel(prob)
        samples = SampleSet(
            PointSet([0.0, 0.25]), (0.0, 10.0), slice_kernel.points
        )
        with pytest.raises(InfeasibleConstraintsError) as exc:
            invert_terminal_cost(samples, slice_kernel)
        assert exc.value.blocking_index == 1

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_coinciding_witnesses_keep_the_earlier_zero(self, order):
        # Both samples can only anchor at 0.0, where b - y is -0.0 for the
        # first and 0.0 for the second: the earlier sample's zero is kept.
        grid = PointSet([0.0, 1.0])
        kernel = GramKernel(grid, np.array([[-0.0, NEG_INF], [-1.0, NEG_INF]]))
        xs, ys = [0.0, 1.0], [0.0, -1.0]
        samples = SampleSet(
            PointSet([xs[m] for m in order]), [ys[m] for m in order], grid
        )
        result = invert_terminal_cost(samples, kernel)
        assert result.witness_indices == (0, 0)
        assert result.psi_T.values[0] == 0.0
        assert np.signbit(result.psi_T.values[0]) == (order[0] == 0)
        assert result.psi_T.values[1] == POS_INF

    def test_reconstruction_lives_on_space_grid(self):
        prob, _, _, samples, slice_kernel = self.steep_instance()
        result = invert_terminal_cost(samples, slice_kernel)
        assert result.psi_T.domain == prob.space_points()


class TestClosedFormConvergence:
    def test_velocity_refinement_tightens_gap(self):
        gaps = [hopf_gap(lattice_problem(0.25, dr, cap=2)) for dr in (0.2, 0.1, 0.05)]
        assert gaps[0] == pytest.approx(0.16, abs=1e-9)
        assert gaps[1] == pytest.approx(0.04, abs=1e-9)
        assert gaps[2] == pytest.approx(0.01, abs=1e-9)
        assert gaps[0] / gaps[1] >= 1.8
        assert gaps[1] / gaps[2] >= 1.8
        assert gaps[2] <= 0.1

    @pytest.mark.xfail(
        strict=True,
        reason="documented alternative reading; equal time and space steps pin "
        "the stencil velocities to the integers, leaving a quarter-sized gap "
        "to the closed form at every refinement",
    )
    def test_equal_step_gap_within_tenth_reading(self):
        assert hopf_gap(lattice_problem(0.05, 0.05)) <= 0.1

    @pytest.mark.xfail(
        strict=True,
        reason="documented alternative reading; the closed-form gap moves from "
        "0.24 to 0.25 when equal steps are halved from 0.2, so refinement "
        "does not shrink it",
    )
    def test_equal_step_gap_nonincreasing_reading(self):
        gaps = [hopf_gap(lattice_problem(d, d)) for d in (0.2, 0.1, 0.05)]
        assert gaps[0] >= gaps[1] >= gaps[2]
