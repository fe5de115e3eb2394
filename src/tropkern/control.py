"""Least-action kernels on spacetime grids and inverse optimal control.

A problem couples a uniform time grid, a uniform space lattice, a running
cost L(t, r, v), and a stencil of per-step displacements.  The cost of a
lattice path is the rectangle rule sum of dt * L(t_i, r_i, v_i/dt).  The
least-action kernel assigns each ordered pair of spacetime points

    b(x0, x1) = -(minimal path cost from x0 to x1)       for t1 > t0,

0 on the diagonal, -inf between distinct simultaneous points, and the
mirrored value for t1 < t0, which makes the matrix symmetric by
construction.  Its causal (asymmetric) variant keeps only t1 >= t0 and is
exactly idempotent by the dynamic programming principle.

The dynamic programming runs as stencil steps: one step is the minimum of
the |S| shifted copies of a slice plus their step costs, read as views of
one +inf-bordered buffer that a stepper builds once per sweep.  A value
function costs O(nt * ns * |S|) time and O(ns) memory per slice, and the
kernels come from the nt - 1 powers of that step (the running cost ignores
t).  The space and spacetime grids are lattice PointSets held as their
axes, so no grid builds one tuple per point: at 101 x 200^2 a value
function takes about 0.04 s and 37 MB traced, most of it the values
themselves.  The largest-subsolution check runs on the same steps, as
backward and forward sweeps over the spacetime grid, so it too costs
O(nt * ns * |S|) time and is bounded by no pair guard; only the dense
kernels (``maupertuis_dp``, ``space_slice_kernel``) keep one.

For state-independent convex L the continuum least action has the closed
form -(t1 - t0) * L((r1 - r0)/(t1 - t0)); the grid kernel converges to it as
the lattice is refined at fixed time step.

The inverse workflows recover cost data from sampled values of the optimal
cost-to-go: a stopping cost on the grid (via the interpolation machinery
with anchors at the sample sites) or a terminal cost at the final time (via
witness search over the final slice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    NEG_INF,
    PAIR_GUARD,
    POS_INF,
    GridFunction,
    Point,
    PointSet,
    PreconditionError,
    SizeError,
    as_point,
    decode_extreal,
    decode_values,
    ext_close,
    owned_array,
    point_array,
)
from .kernels import GramKernel
from .representer import SampleSet, feasible_witnesses


@dataclass(frozen=True)
class LagrangianSpec:
    """A named running cost L(t, r, v), state- and time-independent.

    Supported forms:
        quadratic: L(v) = ||v||^2
        absolute:  L(v) = ||v||_1
        table:     L(v) looked up from explicit (velocity, cost) pairs.

    Attributes:
        name: One of "quadratic", "absolute", "table".
        velocities: For tables, the tabulated velocity vectors.
        costs: For tables, the cost at each tabulated velocity.
        convex_flag: For tables, whether the caller asserts convexity (the
            built-in forms are convex by construction).
    """

    name: str
    velocities: tuple[Point, ...] | None = None
    costs: tuple[float, ...] | None = None
    convex_flag: bool = False
    _table: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.name not in ("quadratic", "absolute", "table"):
            raise ValueError(f"unknown running-cost form {self.name!r}")
        if self.name == "table":
            if self.velocities is None or self.costs is None:
                raise ValueError("table form requires velocities and costs")
            vels = point_array(self.velocities)
            try:
                costs = decode_values(self.costs)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"table costs must be numbers: {exc}") from None
            if costs.shape != (len(vels),):
                raise ValueError("one cost per tabulated velocity is required")
            if not np.isfinite(costs).all():
                raise ValueError("table costs must be finite")
            object.__setattr__(self, "velocities", tuple(map(tuple, vels.tolist())))
            object.__setattr__(self, "costs", tuple(costs.tolist()))
            object.__setattr__(self, "_table", (vels, costs))

    @property
    def convex(self) -> bool:
        """Whether the form is certified convex (built-ins) or asserted so."""
        return self.name in ("quadratic", "absolute") or self.convex_flag

    @property
    def nonnegative(self) -> bool:
        """Whether L >= 0 everywhere it is defined."""
        if self.name in ("quadratic", "absolute"):
            return True
        return min(self.costs) >= 0.0

    def eval(self, t: float, r: Point, velocity: Point) -> float:
        """L(t, r, velocity); built-in forms ignore t and r."""
        return float(self.on_velocities(np.asarray(velocity, dtype=float).reshape(1, -1))[0])

    def on_velocities(self, v: np.ndarray) -> np.ndarray:
        """L at each row of a (k, d) velocity array.

        Raises:
            ValueError: For a table form, at the first velocity that is not
                tabulated (within 1e-9 in every coordinate).
        """
        if self.name == "quadratic":
            return np.sum(v * v, axis=1)
        if self.name == "absolute":
            return np.sum(np.abs(v), axis=1)
        table, costs = self._table
        hits = np.zeros((len(v), len(table)), dtype=bool)
        if v.shape[1] == table.shape[1]:
            hits = (np.abs(v[:, None, :] - table) <= 1e-9).all(axis=2)
        found = hits.any(axis=1)
        if not found.all():
            target = tuple(v[np.argmin(found)].tolist())
            raise ValueError(f"velocity {target} is not tabulated")
        return costs[np.argmax(hits, axis=1)]

    @classmethod
    def from_spec(cls, spec: Mapping[str, object] | "LagrangianSpec") -> "LagrangianSpec":
        """Build from a JSON-style mapping {"name": ..., ...}."""
        if isinstance(spec, LagrangianSpec):
            return spec
        if not isinstance(spec, Mapping):
            raise TypeError("a running cost must be a JSON object")
        name = spec.get("name")
        if name == "table":
            return cls(
                "table",
                velocities=spec["velocities"],
                costs=spec["costs"],
                convex_flag=_spec_flag(spec, "convex", False),
            )
        return cls(str(name))

    def to_spec(self) -> dict:
        if self.name == "table":
            return {
                "name": "table",
                "velocities": [list(v) for v in self.velocities],
                "costs": list(self.costs),
                "convex": self.convex_flag,
            }
        return {"name": self.name}


def lax_hopf_table(
    lagrangian: LagrangianSpec, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Closed-form least action between the spacetime rows of ``xs`` and ``ys``.

    For a convex state-independent running cost, the optimal trajectory is a
    straight line and the kernel value is -|t1 - t0| * L((r1-r0)/(t1-t0));
    0 when the points coincide; -inf between distinct simultaneous points,
    where L is never consulted.

    Raises:
        PreconditionError: If the running cost is not certified convex.
    """
    if not lagrangian.convex:
        raise PreconditionError("closed form requires a convex running cost")
    if xs.shape[1] != ys.shape[1] or xs.shape[1] < 2:
        raise ValueError("spacetime points need a time plus space coordinates")
    x0, x1 = xs[:, None, :], ys[None, :, :]
    tau = x1[..., 0] - x0[..., 0]
    out = np.where((x0[..., 1:] == x1[..., 1:]).all(axis=2), 0.0, NEG_INF)
    moving = x0[..., 0] != x1[..., 0]
    velocity = (x1 - x0)[..., 1:][moving] / tau[moving][:, None]
    out[moving] = -np.abs(tau[moving]) * lagrangian.on_velocities(velocity)
    return out


def lax_hopf(
    lagrangian: LagrangianSpec,
    x0: float | Sequence[float],
    x1: float | Sequence[float],
) -> float:
    """Least action between two spacetime points: the 1x1 case of
    ``lax_hopf_table``."""
    table = lax_hopf_table(lagrangian, np.array([as_point(x0)]), np.array([as_point(x1)]))
    return float(table[0, 0])


@dataclass(frozen=True)
class MaupertuisProblem:
    """A least-action problem on a uniform spacetime lattice.

    Attributes:
        time_grid: Increasing, uniformly spaced times t_0 .. T.
        space_axes: One uniform increasing axis per space dimension; the
            space grid is their Cartesian product (last axis fastest).
        lagrangian: The running cost.
        stencil: Allowed per-step displacement vectors; each coordinate must
            be an integer multiple of the corresponding axis step.
        claim_reversible: When True (default), require -v in the stencil for
            every v, the hypothesis under which the symmetric kernel is tpsd.
        require_nonneg: When True (default), require L >= 0 on the stencil
            velocities, the other tpsd hypothesis.
    """

    time_grid: np.ndarray
    space_axes: tuple[np.ndarray, ...]
    lagrangian: LagrangianSpec
    stencil: tuple[Point, ...]
    claim_reversible: bool = True
    require_nonneg: bool = True
    _offsets: np.ndarray = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        times = _uniform_axis(self.time_grid, "time grid")
        if len(times) < 2:
            raise ValueError("time grid needs at least two points")
        object.__setattr__(self, "time_grid", times)
        axes = tuple(_uniform_axis(ax, "space axes") for ax in self.space_axes)
        if not axes:
            raise ValueError("at least one space axis is required")
        object.__setattr__(self, "space_axes", axes)

        sten = point_array(self.stencil)
        if sten.shape[1] != len(axes):
            raise ValueError("stencil displacements must match space dim")
        steps = sten / [self.space_step(j) for j in range(len(axes))]
        rounded = np.round(steps)
        with np.errstate(invalid="ignore"):  # inf - inf at an infinite displacement
            off_lattice = ~(np.abs(steps - rounded) <= 1e-6).all(axis=1)
        if off_lattice.any():
            v = tuple(sten[np.argmax(off_lattice)].tolist())
            raise ValueError(f"stencil displacement {v} is not a lattice displacement")
        offsets = rounded.astype(int)
        object.__setattr__(self, "stencil", tuple(map(tuple, sten.tolist())))
        object.__setattr__(self, "_offsets", offsets)

        have = set(map(tuple, offsets.tolist()))
        if self.claim_reversible and not set(map(tuple, (-offsets).tolist())) <= have:
            raise ValueError("reversibility claimed but stencil is not symmetric")
        if self.require_nonneg and (self._stencil_costs() < 0).any():
            raise ValueError(
                "nonnegative running cost required but L < 0 on the stencil"
            )

    # -- grid geometry ------------------------------------------------------

    @property
    def dt(self) -> float:
        return float(self.time_grid[1] - self.time_grid[0])

    @property
    def n_time(self) -> int:
        return len(self.time_grid)

    def space_step(self, axis: int = 0) -> float:
        ax = self.space_axes[axis]
        return float(ax[1] - ax[0]) if len(ax) > 1 else 1.0

    @property
    def space_shape(self) -> tuple[int, ...]:
        return tuple(len(ax) for ax in self.space_axes)

    @property
    def n_space(self) -> int:
        return int(np.prod(self.space_shape))

    def space_points(self) -> PointSet:
        """The space lattice as a PointSet (C-order product of the axes)."""
        return PointSet.lattice(self.space_axes)

    def spacetime_points(self) -> PointSet:
        """(t, r...) points, time-major, each time block in space order."""
        return PointSet.lattice((self.time_grid, *self.space_axes), has_time=True)

    def stencil_velocities(self) -> tuple[Point, ...]:
        """Per-step velocities v/dt for each stencil displacement."""
        return tuple(tuple(c / self.dt for c in v) for v in self.stencil)

    def _stencil_costs(self) -> np.ndarray:
        """L at each stencil velocity (the running cost ignores t and r)."""
        return self.lagrangian.on_velocities(np.array(self.stencil_velocities()))

    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "MaupertuisProblem":
        """Build from a JSON-style mapping.

        Keys: time_grid (list or {start, stop, num}), space_grid (list,
        {start, stop, num}, or {axes: [...]}), lagrangian, stencil,
        reversible (default True), require_nonneg (default True).
        """
        time_grid = _parse_grid(spec["time_grid"])
        sg = spec["space_grid"]
        if isinstance(sg, Mapping) and "axes" in sg:
            axes = tuple(_parse_grid(ax) for ax in sg["axes"])
        else:
            axes = (_parse_grid(sg),)
        return cls(
            time_grid=time_grid,
            space_axes=axes,
            lagrangian=LagrangianSpec.from_spec(spec.get("lagrangian", {"name": "quadratic"})),
            stencil=spec["stencil"],
            claim_reversible=_spec_flag(spec, "reversible", True),
            require_nonneg=_spec_flag(spec, "require_nonneg", True),
        )


def _uniform_axis(values: Sequence[float], what: str) -> np.ndarray:
    """A finite, strictly increasing, uniformly spaced axis, read-only
    (``owned_array``)."""
    ax = owned_array(values, what).reshape(-1)
    if not np.isfinite(ax).all():
        raise ValueError(f"{what} must be finite")
    if len(ax) > 1:
        steps = np.diff(ax)
        if steps.min() <= 0:
            raise ValueError(f"{what} must be strictly increasing")
        if np.abs(steps - steps[0]).max() > 1e-9 * max(1.0, abs(steps[0])):
            raise ValueError(f"{what} must be uniform")
    return ax


def _spec_flag(spec: Mapping[str, object], key: str, default: bool) -> bool:
    """A JSON boolean of a spec; anything else (such as "no") is an error."""
    value = spec.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _parse_grid(g) -> np.ndarray:
    """A grid: a list of coordinates, or {start, stop, num} with a JSON integer num."""
    if isinstance(g, Mapping):
        if type(g["num"]) is not int:
            raise ValueError(f"grid num must be an integer, got {g['num']!r}")
        return np.linspace(decode_extreal(g["start"]), decode_extreal(g["stop"]), g["num"])
    return decode_values(g)


def _stepper(
    problem: MaupertuisProblem, costs: np.ndarray, sign: int, batch: tuple[int, ...] = ()
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """One DP step over the trailing space axes of (*batch, *space_shape) arrays.

    ``step(arr, out)`` writes out[..., r] = min over stencil displacements v
    of arr[..., r + sign*v] + costs[v] (+inf where none stays on the
    lattice) and returns ``out``, which may be ``arr``.  It copies ``arr``
    into a buffer bordered by +inf, so each displacement reads one
    full-size view of the buffer; the views and one term array are made
    once, and a step is the copy plus an ``np.add`` and an ``np.minimum``
    per displacement, in stencil order.  ``costs`` holds dt * L(v/dt),
    which is finite, so no sum meets (+inf) + (-inf).
    """
    shape = problem.space_shape
    shifts = sign * problem._offsets
    lo, hi = np.maximum(-shifts.min(axis=0), 0), np.maximum(shifts.max(axis=0), 0)
    buffer = np.full((*batch, *(shape + lo + hi)), POS_INF)

    def view(shift: np.ndarray) -> np.ndarray:
        return buffer[(Ellipsis, *(slice(k + s, k + s + n) for k, s, n in zip(lo, shift, shape)))]

    interior, (first, *rest) = view(0 * lo), [(view(s), c) for s, c in zip(shifts, costs)]
    term = np.empty((*batch, *shape))

    def step(arr: np.ndarray, out: np.ndarray) -> np.ndarray:
        interior[...] = arr
        np.add(*first, out=out)
        for src, cost in rest:
            np.add(src, cost, out=term)
            np.minimum(out, term, out=out)
        return out

    return step


def _least_actions(problem: MaupertuisProblem, upto: int) -> Iterator[np.ndarray]:
    """Yield P_1 .. P_upto, P_k[a, b] the minimal cost of a k-step path a -> b.

    Each power has shape (n_space, *space_shape) and overwrites the one
    before it.  The start is the min-plus identity with -0.0, the exact
    additive identity, on its diagonal.
    """
    ns = problem.n_space
    step = _stepper(problem, problem.dt * problem._stencil_costs(), -1, (ns,))
    power = np.where(np.eye(ns, dtype=bool), -0.0, POS_INF).reshape(ns, *problem.space_shape)
    for _ in range(upto):
        yield step(power, power)


def maupertuis_dp(problem: MaupertuisProblem) -> GramKernel:
    """All-pairs least-action kernel on the spacetime grid.

    Returns the symmetric kernel: -(minimal path cost) for forward pairs,
    the mirrored value for backward pairs, 0 on the diagonal, -inf between
    distinct simultaneous points and unreachable pairs.

    Raises:
        SizeError: If the grid has more than 10^6 spacetime pairs.
    """
    nt, ns = problem.n_time, problem.n_space
    n_points = nt * ns
    if n_points * n_points > PAIR_GUARD:
        raise SizeError(
            f"{n_points}^2 spacetime pairs exceed the guard of {PAIR_GUARD}"
        )
    matrix = np.full((n_points, n_points), NEG_INF)
    np.fill_diagonal(matrix, 0.0)
    blocks = matrix.reshape(nt, ns, nt, ns)
    for gap, power in enumerate(_least_actions(problem, nt - 1), start=1):
        block = -power.reshape(ns, ns)  # +inf (unreachable) -> -inf
        i = np.arange(nt - gap)
        blocks[i, :, i + gap, :] = block
        blocks[i + gap, :, i, :] = block.T
    return GramKernel._adopt(problem.spacetime_points(), matrix)


def asymmetrize(gram: GramKernel) -> GramKernel:
    """Causal variant: entries with t1 < t0 replaced by -inf.

    The input must be a spacetime-indexed kernel with nonpositive entries
    (the coefficient form behind this operation is only well defined then).

    Raises:
        PreconditionError: If the grid has no time coordinate or some entry
            is positive.
    """
    if not gram.points.has_time:
        raise PreconditionError("asymmetrize requires a spacetime-indexed kernel")
    if (gram.matrix > 0).any():
        raise PreconditionError("asymmetrize requires nonpositive kernel values")
    t = gram.points.as_array()[:, 0]
    matrix = np.where(t[None, :] < t[:, None], NEG_INF, gram.matrix)
    return GramKernel._adopt(gram.points, matrix)


def value_function(problem: MaupertuisProblem, psi_T: GridFunction) -> GridFunction:
    """Optimal cost-to-go on the spacetime grid by backward induction.

    V(T, .) = psi_T; V(t_i, r) = min over stencil displacements v of
    dt * L(t_i, r, v/dt) + V(t_{i+1}, r + v).  psi_T lives on the space grid.

    Raises:
        ValueError: If psi_T is not on the problem's space grid.
    """
    if psi_T.domain != problem.space_points():
        raise ValueError("terminal cost must live on the problem's space grid")
    step = _stepper(problem, problem.dt * problem._stencil_costs(), 1)
    slices = np.empty((problem.n_time, *problem.space_shape))
    slices[-1] = psi_T.values.reshape(problem.space_shape)
    for i in range(problem.n_time - 2, -1, -1):
        step(slices[i + 1], slices[i])
    return GridFunction._adopt(problem.spacetime_points(), slices.reshape(-1))


def lift_terminal(problem: MaupertuisProblem, psi_T: GridFunction) -> GridFunction:
    """psi_T on the final slice, +inf on every earlier slice."""
    if psi_T.domain != problem.space_points():
        raise ValueError("terminal cost must live on the problem's space grid")
    values = np.full(problem.n_time * problem.n_space, POS_INF)
    values[-problem.n_space :] = psi_T.values
    return GridFunction._adopt(problem.spacetime_points(), values)


def _sweep(
    problem: MaupertuisProblem, costs: np.ndarray, g: np.ndarray, sign: int
) -> np.ndarray:
    """Min-plus sweep of ``g`` (shape (n_time, *space_shape)) along time.

    h_i = min(g_i, step(h_{i+sign})) with one ``_stepper`` in direction
    ``sign``, starting from the last slice for sign = +1 (backward: h_i is
    the least of g_j plus the path cost from (t_i, r) to (t_j, s), j >= i)
    and from the first slice for sign = -1 (forward: the same over paths
    from (t_j, s) to (t_i, r), j <= i).  Returns a new array.
    """
    h = np.array(g, dtype=float)
    step, stepped = _stepper(problem, costs, sign), np.empty(problem.space_shape)
    for i in range(len(h) - 2, -1, -1) if sign > 0 else range(1, len(h)):
        np.minimum(h[i], step(h[i + sign], stepped), out=h[i])
    return h


def _conjugate(problem: MaupertuisProblem, costs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sesquilinear conjugate of ``g`` under the symmetric least-action kernel.

    max_y b(x, y) - g(y) with b(x, y) = -(least path cost between x and y)
    in either time order is -min(backward sweep, forward sweep) of g.
    """
    out = _sweep(problem, costs, g, 1)
    np.minimum(out, _sweep(problem, costs, g, -1), out=out)
    return np.negative(out, out=out)


def largest_subsolution_check(
    problem: MaupertuisProblem,
    psi_T: GridFunction,
    tol: float = 1e-9,
) -> bool:
    """Verify the extremal characterization of the value function on the grid.

    Checks, with V the backward-induction cost-to-go and B the symmetric
    least-action kernel:

    1. -V lies in the max-plus range of B (double conjugation fixes it);
    2. -V equals the sesquilinear conjugate of the terminal cost lifted by
       +inf off the final slice;
    3. -V is the least range element of the causal kernel whose final slice
       is pinned to the negated terminal cost: the one generated from -inf
       off the final slice equals -V.  Every other pinned generator lies
       above that one, and the causal image is monotone, so every pinned
       range element dominates -V.

    No kernel is built: the conjugate under B is -min of a backward and a
    forward stencil sweep, and the causal kernel's linear map of
    f is -(backward sweep of -f), so the check costs O(nt * ns * |S|) time
    and a few spacetime-sized arrays.  Conditions 2 and 3 reduce to sweep
    identities: the forward sweep of the lifted terminal cost is the lifted
    cost itself, and both backward sweeps are the recursion of
    ``value_function``.  The dense composition over ``maupertuis_dp``,
    ``conj_sesqui`` and ``apply_linear`` survives as the test oracle.

    Returns True iff all three hold.

    Raises:
        PreconditionError: After conditions 1 and 2 hold, if some path of
            1 .. nt-1 steps has negative cost (the causal kernel then has a
            positive entry, which ``asymmetrize`` refuses).
    """
    costs = problem.dt * problem._stencil_costs()
    shape = (problem.n_time, *problem.space_shape)
    neg_v = -value_function(problem, psi_T).values.reshape(shape)

    bicon = _conjugate(problem, costs, _conjugate(problem, costs, neg_v))
    if not ext_close(bicon, neg_v, tol).all():
        return False
    del bicon

    lifted = lift_terminal(problem, psi_T).values.reshape(shape)
    if not ext_close(_conjugate(problem, costs, lifted), neg_v, tol).all():
        return False

    step = _stepper(problem, costs, 1)
    least = np.zeros(problem.space_shape)  # least cost of k-step paths from r
    for _ in range(problem.n_time - 1):
        step(least, least)
        if (least < 0).any():
            raise PreconditionError("asymmetrize requires nonpositive kernel values")

    # The -inf-floored generator is -lifted, so its causal image is
    # -(backward sweep of lifted).
    attained = np.negative(_sweep(problem, costs, lifted, 1))
    return bool(ext_close(attained, neg_v, tol).all())


def space_slice_kernel(
    problem: MaupertuisProblem, start: int = 0, stop: int | None = None
) -> GramKernel:
    """The two-slice kernel b((t_start, r), (t_stop, rho)) on the space grid.

    A square (generally asymmetric, non-idempotent) kernel over the space
    lattice: minus the minimal path cost from slice ``start`` to slice
    ``stop`` (default: the final slice).

    Raises:
        SizeError: If the space grid has more than 10^6 pairs.
    """
    nt, ns = problem.n_time, problem.n_space
    if stop is None:
        stop = nt - 1
    if not (0 <= start < stop < nt):
        raise ValueError("need time indices 0 <= start < stop < n_time")
    if ns * ns > PAIR_GUARD:
        raise SizeError(f"{ns}^2 space pairs exceed the guard of {PAIR_GUARD}")
    for power in _least_actions(problem, stop - start):
        pass  # only the last power is kept
    return GramKernel._adopt(problem.space_points(), -power.reshape(ns, ns))


@dataclass(frozen=True)
class TerminalCostResult:
    """Outcome of terminal-cost reconstruction from value samples.

    Attributes:
        feasible: Whether the samples are consistent with some terminal cost.
        witnesses: One final-slice anchor point per sample (None if
            infeasible).
        witness_indices: Their indices on the space grid.
        psi_T: The reconstructed terminal cost: b(r_m, p_m) - y_m at each
            witness (least over coinciding witnesses), +inf elsewhere.
        blocking_index: First sample with no valid anchor, when infeasible.
    """

    feasible: bool
    witnesses: tuple[Point, ...] | None
    witness_indices: tuple[int, ...] | None
    psi_T: GridFunction | None
    blocking_index: int | None


def invert_terminal_cost(
    samples: SampleSet, space_kernel: GramKernel, tol: float = 1e-9
) -> TerminalCostResult:
    """Reconstruct a terminal cost from negated value samples at one time.

    Samples pair initial-slice space points r_m with targets
    y_m = -V(t_start, r_m); the kernel is the two-slice kernel from
    ``space_slice_kernel``.  A witness search over the candidate final-slice
    points either certifies infeasibility (data inconsistent with any
    terminal cost for this kernel) or yields anchors p_m, from which

        psi_T(rho) = min over {m : p_m = rho} of b(r_m, p_m) - y_m,

    +inf off the witness set.  The cost-to-go regenerated from psi_T
    interpolates the samples exactly.
    """
    wit = feasible_witnesses(samples, space_kernel, tol=tol)
    if not wit.feasible:
        return TerminalCostResult(False, None, None, None, wit.blocking_index)
    grid = space_kernel.points
    at = np.array(wit.witness_indices)
    if samples.dual_candidates != grid:
        at = grid.indices(samples.dual_candidates.as_array())[at]
    values = np.diag(wit.sections) - samples.ys
    # Least value per witness; the stable sort keeps the earlier of 0.0 and -0.0.
    order = np.lexsort((values, at))
    _, first = np.unique(at[order], return_index=True)
    psi = np.full(len(grid), POS_INF)
    psi[at[order][first]] = values[order][first]
    return TerminalCostResult(
        True, wit.witnesses, wit.witness_indices, GridFunction(grid, psi), None
    )
