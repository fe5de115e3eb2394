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

The dynamic programming runs as stencil shifts: one step is the minimum of
the |S| shifted copies of a slice plus their step costs, so a value function
costs O(nt * ns * |S|) time and O(ns) memory per slice, and the kernels come
from the nt - 1 powers of that step (the running cost ignores t).

For state-independent convex L the continuum least action has the closed
form -(t1 - t0) * L((r1 - r0)/(t1 - t0)); the grid kernel converges to it as
the lattice is refined at fixed time step.

The inverse workflows recover cost data from sampled values of the optimal
cost-to-go: a stopping cost on the grid (via the interpolation machinery
with anchors at the sample sites) or a terminal cost at the final time (via
witness search over the final slice).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import (
    NEG_INF,
    POS_INF,
    GridFunction,
    Point,
    PointSet,
    PreconditionError,
    SizeError,
    as_point,
    ext_close,
    validate_values,
)
from .conjugation import ConjugationOp, apply_linear, conj_sesqui, is_in_range
from .kernels import GramKernel, gram_on
from .representer import SampleSet, feasible_witnesses

PAIR_GUARD = 10**6


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

    def __post_init__(self) -> None:
        if self.name not in ("quadratic", "absolute", "table"):
            raise ValueError(f"unknown running-cost form {self.name!r}")
        if self.name == "table":
            if not self.velocities or self.costs is None:
                raise ValueError("table form requires velocities and costs")
            if len(self.velocities) != len(self.costs):
                raise ValueError("one cost per tabulated velocity is required")
            vels = tuple(as_point(v) for v in self.velocities)
            costs = tuple(float(c) for c in self.costs)
            if any(math.isnan(c) or c == POS_INF or c == NEG_INF for c in costs):
                raise ValueError("table costs must be finite")
            object.__setattr__(self, "velocities", vels)
            object.__setattr__(self, "costs", costs)

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
        hits = np.zeros((len(v), len(self.velocities)), dtype=bool)
        for j, tab_v in enumerate(self.velocities):
            if len(tab_v) == v.shape[1]:
                hits[:, j] = (np.abs(np.array(tab_v) - v) <= 1e-9).all(axis=1)
        found = hits.any(axis=1)
        if not found.all():
            target = tuple(float(c) for c in v[np.argmin(found)])
            raise ValueError(f"velocity {target} is not tabulated")
        return np.array(self.costs)[np.argmax(hits, axis=1)]

    @classmethod
    def from_spec(cls, spec: Mapping[str, object] | "LagrangianSpec") -> "LagrangianSpec":
        """Build from a JSON-style mapping {"name": ..., ...}."""
        if isinstance(spec, LagrangianSpec):
            return spec
        name = spec.get("name")
        if name == "table":
            return cls(
                "table",
                velocities=tuple(as_point(v) for v in spec["velocities"]),
                costs=tuple(float(c) for c in spec["costs"]),
                convex_flag=bool(spec.get("convex", False)),
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
    _offsets: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        times = validate_values(self.time_grid, "time grid").reshape(-1)
        if len(times) < 2:
            raise ValueError("time grid needs at least two points")
        if not np.isfinite(times).all():
            raise ValueError("time grid must be finite")
        steps = np.diff(times)
        if steps.min() <= 0:
            raise ValueError("time grid must be strictly increasing")
        if np.abs(steps - steps[0]).max() > 1e-9 * max(1.0, abs(steps[0])):
            raise ValueError("time grid must be uniform")
        times = times.copy()
        times.setflags(write=False)
        object.__setattr__(self, "time_grid", times)

        axes = []
        for ax in self.space_axes:
            ax = validate_values(ax, "space axis").reshape(-1)
            if not np.isfinite(ax).all():
                raise ValueError("space axes must be finite")
            if len(ax) > 1:
                d = np.diff(ax)
                if d.min() <= 0:
                    raise ValueError("space axes must be strictly increasing")
                if np.abs(d - d[0]).max() > 1e-9 * max(1.0, abs(d[0])):
                    raise ValueError("space axes must be uniform")
            ax = ax.copy()
            ax.setflags(write=False)
            axes.append(ax)
        if not axes:
            raise ValueError("at least one space axis is required")
        object.__setattr__(self, "space_axes", tuple(axes))

        sten = tuple(as_point(v) for v in self.stencil)
        if not sten:
            raise ValueError("stencil must be nonempty")
        dim = len(axes)
        offsets = []
        for v in sten:
            if len(v) != dim:
                raise ValueError("stencil displacements must match space dim")
            off = []
            for j, c in enumerate(v):
                step = self.space_step(j)
                k = c / step
                if abs(k - round(k)) > 1e-6:
                    raise ValueError(
                        f"stencil displacement {v} is not a lattice displacement"
                    )
                off.append(int(round(k)))
            offsets.append(tuple(off))
        object.__setattr__(self, "stencil", sten)
        object.__setattr__(self, "_offsets", tuple(offsets))

        if self.claim_reversible:
            have = set(offsets)
            for off in offsets:
                if tuple(-k for k in off) not in have:
                    raise ValueError(
                        "reversibility claimed but stencil is not symmetric"
                    )
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
        pts = [tuple(c) for c in itertools.product(*[map(float, ax) for ax in self.space_axes])]
        return PointSet(tuple(pts))

    def spacetime_points(self) -> PointSet:
        """(t, r...) points, time-major, each time block in space order."""
        space = self.space_points().points
        pts = tuple(
            (float(t), *r) for t in self.time_grid for r in space
        )
        return PointSet(pts, has_time=True)

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
        sten_raw = spec["stencil"]
        stencil = tuple(as_point(v) for v in sten_raw)
        return cls(
            time_grid=time_grid,
            space_axes=axes,
            lagrangian=LagrangianSpec.from_spec(spec.get("lagrangian", {"name": "quadratic"})),
            stencil=stencil,
            claim_reversible=bool(spec.get("reversible", True)),
            require_nonneg=bool(spec.get("require_nonneg", True)),
        )


def _parse_grid(g) -> np.ndarray:
    if isinstance(g, Mapping):
        return np.linspace(float(g["start"]), float(g["stop"]), int(g["num"]))
    return np.asarray(list(g), dtype=float)


def _stencil_step(
    problem: MaupertuisProblem, costs: np.ndarray, arr: np.ndarray, sign: int
) -> np.ndarray:
    """One DP step over the trailing space axes of ``arr``.

    out[..., r] = min over stencil displacements v of
    arr[..., r + sign*v] + costs[v]; +inf where no displacement stays on
    the lattice.  ``costs`` holds dt * L(v/dt), which is finite, so the
    plain sum never meets (+inf) + (-inf).
    """
    shape = problem.space_shape
    out = np.full(arr.shape, POS_INF)
    for off, cost in zip(problem._offsets, costs):
        dst, src = [Ellipsis], [Ellipsis]
        for n, k in zip(shape, off):
            k, size = sign * k, max(0, n - abs(k))
            dst.append(slice(max(0, -k), max(0, -k) + size))
            src.append(slice(max(0, k), max(0, k) + size))
        view = out[tuple(dst)]
        np.minimum(view, arr[tuple(src)] + cost, out=view)
    return out


def _least_actions(problem: MaupertuisProblem, upto: int) -> Iterator[np.ndarray]:
    """Yield P_1 .. P_upto, P_k[a, b] the minimal cost of a k-step path a -> b.

    Each power has shape (n_space, *space_shape).  The start is the min-plus
    identity with -0.0, the exact additive identity, on its diagonal.
    """
    ns = problem.n_space
    costs = problem.dt * problem._stencil_costs()
    power = np.where(np.eye(ns, dtype=bool), -0.0, POS_INF).reshape(ns, *problem.space_shape)
    for _ in range(upto):
        power = _stencil_step(problem, costs, power, -1)
        yield power


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
    return GramKernel(problem.spacetime_points(), matrix)


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
    t = np.array([p[0] for p in gram.points])
    matrix = np.where(t[None, :] < t[:, None], NEG_INF, gram.matrix)
    return GramKernel(gram.points, matrix)


def value_function(problem: MaupertuisProblem, psi_T: GridFunction) -> GridFunction:
    """Optimal cost-to-go on the spacetime grid by backward induction.

    V(T, .) = psi_T; V(t_i, r) = min over stencil displacements v of
    dt * L(t_i, r, v/dt) + V(t_{i+1}, r + v).  psi_T lives on the space grid.

    Raises:
        ValueError: If psi_T is not on the problem's space grid.
    """
    if psi_T.domain != problem.space_points():
        raise ValueError("terminal cost must live on the problem's space grid")
    costs = problem.dt * problem._stencil_costs()
    slices = [psi_T.values.reshape(problem.space_shape)]
    for _ in range(problem.n_time - 1):
        slices.append(_stencil_step(problem, costs, slices[-1], 1))
    values = np.concatenate([s.ravel() for s in reversed(slices)])
    return GridFunction(problem.spacetime_points(), values)


def lift_terminal(problem: MaupertuisProblem, psi_T: GridFunction) -> GridFunction:
    """psi_T on the final slice, +inf on every earlier slice."""
    if psi_T.domain != problem.space_points():
        raise ValueError("terminal cost must live on the problem's space grid")
    values = np.full(problem.n_time * problem.n_space, POS_INF)
    values[-problem.n_space :] = psi_T.values
    return GridFunction(problem.spacetime_points(), values)


def largest_subsolution_check(
    problem: MaupertuisProblem,
    psi_T: GridFunction,
    n_random: int = 20,
    seed: int = 0,
    tol: float = 1e-9,
) -> bool:
    """Verify the extremal characterization of the value function on the grid.

    Checks, with V the backward-induction cost-to-go and B the symmetric
    least-action kernel:

    1. -V lies in the max-plus range of B (double conjugation fixes it);
    2. -V equals the sesquilinear conjugate of the terminal cost lifted by
       +inf off the final slice;
    3. every sampled range element of the causal kernel whose final slice is
       pinned to the negated terminal cost dominates -V pointwise;
    4. the dominance is attained (the pinned element generated from -inf off
       the final slice equals -V).

    Returns True iff all four hold.
    """
    gram = maupertuis_dp(problem)
    pts = gram.points
    op = ConjugationOp(gram, pts)
    v = value_function(problem, psi_T)
    neg_v = GridFunction(pts, -v.values)

    if not is_in_range(op, neg_v, tol=tol).in_range:
        return False

    lifted = lift_terminal(problem, psi_T)
    conj = conj_sesqui(op, lifted)
    if not ext_close(conj.values, neg_v.values, tol).all():
        return False

    asym = asymmetrize(gram)
    op_asym = ConjugationOp(asym, pts)
    ns = problem.n_space
    pinned_slice = -np.asarray(psi_T.values, dtype=float)
    rng = np.random.default_rng(seed)
    slop = max(tol, 1e-12)
    for _ in range(n_random):
        a = rng.normal(0.0, 2.0, len(pts))
        a[-ns:] = pinned_slice
        candidate = apply_linear(op_asym, GridFunction(pts, a))
        if not np.all(candidate.values >= neg_v.values - slop):
            return False

    floor_gen = np.full(len(pts), NEG_INF)
    floor_gen[-ns:] = pinned_slice
    attained = apply_linear(op_asym, GridFunction(pts, floor_gen))
    return bool(ext_close(attained.values, neg_v.values, tol).all())


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
    return GramKernel(problem.space_points(), -power.reshape(ns, ns))


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
    at = np.array([grid.index_of(p) for p in wit.witnesses])
    values = gram_on(space_kernel, samples.xs, grid)[np.arange(len(at)), at] - samples.ys
    # Least value per witness; the stable sort keeps the earlier of 0.0 and -0.0.
    order = np.lexsort((values, at))
    _, first = np.unique(at[order], return_index=True)
    psi = np.full(len(grid), POS_INF)
    psi[at[order][first]] = values[order][first]
    return TerminalCostResult(
        True, wit.witnesses, wit.witness_indices, GridFunction(grid, psi), None
    )
