"""Interpolation and regression with max-plus kernel sections.

Given samples (x_m, y_m) and a candidate anchor p for sample m, the data
admits an interpolant built from kernel sections anchored at the p_m exactly
when the exchange inequalities

    y_n - y_m >= b(x_n, p_m) - b(x_m, p_m)      (lower difference)

hold for all n.  A valid anchor additionally needs b(x_m, p_m) finite so the
section can reproduce y_m.  The canonical interpolant is then

    f0(x) = max_m  b(x, p_m) - b(x_m, p_m) + y_m,

the largest function below the data that this form can produce, and it
matches the data exactly.

Every anchor decision is read from the one table b(x_k, p) over the samples
and the dual candidates.  Whether p can serve sample m depends on p alone
through the principal solution min_k (y_k - b(x_k, p)) of the max-plus
column span of b(., p) (Cuninghame-Green, Minimax Algebra, 1979; Butkovic,
Max-linear Systems, 2010), so all samples are decided at once.

With anchors fixed, the exchange inequalities are difference constraints
y_n - y_m >= c on the targets, so regression (minimally perturbing the y's
into feasibility) reduces to one max-plus closure D of the constraint gaps.
A cycle whose gaps sum, exactly, to more than 0 certifies infeasibility;
otherwise both fits are read off D exactly: the sup-norm fit in closed
form, the l1 fit as the potentials of a min-cost flow on the dual.  Over
all anchors, the targets some assignment reproduces form the column span
itself, so the best sup-norm fit is the Chebyshev distance to it, read from
the same principal solution.  An l1 anchor search enumerates assignments,
dropping those with a positive two-cycle before it closes any system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    NEG_INF,
    POS_INF,
    GridFunction,
    Point,
    PointSet,
    PreconditionError,
    as_point,
    lower_add_arrays,
)
from .kernels import KernelRep, gram_on
from .linear_theory import is_idempotent


class InfeasibleConstraintsError(RuntimeError):
    """Raised when a task requires a feasible system but none exists.

    ``cycle`` lists constraints whose gaps sum, exactly, to more than 0;
    ``blocking_index`` is the first sample (0-based) no candidate can serve.
    """

    def __init__(self, message: str, cycle: list[int] | None = None,
                 blocking_index: int | None = None) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.blocking_index = blocking_index


@dataclass(frozen=True)
class SampleSet:
    """Interpolation data: sites, finite targets, and candidate dual points.

    Attributes:
        xs: The sample points (distinct).
        ys: Finite target values, aligned with xs.
        dual_candidates: Candidate points the kernel sections may be
            anchored at (the dual grid).
    """

    xs: PointSet
    ys: np.ndarray
    dual_candidates: PointSet

    def __post_init__(self) -> None:
        ys = np.asarray(self.ys, dtype=float).reshape(-1)
        if len(ys) != len(self.xs):
            raise ValueError("one target per sample point is required")
        if len(ys) == 0:
            raise ValueError("at least one sample is required")
        if not np.isfinite(ys).all():
            raise ValueError("targets must be finite")
        if len(self.dual_candidates) == 0:
            raise ValueError("dual candidate set must be nonempty")
        ys = ys.copy()
        ys.setflags(write=False)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of the per-sample anchor search.

    Attributes:
        feasible: True iff every sample has at least one valid anchor.
        witnesses: One chosen anchor point per sample (None if infeasible).
        witness_indices: Indices of the chosen anchors within the candidate
            set (None if infeasible).
        blocking_index: If infeasible, the first sample index (0-based) that
            no candidate anchor can serve.
    """

    feasible: bool
    witnesses: tuple[Point, ...] | None
    witness_indices: tuple[int, ...] | None
    blocking_index: int | None


def feasible_witnesses(
    samples: SampleSet, kernel: KernelRep, tol: float = 1e-9
) -> WitnessResult:
    """Choose one anchor per sample from the candidates, or report the first
    sample that none can serve.

    With u[k, p] = y_k - b(x_k, p) (+inf where b is -inf, a vacuous
    constraint), candidate p is valid for sample m when b(x_m, p) is finite
    and y_k - y_m >= b(x_k, p) - b(x_m, p) - tol for every k, that is
    min_k u[k, p] - u[m, p] >= -tol.  The constraint set decomposes across m
    because the anchor of sample m only enters constraints with m on the
    right.  Among valid candidates the one with the smallest total slack
    sum_k u[k, p] - n u[m, p] is chosen, ties (also at +inf) broken by
    lowest candidate index.  In exact arithmetic this is the per-sample
    rule on y_k - y_m - (b(x_k, p) - b(x_m, p)); on floats that are not
    exact (neither integers nor dyadic) a candidate within rounding of the
    -tol boundary, or a near-tie of totals, may resolve either way.
    """
    n = len(samples)
    bxp = gram_on(kernel, samples.xs, samples.dual_candidates)  # (n, n_cand)
    valid = _projection(bxp, samples.ys)[0] >= -tol
    u = samples.ys[:, None] - bxp
    # NaN (inf - inf) only where b(x_m, p) is -inf, which is never valid.
    with np.errstate(invalid="ignore"):
        totals = u.sum(axis=0) - n * u
    blocked = np.flatnonzero(~valid.any(axis=1))
    if blocked.size:
        return WitnessResult(False, None, None, int(blocked[0]))
    least = np.where(valid, totals, POS_INF).min(axis=1, keepdims=True)
    chosen = np.argmax(valid & (totals == least), axis=1).tolist()
    points = tuple(samples.dual_candidates.points[k] for k in chosen)
    return WitnessResult(True, points, tuple(chosen), None)


def _projection(bxp: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slack s[k, p] = a_p - u[k, p] <= 0 of the principal solution
    a_p = min_j u[j, p], u = y - b(x, p) (+inf, and s -inf, where b is -inf),
    and per sample the candidate attaining max_p s[k, p], ties going to the
    least exchange-gap mass sum_j b(x_j, p) - n b(x_k, p), then the lowest
    index.  z = y + max_p s is the greatest point of the column span below y.
    """
    n = len(y)
    u = y[:, None] - bxp
    # inf - inf only where b(x_k, p) is -inf, which both results mask.
    with np.errstate(invalid="ignore"):
        slack = np.where(bxp > NEG_INF, u.min(axis=0) - u, NEG_INF)
        mass = bxp.sum(axis=0) - n * bxp
    attained = slack == slack.max(axis=1, keepdims=True)
    return slack, np.where(attained, mass, POS_INF).argmin(axis=1)


@dataclass(frozen=True)
class CanonicalInterpolant:
    """Max of kernel sections: f0(x) = max_m b(x, p_m) + offset_m.

    Attributes:
        kernel: The kernel whose sections are combined.
        anchor_points: The section centres p_m, as given.
        offsets: Finite shifts, offset_m = y_m - b(x_m, p_m).
        points: The centres through ``as_point``; derived unless given.
    """

    kernel: KernelRep
    anchor_points: tuple[Point, ...]
    offsets: tuple[float, ...]
    points: tuple[Point, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.points is None:
            object.__setattr__(self, "points", tuple(as_point(p) for p in self.anchor_points))

    @property
    def terms(self) -> tuple[tuple[Point, float], ...]:
        """The (anchor, offset) pairs defining the max of sections."""
        return tuple(zip(self.anchor_points, self.offsets))

    def __call__(self, x: Point) -> float:
        return float(self.on_grid(PointSet((as_point(x),))).values[0])

    def on_grid(self, domain: PointSet) -> GridFunction:
        sections = _sections(self.kernel, domain, self.points)
        terms = lower_add_arrays(sections, np.array(self.offsets))
        # The first maximal term, as a running max keeps it (a tie of 0.0
        # and -0.0 resolves by order, not by the reduction's lane layout).
        return GridFunction(domain, terms[np.arange(len(domain)), terms.argmax(axis=1)])


def _sections(
    kernel: KernelRep, xs: PointSet, anchors: tuple[Point, ...]
) -> np.ndarray:
    """[b(x, p_m)] for x in ``xs`` and each anchor p_m (normalized points);
    repeated anchors are read once."""
    column = {p: j for j, p in enumerate(dict.fromkeys(anchors))}
    table = gram_on(kernel, xs, PointSet(tuple(column)))
    return table[:, [column[p] for p in anchors]]


def _exchange_gaps(sections: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Self-evaluations b(x_m, p_m) and gaps[k, m] = b(x_k, p_m) - b(x_m, p_m)
    (lower difference; meaningful where the self-evaluation is finite) from
    sections[k, m] = b(x_k, p_m)."""
    self_eval = np.diag(sections)
    return self_eval, lower_add_arrays(sections, -self_eval)


def build_f0(
    samples: SampleSet,
    witnesses: tuple[Point, ...],
    kernel: KernelRep,
    tol: float = 1e-9,
) -> CanonicalInterpolant:
    """Build the canonical interpolant from one anchor per sample.

    Raises PreconditionError if the anchors do not satisfy the exchange
    inequalities (within tol) or some self-evaluation b(x_m, p_m) is not
    finite; otherwise the result satisfies f0(x_m) = y_m exactly.
    """
    n = len(samples)
    if len(witnesses) != n:
        raise ValueError("one witness per sample is required")
    points = tuple(as_point(p) for p in witnesses)
    y = samples.ys
    self_eval, need = _exchange_gaps(_sections(kernel, samples.xs, points))
    finite = np.isfinite(self_eval)
    violated = y[:, None] - y[None, :] < need - tol  # [k, m]
    failing = np.flatnonzero(~finite | violated.any(axis=0))
    if failing.size:
        m = int(failing[0])
        if not finite[m]:
            raise PreconditionError(
                f"witness for sample {m} has non-finite self-evaluation"
            )
        raise PreconditionError(
            f"witness for sample {m} violates the exchange inequality "
            f"against sample {int(np.argmax(violated[:, m]))}"
        )
    offsets = tuple(float(v) for v in y - self_eval)
    return CanonicalInterpolant(kernel, tuple(witnesses), offsets, points)


def _closure(gaps: np.ndarray) -> tuple[np.ndarray, list[int] | None]:
    """Max-plus closure of the constraints y_k - y_m >= gaps[k, m].

    D[k, m] is the largest gap sum along a path from k to m (0 on the
    diagonal, -inf where no path exists), built by one rank-1 update per
    pivot; y satisfies the system exactly when y_k - y_m >= D[k, m] for all
    k, m.  A positive diagonal entry marks a candidate cycle, read back from
    the successor matrix.  If the cycle's gaps, summed exactly with
    math.fsum, are positive, no finite y exists and (D, cycle) is returned;
    otherwise the entry is float drift and is reset to 0.  ``gaps`` holds no
    +inf; its diagonal is ignored.
    """
    n = len(gaps)
    closure = np.array(gaps, dtype=float)
    np.fill_diagonal(closure, 0.0)
    succ = np.tile(np.arange(n), (n, 1))  # succ[k, m]: next node from k to m
    for j in range(n):
        through = closure[:, j, None] + closure[j]
        better = through > closure
        before = succ  # the paths of pivots < j, which the cycle consists of
        closure = np.where(better, through, closure)
        succ = np.where(better, succ[:, j, None], succ)
        for i in np.flatnonzero(np.diag(closure) > 0):
            walk = _path(before, i, j)[:-1] + _path(before, j, i)[:-1]
            cycle = _heaviest_cycle(walk, gaps)
            if cycle is not None:
                return closure, cycle
            closure[i, i] = 0.0
    return closure, None


def _path(succ: np.ndarray, u: int, v: int) -> list[int]:
    """The stored path from u to v (cut after n steps)."""
    path = [int(u)]
    while path[-1] != v and len(path) <= len(succ):
        path.append(int(succ[path[-1], v]))
    return path


def _heaviest_cycle(walk: list[int], gaps: np.ndarray) -> list[int] | None:
    """The simple cycle of a closed walk whose gaps have the largest exact
    (math.fsum) sum, if that sum is positive."""
    best, best_weight = None, 0.0
    stack: list[int] = []
    for v in walk + walk[:1]:
        if v not in stack:
            stack.append(v)
            continue
        k = stack.index(v)
        cycle = stack[k:]
        del stack[k + 1:]
        weight = math.fsum(gaps[a, b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        if weight > best_weight:
            best, best_weight = cycle, weight
    return best


def _greatest_below(closure: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The componentwise-greatest y <= upper with y_k - y_m >= closure[k, m]:
    y_i = min_j upper_j - closure[j, i]."""
    return np.min(upper[:, None] - closure, axis=0)


def _fit_sup_norm(closure: np.ndarray, ybar: np.ndarray) -> np.ndarray:
    """Least sup-norm fit: the greatest feasible y at the exact radius
    eps* = 1/2 max_{k,m} (D[k, m] - (ybar_k - ybar_m)), the least eps at
    which the box [ybar - eps, ybar + eps] meets the system (the diagonal
    keeps eps* >= 0)."""
    eps = 0.5 * float(np.max(closure - np.subtract.outer(ybar, ybar)))
    return _greatest_below(closure, ybar + eps)


def _fit(closure: np.ndarray, ybar: np.ndarray, loss: str) -> tuple[np.ndarray, float]:
    """The fitted targets for ``loss`` and their distance from ``ybar``."""
    fitted = (_fit_sup_norm if loss == "sup_norm" else _fit_l1)(closure, ybar)
    deviation = np.abs(fitted - ybar)
    return fitted, float(deviation.max() if loss == "sup_norm" else deviation.sum())


def _fit_l1(closure: np.ndarray, ybar: np.ndarray) -> np.ndarray:
    """Least l1 fit, as the node potentials of a min-cost flow on n + 1 nodes.

    Arcs k -> m cost -D[k, m] with no capacity; root arcs r -> i cost
    ybar_i and i -> r cost -ybar_i, with capacity 1 each.  Potentials pi with
    reduced cost c + pi_u - pi_v >= 0 on every residual arc of an optimal
    flow solve the dual, min sum |y_i - ybar_i| s.t. y_k - y_m >= D[k, m],
    by y_i = pi_i - pi_r.  The start is the greatest feasible point below
    ybar; its negative root arcs i -> r are saturated, and each unit they owe
    is sent from r along a shortest path of reduced costs (dense Dijkstra),
    so at most n augmentations finish the flow.
    """
    n = len(ybar)
    root = n
    cost = np.full((n + 1, n + 1), POS_INF)
    cost[:n, :n] = -closure
    cost[root, :n], cost[:n, root] = ybar, -ybar
    capacity = np.full((n + 1, n + 1), POS_INF)
    capacity[root], capacity[:, root] = 1.0, 1.0
    potential = np.append(_greatest_below(closure, ybar), 0.0)
    owing = np.append(potential[:n] < ybar, False)
    flow = np.zeros((n + 1, n + 1))
    flow[:, root] = owing
    for _ in range(int(owing.sum())):
        residual = np.minimum(
            np.where(flow < capacity, cost, POS_INF),
            np.where(flow.T > 0, -cost.T, POS_INF),
        )
        reduced = residual + potential[:, None] - potential[None, :]
        dist = np.full(n + 1, POS_INF)
        dist[root] = 0.0
        pred = np.zeros(n + 1, dtype=int)
        unsettled = np.ones(n + 1, dtype=bool)
        while True:
            u = int(np.argmin(np.where(unsettled, dist, POS_INF)))
            if owing[u]:
                break
            unsettled[u] = False
            through = dist[u] + reduced[u]
            better = unsettled & (through < dist)
            dist[better] = through[better]
            pred[better] = u
        potential += np.minimum(dist, dist[u])
        owing[u] = False
        while u != root:
            v, u = u, int(pred[u])
            if flow[v, u] > 0 and -cost[v, u] == residual[u, v]:
                flow[v, u] -= 1.0  # cancel flow rather than add it
            else:
                flow[u, v] += 1.0
    return potential[:n] - potential[root]


@dataclass(frozen=True)
class RegressionResult:
    """Outcome of kernel-section regression.

    Attributes:
        y_star: The fitted targets, feasible for the final anchors.
        p_star: The anchor points used (fixed or found by search).
        p_indices: Their indices in the candidate set, when the anchors came
            from the candidate set (None for caller-supplied points outside
            it).
        loss_value: sup-norm or l1 distance between fitted and given targets.
        interpolant: Canonical interpolant through the fitted targets.
        exact: True for a sup_norm fit, whose loss is the closed-form
            optimum: over the fixed anchors, or in a search over all
            candidate anchors.  False for an l1 fit, although the fit is
            optimal for its anchors (a min-cost flow) and, within
            SEARCH_ENUMERATION_BUDGET assignments, over all of them.
    """

    y_star: np.ndarray
    p_star: tuple[Point, ...]
    p_indices: tuple[int, ...] | None
    loss_value: float
    interpolant: CanonicalInterpolant
    exact: bool


def regress(
    samples: SampleSet,
    kernel: KernelRep,
    loss: str = "sup_norm",
    fixed_p: tuple[Point, ...] | None = None,
    tol: float = 1e-9,
) -> RegressionResult:
    """Fit targets minimally perturbed into kernel-section feasibility.

    With ``fixed_p`` given (one anchor per sample) the exchange inequalities
    become a difference constraint system, closed once under max-plus paths
    (D), and the fit is exact for those anchors: the sup_norm fit is the
    greatest feasible point at radius eps* = 1/2 max_{k,m} (D[k, m] -
    (ybar_k - ybar_m)), the l1 fit solves a min-cost flow on n + 1 nodes.

    Without ``fixed_p`` the anchors come from the candidate set.  The
    sup_norm fit is the max-plus projection of ybar onto the column span of
    b(x_k, p): z, the greatest span point below ybar, raised by
    eps* = 1/2 max_k (ybar_k - z_k), optimal over all anchors; its anchors
    attain z, a tie going to the least exchange-gap mass.  The l1 search
    fits every assignment without a positive two-cycle, keeping the best
    (a tie within 1e-12 to the least constraining), when there are at most
    SEARCH_ENUMERATION_BUDGET; beyond it, it fits the projection's anchors.

    Raises InfeasibleConstraintsError when fixed anchors admit no fit (with
    a positive cycle) or no candidate can serve a sample (with its index).
    """
    loss = {"sup": "sup_norm"}.get(loss, loss)
    if loss not in ("sup_norm", "l1"):
        raise ValueError("loss must be 'sup_norm' or 'l1'")
    if fixed_p is not None:
        fixed_p = tuple(as_point(p) for p in fixed_p)
        idx = _indices_in(samples.dual_candidates, fixed_p)
        return _regress_fixed(samples, kernel, loss, fixed_p, idx, tol)
    return _regress_search(samples, kernel, loss, tol)


def _indices_in(
    candidates: PointSet, anchors: tuple[Point, ...]
) -> tuple[int, ...] | None:
    try:
        return tuple(candidates.index_of(p) for p in anchors)
    except KeyError:
        return None


def _regress_fixed(
    samples: SampleSet,
    kernel: KernelRep,
    loss: str,
    anchors: tuple[Point, ...],
    anchor_indices: tuple[int, ...] | None,
    tol: float,
) -> RegressionResult:
    if len(anchors) != len(samples):
        raise ValueError("one anchor per sample is required")
    self_eval, gaps = _exchange_gaps(_sections(kernel, samples.xs, anchors))
    np.fill_diagonal(gaps, NEG_INF)
    if not np.isfinite(self_eval).all() or (gaps == POS_INF).any():
        raise InfeasibleConstraintsError(
            "anchors force an unsatisfiable (infinite) exchange gap"
        )
    closure, cycle = _closure(gaps)
    if cycle is not None:
        raise InfeasibleConstraintsError(
            "exchange constraints admit no solution", cycle=cycle
        )
    fitted, loss_value = _fit(closure, samples.ys, loss)
    fitted_samples = SampleSet(samples.xs, fitted, samples.dual_candidates)
    interp = build_f0(fitted_samples, anchors, kernel, tol=max(tol, 1e-6))
    return RegressionResult(
        fitted, anchors, anchor_indices, loss_value, interp,
        exact=(loss == "sup_norm"),
    )


SEARCH_ENUMERATION_BUDGET = 20_000
"""An l1 anchor search enumerates the assignments when there are at most
this many; beyond it the l1 fit takes the sup-norm projection's anchors."""


def _assignments(usable: list[np.ndarray]) -> np.ndarray:
    """Every anchor assignment, one row of candidate indices per assignment,
    in ``itertools.product(*usable)`` order."""
    sizes = [len(u) for u in usable]
    return np.stack([
        np.tile(np.repeat(u, math.prod(sizes[m + 1:])), math.prod(sizes[:m]))
        for m, u in enumerate(usable)
    ], axis=1)


def _drop_two_cycles(bxp: np.ndarray, assignments: np.ndarray) -> np.ndarray:
    """The assignments without a positive two-cycle: for k < m, the gaps
    w = (b(x_k, p_m) - b(x_m, p_m)) + (b(x_m, p_k) - b(x_k, p_k)) may not
    exceed 0.

    Every anchor is usable (b(x_m, p_m) finite), so the plain differences
    below are the gaps' lower differences, and a rounded sum of two floats
    is positive exactly when their exact sum is: the closure rejects every
    assignment dropped here.
    """
    keep = assignments
    for k in range(len(bxp) - 1):
        # t[i, p] = b(x_k, p) - b(x_{k+1+i}, p); NaN (both -inf) is never
        # read, and -t is the gap of sample k+1+i against an anchor of k.
        with np.errstate(invalid="ignore"):
            t = bxp[k] - bxp[k + 1:]
        rows = np.arange(len(t))
        w = t[rows, keep[:, k + 1:]] - t[rows, keep[:, k, None]]
        keep = keep[~(w > 0).any(axis=1)]
    return keep


def _enumerate_l1(bxp: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The anchors of the least l1 fit over every assignment of usable
    anchors (each sample has one), from bxp[k, p] = b(x_k, p)."""
    n = len(y)
    usable = [np.flatnonzero(row > NEG_INF) for row in bxp]
    best: np.ndarray | None = None
    best_loss = best_mass = POS_INF
    for idx in _drop_two_cycles(bxp, _assignments(usable)):
        sections = bxp[:, idx]
        self_eval, gaps = _exchange_gaps(sections)
        np.fill_diagonal(gaps, NEG_INF)
        closure, cycle = _closure(gaps)
        if cycle is not None:
            continue
        _, loss_value = _fit(closure, y, "l1")
        # Exact optima often tie across assignments; a tie goes to the least
        # constraining one, with the smallest total exchange gap
        # sum_{k,m} b(x_k, p_m) - b(x_m, p_m), whatever the enumeration order.
        mass = float(sections.sum() - n * self_eval.sum())
        if best is None or loss_value < best_loss - 1e-12 or (
            loss_value <= best_loss + 1e-12 and mass < best_mass
        ):
            best, best_loss, best_mass = idx, loss_value, mass
    if best is None:
        raise InfeasibleConstraintsError("no anchor assignment is feasible")
    return best


def _regress_search(
    samples: SampleSet, kernel: KernelRep, loss: str, tol: float
) -> RegressionResult:
    candidates = samples.dual_candidates
    bxp = gram_on(kernel, samples.xs, candidates)
    y = samples.ys
    slack, chosen = _projection(bxp, y)
    shortfall = slack.max(axis=1)  # -inf exactly where b(x_k, .) is all -inf
    blocked = np.flatnonzero(shortfall == NEG_INF)
    if blocked.size:
        raise InfeasibleConstraintsError(
            "some sample admits no usable anchor", blocking_index=int(blocked[0])
        )
    if loss == "l1" and len(candidates) ** len(samples) <= SEARCH_ENUMERATION_BUDGET:
        chosen = _enumerate_l1(bxp, y)
    indices = tuple(chosen.tolist())
    anchors = tuple(candidates.points[k] for k in indices)
    if loss == "l1":
        return _regress_fixed(samples, kernel, loss, anchors, indices, tol)
    # z + eps*, as the closure of these anchors gives it, but never meeting a
    # positive cycle that only the rounding of their gaps makes.
    z = y + shortfall
    fitted = z + 0.5 * float((y - z).max())
    interp = build_f0(
        SampleSet(samples.xs, fitted, candidates), anchors, kernel, tol=max(tol, 1e-6)
    )
    loss_value = float(np.abs(fitted - y).max())
    return RegressionResult(fitted, anchors, indices, loss_value, interp, exact=True)


@dataclass(frozen=True)
class StoppingCostResult:
    """Reconstruction of a stopping cost from sampled values.

    Attributes:
        stopping_cost: w on the kernel grid: -y*_m at each sample site, +inf
            elsewhere, so that max_y b(x, y) - w(y) regenerates the fit.
        y_star: The fitted sample values.
        generator: f0(x) = max_m b(x, x_m) + y*_m as an interpolant object.
        loss_value: sup-norm distance between fitted and given values.
    """

    stopping_cost: GridFunction
    y_star: np.ndarray
    generator: CanonicalInterpolant
    loss_value: float


def reconstruct_stopping_cost(
    samples: SampleSet, kernel, tol: float = 1e-9
) -> StoppingCostResult:
    """Recover a stopping cost consistent with sampled optimal values.

    The kernel must be a square idempotent matrix kernel with zero diagonal
    (the closure of a cost structure on its own grid); sample points must lie
    on the kernel grid.  Targets are fitted with anchors at the sample points
    themselves (sup_norm loss), giving f0(x) = max_m b(x, x_m) + y*_m and the
    stopping cost w = -y* on the sample points, +inf elsewhere.
    """
    matrix = kernel.matrix
    points = kernel.points
    if not is_idempotent(matrix, tol=max(tol, 1e-9)):
        raise PreconditionError("kernel matrix must be idempotent")
    if np.abs(np.diag(matrix)).max() > tol:
        raise PreconditionError("kernel matrix must have zero diagonal")
    for x in samples.xs:
        if x not in points:
            raise PreconditionError("sample points must lie on the kernel grid")
    anchors = tuple(samples.xs.points)
    result = _regress_fixed(
        samples, kernel, "sup_norm", anchors, _indices_in(points, anchors), tol
    )
    w_values = np.full(len(points), POS_INF)
    for m, x in enumerate(samples.xs):
        w_values[points.index_of(x)] = -result.y_star[m]
    return StoppingCostResult(
        GridFunction(points, w_values),
        result.y_star,
        result.interpolant,
        result.loss_value,
    )
