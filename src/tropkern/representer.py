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

With anchors fixed, the exchange inequalities are difference constraints
y_n - y_m >= c on the targets, so regression (minimally perturbing the y's
into feasibility) reduces to shortest paths: the solver here is Bellman-Ford
with a box source, returning the componentwise-greatest feasible point or a
negative cycle as an infeasibility certificate.
"""

from __future__ import annotations

import itertools
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
    """Raised when a task requires a feasible system but none exists."""

    def __init__(self, message: str, cycle: list[int] | None = None) -> None:
        super().__init__(message)
        self.cycle = cycle


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
    """Search candidate anchors for each sample and report feasibility.

    For sample m, candidate p is valid when b(x_m, p) is finite and
    y_n - y_m >= b(x_n, p) - b(x_m, p) - tol for every n (lower difference);
    the constraint set decomposes across m because the anchor of sample m
    only enters constraints with m on the right.  Among valid candidates the
    one with the smallest total slack
    sum_n [(y_n - y_m) - (b(x_n, p) - b(x_m, p))] is chosen, ties broken by
    lowest candidate index.  If some sample has no valid candidate the result
    is infeasible and reports the first such sample.
    """
    n = len(samples)
    bxp = gram_on(kernel, samples.xs, samples.dual_candidates)  # (n, n_cand)
    y = samples.ys
    chosen: list[int] = []
    for m in range(n):
        # need[k, p] = b(x_k, p) - b(x_m, p), lower difference.
        need = lower_add_arrays(bxp, -bxp[m][None, :])
        slack = (y - y[m])[:, None] - need
        valid = (slack.min(axis=0) >= -tol) & (bxp[m] > NEG_INF)
        valid_idx = np.flatnonzero(valid)
        if len(valid_idx) == 0:
            return WitnessResult(False, None, None, m)
        # Valid columns have every slack >= -tol, so each sum is finite or
        # +inf (vacuous constraints), never NaN; argmin keeps the lowest
        # index on ties, including the all-vacuous case.
        totals = np.array([slack[:, j].sum() for j in valid_idx])
        chosen.append(int(valid_idx[int(np.argmin(totals))]))
    points = tuple(samples.dual_candidates.points[k] for k in chosen)
    return WitnessResult(True, points, tuple(chosen), None)


@dataclass(frozen=True)
class CanonicalInterpolant:
    """Max of kernel sections: f0(x) = max_m b(x, p_m) + offset_m.

    Attributes:
        kernel: The kernel whose sections are combined.
        anchor_points: The section centres p_m.
        offsets: Finite shifts, offset_m = y_m - b(x_m, p_m).
    """

    kernel: KernelRep
    anchor_points: tuple[Point, ...]
    offsets: tuple[float, ...]

    @property
    def terms(self) -> tuple[tuple[Point, float], ...]:
        """The (anchor, offset) pairs defining the max of sections."""
        return tuple(zip(self.anchor_points, self.offsets))

    def __call__(self, x: Point) -> float:
        return float(self.on_grid(PointSet((as_point(x),))).values[0])

    def on_grid(self, domain: PointSet) -> GridFunction:
        sections = _sections(self.kernel, domain, self.anchor_points)
        terms = lower_add_arrays(sections, np.array(self.offsets))
        # The first maximal term, as a running max keeps it (a tie of 0.0
        # and -0.0 resolves by order, not by the reduction's lane layout).
        return GridFunction(domain, terms[np.arange(len(domain)), terms.argmax(axis=1)])


def _sections(
    kernel: KernelRep, xs: PointSet, anchors: tuple[Point, ...]
) -> np.ndarray:
    """[b(x, p_m)] for x in ``xs`` and each anchor p_m; repeated anchors are
    read once."""
    points = [as_point(p) for p in anchors]
    column = {p: j for j, p in enumerate(dict.fromkeys(points))}
    table = gram_on(kernel, xs, PointSet(tuple(column)))
    return table[:, [column[p] for p in points]]


def _exchange_gaps(
    samples: SampleSet, kernel: KernelRep, anchors: tuple[Point, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Self-evaluations b(x_m, p_m) and gaps[k, m] = b(x_k, p_m) - b(x_m, p_m)
    (lower difference; meaningful where the self-evaluation is finite)."""
    sections = _sections(kernel, samples.xs, anchors)
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
    y = samples.ys
    self_eval, need = _exchange_gaps(samples, kernel, witnesses)
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
    return CanonicalInterpolant(kernel, tuple(witnesses), offsets)


@dataclass(frozen=True)
class DifferenceConstraintSystem:
    """Constraints y_n - y_m >= c with optional per-variable boxes.

    Attributes:
        n_vars: Number of variables.
        constraints: Triples (n, m, c) encoding y_n - y_m >= c.  A +inf gap
            is rejected (unsatisfiable by finite values); -inf gaps are
            vacuous and dropped.
        lower: Per-variable lower bounds (-inf where absent).
        upper: Per-variable upper bounds (+inf where absent).
    """

    n_vars: int
    constraints: tuple[tuple[int, int, float], ...]
    lower: np.ndarray = field(default=None)  # type: ignore[assignment]
    upper: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.n_vars <= 0:
            raise ValueError("at least one variable is required")
        kept = []
        for n, m, c in self.constraints:
            if not (0 <= n < self.n_vars and 0 <= m < self.n_vars):
                raise ValueError("constraint index out of range")
            c = float(c)
            if np.isnan(c):
                raise ValueError("constraint gap must not be NaN")
            if c == POS_INF:
                raise ValueError(
                    "a +inf gap admits no finite solution; reject at construction"
                )
            if c == NEG_INF or (n == m and c <= 0):
                continue
            if n == m:
                raise ValueError("self-constraint with positive gap is infeasible")
            kept.append((int(n), int(m), c))
        object.__setattr__(self, "constraints", tuple(kept))
        lower = self._coerce_bound(self.lower, NEG_INF)
        upper = self._coerce_bound(self.upper, POS_INF)
        if (lower == POS_INF).any():
            raise ValueError("lower bounds must be < +inf")
        if (upper == NEG_INF).any():
            raise ValueError("upper bounds must be > -inf")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def _coerce_bound(self, bound, default: float) -> np.ndarray:
        if bound is None:
            arr = np.full(self.n_vars, default)
        else:
            arr = np.asarray(bound, dtype=float).reshape(-1).copy()
            if len(arr) != self.n_vars:
                raise ValueError("one bound per variable is required")
            if np.isnan(arr).any():
                raise ValueError("bounds must not be NaN")
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class DCSolution:
    """Solver outcome for a difference constraint system.

    Attributes:
        feasible: Whether a solution exists.
        assignment: If feasible, a finite solution; componentwise greatest
            among solutions respecting the boxes (coordinates the system
            leaves unbounded above are anchored at a finite level derived
            from the data, as documented on the solver).
        negative_cycle: If infeasible, variable indices along a cycle whose
            constraint gaps cannot all hold; -1 stands for the box anchor
            node when the conflict involves box bounds.
    """

    feasible: bool
    assignment: np.ndarray | None
    negative_cycle: list[int] | None


def solve_difference_constraints(system: DifferenceConstraintSystem) -> DCSolution:
    """Solve y_n - y_m >= c with boxes via Bellman-Ford shortest paths.

    Writing each constraint as y_m <= y_n - c and each box as
    lo_i <= y_i <= hi_i, the shortest-path distances from a virtual source
    (connected by the box edges) are the componentwise-greatest solution; a
    negative cycle certifies infeasibility.  Coordinates with no upper bound
    reachable at all are anchored at a finite level exceeding every real
    bound chain, so the returned assignment is finite; any larger value
    would also be feasible on those coordinates.
    """
    n = system.n_vars
    source = n
    edges: list[tuple[int, int, float]] = []
    for a, m, c in system.constraints:
        edges.append((a, m, -c))
    for i in range(n):
        if system.upper[i] < POS_INF:
            edges.append((source, i, float(system.upper[i])))
        if system.lower[i] > NEG_INF:
            edges.append((i, source, -float(system.lower[i])))

    dist, cycle = _bellman_ford(n + 1, source, edges)
    if cycle is not None:
        return DCSolution(False, None, [(-1 if v == source else v) for v in cycle])

    unbounded = [i for i in range(n) if dist[i] == POS_INF]
    if unbounded:
        # The anchor level exceeds any real bound chain by more than the sum
        # of all edge magnitudes, so anchored paths never undercut the true
        # distances of bounded coordinates.
        finite_parts = [dist[i] for i in range(n) if dist[i] < POS_INF]
        finite_parts.extend(x for x in system.lower if np.isfinite(x))
        finite_parts.extend(x for x in system.upper if np.isfinite(x))
        finite_parts.extend(c for _, _, c in system.constraints)
        anchor = 1.0 + sum(abs(x) for x in finite_parts)
        for i in unbounded:
            edges.append((source, i, anchor))
        dist, cycle = _bellman_ford(n + 1, source, edges)
        if cycle is not None:  # pragma: no cover - anchoring cannot create cycles
            return DCSolution(
                False, None, [(-1 if v == source else v) for v in cycle]
            )

    return DCSolution(True, np.array(dist[:n]), None)


def _bellman_ford(
    n_nodes: int, source: int, edges: list[tuple[int, int, float]]
) -> tuple[list[float], list[int] | None]:
    """Shortest distances from source; (dist, None) or (_, negative cycle)."""
    dist = [POS_INF] * n_nodes
    dist[source] = 0.0
    pred = [-1] * n_nodes
    flagged = -1
    for _ in range(n_nodes):
        changed = False
        flagged = -1
        for u, v, w in edges:
            if dist[u] < POS_INF and dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                pred[v] = u
                changed = True
                flagged = v
        if not changed:
            return dist, None
    # A relaxation happened in the extra pass: walk predecessors onto the
    # cycle, then collect it.
    v = flagged
    for _ in range(n_nodes):
        v = pred[v]
    cycle = [v]
    u = pred[v]
    while u != v:
        cycle.append(u)
        u = pred[u]
    cycle.reverse()
    return dist, cycle


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
        exact: True when the procedure certifies the reported loss optimal
            for the anchors used (sup-norm bisection); l1 descent and anchor
            search are heuristic and report False.
    """

    y_star: np.ndarray
    p_star: tuple[Point, ...]
    p_indices: tuple[int, ...] | None
    loss_value: float
    interpolant: CanonicalInterpolant
    exact: bool


def _exchange_constraints(
    samples: SampleSet, kernel: KernelRep, anchors: tuple[Point, ...]
) -> DifferenceConstraintSystem | None:
    """Difference constraints for fixed anchors; None if no finite system."""
    self_eval, gaps = _exchange_gaps(samples, kernel, anchors)
    np.fill_diagonal(gaps, NEG_INF)
    if not np.isfinite(self_eval).all() or (gaps == POS_INF).any():
        return None
    ms, ks = np.nonzero(gaps.T > NEG_INF)  # m-major, then k
    return DifferenceConstraintSystem(
        len(samples), tuple(zip(ks, ms, gaps[ks, ms]))
    )


def _solve_sup_norm(
    base: DifferenceConstraintSystem, y: np.ndarray, tol: float
) -> tuple[np.ndarray, float] | None:
    """Least sup-norm perturbation of y into feasibility, by bisection."""

    def attempt(eps: float) -> DCSolution:
        sys_eps = DifferenceConstraintSystem(
            base.n_vars, base.constraints, lower=y - eps, upper=y + eps
        )
        return solve_difference_constraints(sys_eps)

    sol = attempt(0.0)
    if sol.feasible:
        return sol.assignment, 0.0
    # Feasibility is monotone in the radius, and spread + total gap mass is a
    # sufficient radius whenever the difference system is feasible at all, so
    # a single check there decides between bisection and a certificate.
    spread = float(y.max() - y.min()) if len(y) > 1 else 1.0
    hi = spread + sum(abs(c) for _, _, c in base.constraints) + 1.0
    if not attempt(hi).feasible:
        return None
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if attempt(mid).feasible:
            hi = mid
        else:
            lo = mid
    sol = attempt(hi)
    assert sol.feasible and sol.assignment is not None
    return sol.assignment, float(np.abs(sol.assignment - y).max())


def _solve_l1(
    base: DifferenceConstraintSystem, y: np.ndarray, tol: float
) -> tuple[np.ndarray, float] | None:
    """Coordinate descent on the l1 loss from the greatest feasible point."""
    n = base.n_vars
    finite_gaps = [abs(c) for _, _, c in base.constraints]
    span = float(y.max() - y.min()) if n > 1 else 1.0
    # This width is sufficient whenever the difference system is feasible at
    # all (feasibility is monotone in it), so one attempt decides.
    width = span + sum(finite_gaps) + 1.0
    sys_box = DifferenceConstraintSystem(
        n, base.constraints, lower=y - width, upper=y + width
    )
    sol = solve_difference_constraints(sys_box)
    if not sol.feasible:
        return None
    assert sol.assignment is not None
    point = sol.assignment.copy()

    lower_of: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    upper_of: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, m, c in base.constraints:
        lower_of[a].append((m, c))  # y_a >= y_m + c
        upper_of[m].append((a, c))  # y_m <= y_a - c
    for _ in range(10 * n * n + 10):
        moved = False
        for i in range(n):
            lo = max([NEG_INF, *(point[m] + c for m, c in lower_of[i])])
            hi = min([POS_INF, *(point[a] - c for a, c in upper_of[i])])
            target = min(max(y[i], lo), hi)
            if abs(target - point[i]) > 1e-12:
                point[i] = target
                moved = True
        if not _shift_tight_components(base, y, point):
            if not moved:
                break
    return point, float(np.abs(point - y).sum())


def _shift_tight_components(
    base: DifferenceConstraintSystem, y: np.ndarray, point: np.ndarray
) -> bool:
    """Jointly translate groups of variables locked together by tight
    constraints toward their targets; single-coordinate moves cannot cross
    such equalities.  Mutates ``point``; returns True if anything moved."""
    n = base.n_vars
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, m, c in base.constraints:
        if abs((point[a] - point[m]) - c) <= 1e-12:
            parent[find(a)] = find(m)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    moved = False
    for members in groups.values():
        inside = set(members)
        lo, hi = NEG_INF, POS_INF
        for a, m, c in base.constraints:
            if a in inside and m not in inside:
                lo = max(lo, c - (point[a] - point[m]))
            elif m in inside and a not in inside:
                hi = min(hi, (point[a] - point[m]) - c)
        for i in members:
            lo = max(lo, base.lower[i] - point[i])
            hi = min(hi, base.upper[i] - point[i])
        residuals = sorted(y[i] - point[i] for i in members)
        delta = min(max(residuals[(len(members) - 1) // 2], lo), hi)
        if abs(delta) > 1e-12:
            before = sum(abs(point[i] - y[i]) for i in members)
            after = sum(abs(point[i] + delta - y[i]) for i in members)
            if after < before - 1e-12:
                for i in members:
                    point[i] += delta
                moved = True
    return moved


def regress(
    samples: SampleSet,
    kernel: KernelRep,
    loss: str = "sup_norm",
    fixed_p: tuple[Point, ...] | None = None,
    tol: float = 1e-9,
) -> RegressionResult:
    """Fit targets minimally perturbed into kernel-section feasibility.

    With ``fixed_p`` given (one anchor per sample) the exchange inequalities
    become a difference constraint system and the fit is computed directly:
    the sup_norm loss by bisection on the box radius (certified optimal for
    those anchors within tol), the l1 loss by coordinate descent from the
    greatest feasible point (a certified coordinatewise-local optimum, no
    global guarantee).

    Without ``fixed_p`` the anchors are searched over the candidate set.
    When the number of anchor assignments is within a fixed budget every
    assignment is fitted and the best kept; otherwise each sample starts at
    the candidate minimizing its total constraint violation against the raw
    targets, then anchor choice and fit alternate until stable and the best
    visited configuration is returned.  Either way ``exact`` is False: the
    per-assignment l1 fit carries no global certificate.

    Raises InfeasibleConstraintsError when no configuration is feasible.
    """
    loss = {"sup": "sup_norm"}.get(loss, loss)
    if loss not in ("sup_norm", "l1"):
        raise ValueError("loss must be 'sup_norm' or 'l1'")
    if fixed_p is not None:
        idx = _indices_in(samples.dual_candidates, tuple(fixed_p))
        return _regress_fixed(samples, kernel, loss, tuple(fixed_p), idx, tol)
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
    base = _exchange_constraints(samples, kernel, anchors)
    if base is None:
        raise InfeasibleConstraintsError(
            "anchors force an unsatisfiable (infinite) exchange gap"
        )
    y = np.asarray(samples.ys, dtype=float)
    solver = _solve_sup_norm if loss == "sup_norm" else _solve_l1
    fit = solver(base, y, tol)
    if fit is None:
        sol = solve_difference_constraints(base)
        raise InfeasibleConstraintsError(
            "exchange constraints admit no solution", cycle=sol.negative_cycle
        )
    fitted, loss_value = fit
    fitted_samples = SampleSet(samples.xs, fitted, samples.dual_candidates)
    interp = build_f0(fitted_samples, anchors, kernel, tol=max(tol, 1e-6))
    return RegressionResult(
        fitted, anchors, anchor_indices, loss_value, interp,
        exact=(loss == "sup_norm"),
    )


def _violation_scores(
    samples: SampleSet, kernel: KernelRep, y: np.ndarray
) -> np.ndarray:
    """scores[m, p] = total violation of candidate p for sample m (inf bad)."""
    bxp = gram_on(kernel, samples.xs, samples.dual_candidates)
    n = len(samples)
    scores = np.zeros((n, len(samples.dual_candidates)))
    for m in range(n):
        need = lower_add_arrays(bxp, -bxp[m][None, :])
        violation = np.maximum(need - (y - y[m])[:, None], 0.0)
        violation = np.where(np.isnan(violation), 0.0, violation)
        scores[m] = violation.sum(axis=0)
        scores[m, bxp[m] == NEG_INF] = POS_INF
        scores[m, (need == POS_INF).any(axis=0)] = POS_INF
    return scores


SEARCH_ENUMERATION_BUDGET = 20_000
"""Anchor assignments up to this count are searched exhaustively; beyond it
the alternating heuristic below is used instead."""


def _regress_enumerate(
    samples: SampleSet, kernel: KernelRep, loss: str, tol: float
) -> RegressionResult:
    candidates = samples.dual_candidates
    bxp = gram_on(kernel, samples.xs, candidates)
    usable = [np.flatnonzero(bxp[m] > NEG_INF) for m in range(len(samples))]
    if any(len(u) == 0 for u in usable):
        raise InfeasibleConstraintsError("some sample admits no usable anchor")
    best: RegressionResult | None = None
    for combo in itertools.product(*usable):
        idx = tuple(int(k) for k in combo)
        anchors = tuple(candidates.points[k] for k in idx)
        try:
            result = _regress_fixed(samples, kernel, loss, anchors, idx, tol)
        except InfeasibleConstraintsError:
            continue
        if best is None or result.loss_value < best.loss_value - 1e-12:
            best = result
    if best is None:
        raise InfeasibleConstraintsError("no anchor assignment is feasible")
    return best


def _regress_search(
    samples: SampleSet, kernel: KernelRep, loss: str, tol: float
) -> RegressionResult:
    candidates = samples.dual_candidates
    y0 = np.asarray(samples.ys, dtype=float)
    if len(candidates) ** len(samples) <= SEARCH_ENUMERATION_BUDGET:
        best = _regress_enumerate(samples, kernel, loss, tol)
        return RegressionResult(
            best.y_star,
            best.p_star,
            best.p_indices,
            best.loss_value,
            best.interpolant,
            exact=False,
        )
    scores = _violation_scores(samples, kernel, y0)
    if not np.isfinite(scores.min(axis=1)).all():
        raise InfeasibleConstraintsError("some sample admits no usable anchor")
    current = tuple(int(np.argmin(row)) for row in scores)
    best: RegressionResult | None = None
    seen: set[tuple[int, ...]] = set()
    for _ in range(20):
        if current in seen:
            break
        seen.add(current)
        anchors = tuple(candidates.points[k] for k in current)
        try:
            result = _regress_fixed(samples, kernel, loss, anchors, current, tol)
        except InfeasibleConstraintsError:
            result = None
        if result is not None and (best is None or result.loss_value < best.loss_value):
            best = result
        probe_y = result.y_star if result is not None else y0
        scores = _violation_scores(samples, kernel, probe_y)
        current = tuple(int(np.argmin(row)) for row in scores)
    if best is None:
        raise InfeasibleConstraintsError("anchor search found no feasible anchors")
    return RegressionResult(
        best.y_star,
        best.p_star,
        best.p_indices,
        best.loss_value,
        best.interpolant,
        exact=False,
    )


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
