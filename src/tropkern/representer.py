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
into feasibility) reduces to one max-plus closure D of the gaps, reduced
first by Bellman-Ford potentials.  A cycle whose weight, summed exactly
from its kernel values, is above 0 certifies infeasibility; otherwise both
fits are read off D exactly: the sup-norm fit in closed form, the l1 fit as
the potentials of a min-cost flow on the dual.  Over all anchors, the
targets some assignment reproduces form the column span itself, so the best
sup-norm fit is the Chebyshev distance to it, read from the same principal
solution.  An l1 anchor search builds the assignments one sample at a time,
drops each with a positive two-cycle as soon as both its samples are fixed,
closes the rest as one stack and fits those that a disjoint-pair bound on
the loss does not rule out, with the result that fitting them all gives;
when more than a budget of them would be built, it takes the sup-norm
search's anchors.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import (
    NEG_INF,
    POS_INF,
    _TERM_BLOCK,
    GridFunction,
    Point,
    PointSet,
    PreconditionError,
    Record,
    _adopted,
    lower_add_arrays,
    owned_array,
    point_array,
)
from .kernels import KernelRep, gram_on
from .linear_theory import is_idempotent


class InfeasibleConstraintsError(RuntimeError):
    """Raised when a task requires a feasible system but none exists.

    ``cycle`` lists constraints whose exact weight is above 0;
    ``blocking_index`` is the first sample (0-based) that no candidate, or
    no fixed anchor, can serve.  No result record carries such a verdict.
    """

    def __init__(self, message: str, cycle: list[int] | None = None,
                 blocking_index: int | None = None) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.blocking_index = blocking_index


class SampleSet(Record):
    """Interpolation data: sites, finite targets, and candidate dual points.

    Attributes:
        xs: The sample points (distinct).
        ys: Finite target values, shape (n,), aligned with xs.
        dual_candidates: Candidate points the kernel sections may be
            anchored at (the dual grid).
    """

    xs: PointSet
    ys: np.ndarray
    dual_candidates: PointSet

    def __post_init__(self) -> None:
        ys = np.asarray(self.ys, dtype=float)
        if ys.shape != (len(self.xs),):
            raise ValueError("one target per sample point is required")
        if len(ys) == 0:
            raise ValueError("at least one sample is required")
        if not np.isfinite(ys).all():
            raise ValueError("targets must be finite")
        if len(self.dual_candidates) == 0:
            raise ValueError("dual candidate set must be nonempty")
        object.__setattr__(self, "ys", owned_array(ys, "targets"))

    def __len__(self) -> int:
        return len(self.xs)


class WitnessResult(Record):
    """Anchors that serve every sample, one each.

    Attributes:
        witnesses: The chosen anchors, one read-only (n, d) row per sample.
        witness_indices: Indices of the chosen anchors within the candidate
            set.
        sections: The table the anchors were chosen from, at the chosen
            anchors: sections[k, m] = b(x_k, p_m).
    """

    witnesses: np.ndarray
    witness_indices: tuple[int, ...]
    sections: np.ndarray


def feasible_witnesses(
    samples: SampleSet, kernel: KernelRep, tol: float = 1e-9
) -> WitnessResult:
    """Choose one anchor per sample from the candidates.

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

    Everything is read from one table b(x_k, p) over the samples and the
    candidates; its columns at the chosen anchors are kept as the result's
    ``sections``, from which ``build_f0`` builds the interpolant.

    Raises InfeasibleConstraintsError with ``blocking_index``, the first
    sample that no candidate can serve, when the data admit no interpolant.
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
        raise InfeasibleConstraintsError(
            "no anchor serves a sample", blocking_index=int(blocked[0])
        )
    least = np.where(valid, totals, POS_INF).min(axis=1, keepdims=True)
    chosen = np.argmax(valid & (totals == least), axis=1)
    anchors, sections = samples.dual_candidates.as_array()[chosen], bxp[:, chosen]
    anchors.setflags(write=False)
    sections.setflags(write=False)
    return WitnessResult(anchors, tuple(chosen.tolist()), sections)


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


class CanonicalInterpolant(Record):
    """Max of kernel sections: f0(x) = max_m b(x, p_m) + offset_m.

    Attributes:
        kernel: The kernel whose sections are combined.
        anchors: The section centres p_m, a read-only (n, d) float64 array
            (read by ``point_array``).
        offsets: Finite shifts, offset_m = y_m - b(x_m, p_m), read-only.
    """

    kernel: KernelRep
    anchors: np.ndarray
    offsets: np.ndarray

    def __post_init__(self, adopted: bool = False) -> None:
        if adopted:
            self.offsets.setflags(write=False)
            self._sites[1].setflags(write=False)
        else:
            object.__setattr__(self, "anchors", point_array(self.anchors))
            object.__setattr__(self, "offsets",
                               owned_array(self.offsets, "offsets", (len(self.anchors),)))
            object.__setattr__(self, "_sites", None)
        self.anchors.setflags(write=False)

    @classmethod
    def _adopt(
        cls, kernel: KernelRep, anchors: np.ndarray, offsets: np.ndarray,
        sites: PointSet, sections: np.ndarray,
    ) -> "CanonicalInterpolant":
        """Take over the arrays a fit built: the (n, d) anchors, their offsets
        and their sections at the sample sites, sections[k, m] = b(x_k, p_m)."""
        return _adopted(cls, kernel=kernel, anchors=anchors, offsets=offsets,
                        _sites=(sites, sections))

    def __call__(self, x: Point) -> float:
        return float(self.on_grid(PointSet([x])).values[0])

    def on_grid(self, domain: PointSet) -> GridFunction:
        """f0 at each point of ``domain``.

        On the sample sites of the fit that built the interpolant (the same
        PointSet object), the sections of that fit are read; on any other
        grid the sections are evaluated, each anchor as given.
        """
        if self._sites is not None and domain is self._sites[0]:
            sections = self._sites[1]
        else:
            sections = gram_on(self.kernel, domain, self.anchors)
        terms = lower_add_arrays(sections, self.offsets)
        # The first maximal term, as a running max keeps it (a tie of 0.0
        # and -0.0 resolves by order, not by the reduction's lane layout).
        return GridFunction(domain, terms[np.arange(len(domain)), terms.argmax(axis=1)])


def build_f0(
    samples: SampleSet,
    witnesses: Sequence[Point] | np.ndarray | WitnessResult,
    kernel: KernelRep,
    tol: float = 1e-9,
) -> CanonicalInterpolant:
    """Build the canonical interpolant from one anchor per sample.

    ``witnesses`` is either the anchors, read once by ``point_array`` and
    evaluated at the samples in one table, or the WitnessResult of
    ``feasible_witnesses`` on these samples and this kernel, whose sections
    are read instead.  The interpolant keeps the sections, so its
    ``on_grid(samples.xs)`` evaluates no kernel.

    Raises PreconditionError if the anchors do not satisfy the exchange
    inequalities (within tol) or some self-evaluation b(x_m, p_m) is not
    finite; otherwise the result satisfies f0(x_m) = y_m exactly.
    """
    if isinstance(witnesses, WitnessResult):
        anchors, sections = witnesses.witnesses, witnesses.sections
    else:
        anchors, sections = point_array(witnesses), None
    if len(anchors) != len(samples):
        raise ValueError("one witness per sample is required")
    if sections is None:
        sections = gram_on(kernel, samples.xs, anchors)
    return _interpolant(samples, anchors, kernel, sections, tol)


def _interpolant(
    samples: SampleSet,
    anchors: np.ndarray,
    kernel: KernelRep,
    sections: np.ndarray,
    tol: float,
) -> CanonicalInterpolant:
    """``build_f0`` on the sections[k, m] = b(x_k, p_m) of the anchors'
    (n, d) array."""
    y = samples.ys
    self_eval = np.diag(sections)
    need = lower_add_arrays(sections, -self_eval)  # b(x_k, p_m) - b(x_m, p_m)
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
    return CanonicalInterpolant._adopt(kernel, anchors, y - self_eval, samples.xs, sections)


def _closure(sections: np.ndarray) -> tuple[np.ndarray, list[int] | None]:
    """``_closures`` of the stack of one system, sections[k, m] = b(x_k, p_m)."""
    closures, cycles = _closures(sections[None])
    return closures[0], cycles[0]


def _closures(stack: np.ndarray) -> tuple[np.ndarray, list[list[int] | None]]:
    """Max-plus closures D of the exchange constraints y_k - y_m >= t[k, m] =
    b(x_k, p_m) - b(x_m, p_m) (lower difference, never +inf) of each member
    sections[k, m] = b(x_k, p_m) of an (A, n, n) stack, and each member's
    cycle or None.

    D[k, m] is the largest gap sum along a path from k to m (0 on the
    diagonal, -inf where no path exists); y satisfies a member's system
    exactly when all y_k - y_m >= D[k, m].  Bellman-Ford potentials pi
    reduce the gaps to r = t - pi_k + pi_m <= 0 (Johnson, J. ACM 24(1),
    1977); D is one Floyd-Warshall pass on r clamped at 0, which sums no
    positive term, plus pi_k - pi_m.  Some r > 0 after n rounds sends the
    member's Bellman-Ford parent graph to ``_heaviest_cycle``; with no cycle
    of positive exact weight, r > 0 is float drift, which the clamp drops.
    Where D equals the direct gap it keeps the gap's bytes (its sign of
    zero), as a closure replacing entries only by larger path sums does;
    any other zero is +0.0.
    """
    count, n = stack.shape[:2]
    diagonal = np.arange(n)
    gaps = lower_add_arrays(stack, -stack[:, diagonal, diagonal][:, None, :])
    gaps[:, diagonal, diagonal] = 0.0
    # Bellman-Ford from pi = 0: each round sets pi_k to t[k, m] + pi_m at the
    # argmax m (never lower, by the zero diagonal), the parent where it rises.
    potential, parent = np.zeros((count, n)), np.full((count, n), -1)
    through, rows = np.empty_like(gaps), np.arange(0, count * n * n, n)
    for _ in range(n):
        np.add(gaps, potential[:, None, :], out=through)
        best = through.argmax(axis=2)
        raised = through.reshape(-1)[rows + best.reshape(-1)].reshape(count, n)
        changed = raised > potential
        if not changed.any():
            break
        np.copyto(parent, best, where=changed)
        potential = raised
    reduced = gaps + potential[:, None, :] - potential[:, :, None]
    cycles: list[list[int] | None] = [None] * count
    for a in np.flatnonzero((reduced > 0).any(axis=(1, 2))):
        cycles[a] = _heaviest_cycle(parent[a].tolist(), stack[a])
    closure = np.minimum(reduced, 0.0, out=reduced)
    for j in range(n):
        np.maximum(closure, closure[:, :, j, None] + closure[:, None, j, :], out=closure)
    closure += potential[:, :, None]
    closure -= potential[:, None, :]
    np.copyto(closure, gaps, where=closure == gaps)
    return closure, cycles


def _heaviest_cycle(parent: list[int], sections: np.ndarray) -> list[int] | None:
    """Of the cycles of the graph with one arc k -> parent[k] from each node
    k (none where it is -1), listed along their arcs, the one of greatest
    weight if that weight is positive: the exact (math.fsum) sum of the
    kernel values sections[a, b] - sections[b, b] over its steps a -> b."""
    best, best_weight, walked = None, 0.0, [-1] * len(parent)
    for start in reversed(range(len(parent))):
        walk, v = [], start
        while v >= 0 and walked[v] < 0:
            walked[v] = start
            walk.append(v)
            v = parent[v]
        if v < 0 or walked[v] != start:
            continue
        cycle = walk[walk.index(v):]
        heads = cycle[1:] + cycle[:1]
        weight = math.fsum([*sections[cycle, heads], *-sections[heads, heads]])
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
    owing = (potential[:n] < ybar).tolist() + [False]
    flow = np.zeros((n + 1, n + 1))
    flow[:, root] = owing
    residual = np.minimum(
        np.where(flow < capacity, cost, POS_INF),
        np.where(flow.T > 0, -cost.T, POS_INF),
    )
    # Unsettled nodes hold dist in key and gate, settled ones +inf and -inf.
    dist, key, gate, through = np.empty((4, n + 1))
    better, pred = np.empty(n + 1, dtype=bool), np.zeros(n + 1, dtype=int)
    for _ in range(sum(owing)):
        reduced = residual + potential[:, None] - potential[None, :]
        dist[:] = key[:] = gate[:] = POS_INF
        dist[root] = key[root] = gate[root] = 0.0
        while True:
            u = int(key.argmin())
            if owing[u]:
                break
            key[u], gate[u] = POS_INF, NEG_INF
            np.add(dist[u], reduced[u], out=through)
            np.less(through, gate, out=better)
            for target in (dist, key, gate):
                np.copyto(target, through, where=better)
            np.copyto(pred, u, where=better)
        potential += np.minimum(dist, dist[u])
        owing[u] = False
        while u != root:
            v, u = u, int(pred[u])
            if flow[v, u] > 0 and -cost[v, u] == residual[u, v]:
                flow[v, u] -= 1.0  # cancel flow rather than add it
            else:
                flow[u, v] += 1.0
            for a, b in ((u, v), (v, u)):  # the residual costs that changed
                ahead = cost[a, b] if flow[a, b] < capacity[a, b] else POS_INF
                back = -cost[b, a] if flow[b, a] > 0 else POS_INF
                residual[a, b] = ahead if ahead < back else back  # as np.minimum
    return potential[:n] - potential[root]


class RegressionResult(Record):
    """Outcome of kernel-section regression.

    Attributes:
        y_star: The fitted targets, feasible for the final anchors.
        p_star: The anchors used (fixed or found by search), a read-only
            (n, d) float64 array.
        p_indices: Their indices in the candidate set, when the anchors came
            from the candidate set (None for caller-supplied points outside
            it).
        loss_value: sup-norm or l1 distance between fitted and given targets.
        interpolant: Canonical interpolant through the fitted targets.
        exact: True for a sup_norm fit, whose loss is the closed-form
            optimum: over the fixed anchors, or in a search over all
            candidate anchors.  False for an l1 fit, although the fit is
            optimal for its anchors (a min-cost flow) and, in a search whose
            assignments fit SEARCH_ENUMERATION_BUDGET, over all of them.
    """

    y_star: np.ndarray
    p_star: np.ndarray
    p_indices: tuple[int, ...] | None
    loss_value: float
    interpolant: CanonicalInterpolant
    exact: bool


def regress(
    samples: SampleSet,
    kernel: KernelRep,
    loss: str = "sup_norm",
    fixed_p: Sequence[Point] | np.ndarray | None = None,
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
    keeps the best assignment without a positive two-cycle (a tie within
    1e-12 to the least constraining).  It builds them one sample at a time,
    at most SEARCH_ENUMERATION_BUDGET rows at each step (one over n samples
    with 2 ** n above it), closes them as one stack and fits those that a
    disjoint-pair bound on the loss cannot rule out (the same result as
    fitting each); a search that would build more fits the projection's
    anchors.

    Raises InfeasibleConstraintsError when fixed anchors admit no fit (with
    a positive cycle, or the first sample whose anchor's section is -inf
    there) or no candidate can serve a sample (with its index).
    """
    loss = {"sup": "sup_norm"}.get(loss, loss)
    if loss not in ("sup_norm", "l1"):
        raise ValueError("loss must be 'sup_norm' or 'l1'")
    if fixed_p is not None:
        anchors = point_array(fixed_p)
        if len(anchors) != len(samples):
            raise ValueError("one anchor per sample is required")
        at = samples.dual_candidates.indices(anchors)
        idx = None if (at < 0).any() else tuple(at.tolist())
        sections = gram_on(kernel, samples.xs, anchors)
        return _regress_fixed(samples, kernel, loss, anchors, idx, sections, tol)
    return _regress_search(samples, kernel, loss, tol)


def _regress_fixed(
    samples: SampleSet,
    kernel: KernelRep,
    loss: str,
    anchors: np.ndarray,
    anchor_indices: tuple[int, ...] | None,
    sections: np.ndarray,
    tol: float,
) -> RegressionResult:
    """The fit for the (n, d) array of anchors, from their sections[k, m] =
    b(x_k, p_m) at the samples."""
    blocked = np.flatnonzero(np.diag(sections) == NEG_INF)
    if blocked.size:  # its gaps are +inf, which no finite targets meet
        raise InfeasibleConstraintsError(
            "an anchor's section is -inf at its sample", blocking_index=int(blocked[0])
        )
    closure, cycle = _closure(sections)
    if cycle is not None:
        raise InfeasibleConstraintsError(
            "exchange constraints admit no solution", cycle=cycle
        )
    fitted, loss_value = _fit(closure, samples.ys, loss)
    return _result(
        samples, kernel, loss, anchors, anchor_indices, sections, fitted, loss_value, tol
    )


def _result(
    samples: SampleSet,
    kernel: KernelRep,
    loss: str,
    anchors: np.ndarray,
    anchor_indices: tuple[int, ...] | None,
    sections: np.ndarray,
    fitted: np.ndarray,
    loss_value: float,
    tol: float,
) -> RegressionResult:
    """The result of the ``fitted`` targets at the (n, d) array of anchors,
    with the interpolant through them built on their sections."""
    fitted_samples = SampleSet(samples.xs, fitted, samples.dual_candidates)
    interp = _interpolant(fitted_samples, anchors, kernel, sections, max(tol, 1e-6))
    return RegressionResult(
        fitted, interp.anchors, anchor_indices, loss_value, interp,
        exact=(loss == "sup_norm"),
    )


SEARCH_ENUMERATION_BUDGET = 20_000
"""An l1 anchor search, adding one sample's usable anchors at a time, builds
at most this many assignments at each step, so it closes and fits at most
this many; over n samples with 2 ** n above this, it builds at most one.
A search that would build more takes the projection's anchors."""


def _two_cycle_free(bxp: np.ndarray) -> np.ndarray | None:
    """The assignments of usable anchors (b(x_m, p_m) finite) without a
    positive two-cycle, one row of candidate indices each, in
    ``itertools.product`` order, from bxp[k, p] = b(x_k, p); None if a step
    would build more than SEARCH_ENUMERATION_BUDGET rows, or more than one
    of n samples with 2 ** n above it.  A row's closure and fit grow faster
    than n^3, so no search closes more or longer rows than the product test
    len(candidates) ** n <= SEARCH_ENUMERATION_BUDGET admitted, and every
    search that test admitted is built in full.

    Sample m's usable anchors extend each row, which is dropped if some
    k < m has w = b(x_k, p_m) - b(x_m, p_m) + b(x_m, p_k) - b(x_k, p_k)
    above 0.  w is taken as t(p_m) - t(p_k) of the rounded t(p) = b(x_k, p)
    - b(x_m, p), and every drop is exact: w > 0 means t(p_m) > t(p_k), and
    rounding is monotone, so the exact differences are in the same order
    and the exact w is positive.  The closure, whose gaps are these t,
    rejects every assignment dropped.
    """
    budget = SEARCH_ENUMERATION_BUDGET if 2 ** len(bxp) <= SEARCH_ENUMERATION_BUDGET else 1
    rows = np.zeros((1, 0), dtype=np.intp)
    for m in range(len(bxp)):
        usable = np.flatnonzero(bxp[m] > NEG_INF)
        if len(rows) * len(usable) > budget:
            return None
        rows = np.column_stack([np.repeat(rows, len(usable), axis=0), np.tile(usable, len(rows))])
        # t[k, p] = b(x_k, p) - b(x_m, p); NaN (both -inf) is never read,
        # and -t is the gap of sample m against an anchor of k.
        with np.errstate(invalid="ignore"):
            t = bxp[:m] - bxp[m]
        w = t[np.arange(m), rows[:, m, None]] - t[np.arange(m), rows[:, :m]]
        rows = rows[~(w > 0).any(axis=1)]
    return rows


def _l1_bounds(closures: np.ndarray, ybar: np.ndarray) -> np.ndarray:
    """A lower bound on the least l1 loss sum_i |y_i - ybar_i| subject to
    y_k - y_m >= D[k, m], for each closure D of an (A, n, n) stack: the
    violations v[k, m] = max(0, D[k, m] - (ybar_k - ybar_m)) summed over
    disjoint pairs, picked greedily by largest v.  Any feasible y has
    |y_k - ybar_k| + |y_m - ybar_m| >= v[k, m], and disjoint pairs add up."""
    count, n = closures.shape[:2]
    violation = np.maximum(closures - np.subtract.outer(ybar, ybar), 0.0)
    bounds, members = np.zeros(count), np.arange(count)[:, None]
    for _ in range(n // 2):
        pair = np.stack(np.divmod(violation.reshape(count, -1).argmax(axis=1), n), axis=1)
        bounds += violation[members[:, 0], pair[:, 0], pair[:, 1]]
        violation[members, pair] = violation[members, :, pair] = 0.0
    return bounds


def _enumerate_l1(
    bxp: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
    """The least l1 fit over the ``_two_cycle_free`` assignments, from
    bxp[k, p] = b(x_k, p): its anchor indices, sections, fitted targets and
    loss, or None if there are too many to build.  They are closed in stacks
    of at most ``_TERM_BLOCK`` entries; one whose ``_l1_bounds`` exceeds the
    best loss so far by more than a fit's rounding at the data's magnitude
    would lose, tie included, and is not fitted."""
    n = len(y)
    if (kept := _two_cycle_free(bxp)) is None:
        return None
    best: tuple[np.ndarray, np.ndarray] | None = None
    best_loss = best_mass = POS_INF
    size = max(1, _TERM_BLOCK // (n * n))
    for chunk in (kept[start:start + size] for start in range(0, len(kept), size)):
        stack = bxp[np.arange(n)[:, None], chunk[:, None, :]]  # [a, k, m]
        closures, cycles = _closures(stack)
        bounds = _l1_bounds(closures, y).tolist()
        scale = np.max(np.abs(closures), initial=1.0, where=closures > NEG_INF)
        margin = 1e-9 * n * max(scale, float(np.abs(y).max()))
        for idx, sections, closure, cycle, bound in zip(chunk, stack, closures, cycles, bounds):
            if cycle is not None or bound > best_loss + margin:
                continue
            fitted, loss_value = _fit(closure, y, "l1")
            # Exact optima often tie across assignments; a tie goes to the
            # least constraining one, with the smallest total exchange gap
            # sum_{k,m} b(x_k, p_m) - b(x_m, p_m), whatever the order.
            mass = float(sections.sum() - n * np.diag(sections).sum())
            if best is None or loss_value < best_loss - 1e-12 or (
                loss_value <= best_loss + 1e-12 and mass < best_mass
            ):
                best, best_loss, best_mass = (idx, fitted), loss_value, mass
    if best is None:
        raise InfeasibleConstraintsError("no anchor assignment is feasible")
    return best[0], bxp[:, best[0]], best[1], best_loss


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
    if loss == "sup_norm":
        # z + eps*, as the closure of these anchors gives it, but never
        # meeting a positive cycle that only the rounding of their gaps makes.
        z = y + shortfall
        fitted = z + 0.5 * float((y - z).max())
        best = chosen, bxp[:, chosen], fitted, float(np.abs(fitted - y).max())
    elif (best := _enumerate_l1(bxp, y)) is None:  # beyond the budget
        return _regress_fixed(samples, kernel, loss, candidates.as_array()[chosen],
                              tuple(chosen.tolist()), bxp[:, chosen], tol)
    chosen, *fit = best
    return _result(samples, kernel, loss, candidates.as_array()[chosen],
                   tuple(chosen.tolist()), *fit, tol)


class StoppingCostResult(Record):
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
    stopping cost w = -y* on the sample points, +inf elsewhere.  A kernel
    table of more than PAIR_GUARD entries raises SizeError.
    """
    matrix = gram_on(kernel)  # refused above PAIR_GUARD before any n^3 product
    points = kernel.points
    if np.abs(np.diag(matrix)).max() > tol:
        raise PreconditionError("kernel matrix must have zero diagonal")
    anchors = samples.xs.as_array()
    at = points.indices(anchors)
    if (at < 0).any():
        raise PreconditionError("sample points must lie on the kernel grid")
    table = gram_on(kernel, samples.xs)
    if not is_idempotent(matrix, tol=max(tol, 1e-9)):
        raise PreconditionError("kernel matrix must be idempotent")
    result = _regress_fixed(samples, kernel, "sup_norm", anchors, tuple(at.tolist()), table, tol)
    w_values = np.full(len(points), POS_INF)
    w_values[at] = -result.y_star
    return StoppingCostResult(
        GridFunction(points, w_values),
        result.y_star,
        result.interpolant,
        result.loss_value,
    )
