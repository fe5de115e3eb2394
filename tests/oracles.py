"""Independent oracles for the test suite.

Every nontrivial expected value asserted by the tests is computed here by a
route independent of the package under test: direct enumeration, linear
programming (scipy), graph shortest paths (scipy), or closed-form calculus.
This module deliberately imports nothing from the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

NEG = float("-inf")
POS = float("inf")


# ---------------------------------------------------------------------------
# Extended-real scalar helpers (re-derived here, not imported).
# ---------------------------------------------------------------------------


def lo_add(a: float, b: float) -> float:
    """Lower addition: -inf absorbing, then +inf."""
    if a == NEG or b == NEG:
        return NEG
    if a == POS or b == POS:
        return POS
    return a + b


def lo_sub(a: float, b: float) -> float:
    return lo_add(a, -b)


def up_add(a: float, b: float) -> float:
    """Upper addition: +inf absorbing, then -inf."""
    if a == POS or b == POS:
        return POS
    if a == NEG or b == NEG:
        return NEG
    return a + b


def up_sub(a: float, b: float) -> float:
    return up_add(a, -b)


# ---------------------------------------------------------------------------
# Permutation positivity by full enumeration.
# ---------------------------------------------------------------------------


def perm_positive_brute(matrix: np.ndarray, m_max: int, tol: float = 1e-9) -> bool:
    """True iff sum_m b(x_m,x_m) >= sum_m b(x_m,x_sigma(m)) for every subset
    of size <= m_max and every permutation sigma (full enumeration).

    Sums use lower addition (-inf absorbing); grams never contain +inf.
    """
    b = np.asarray(matrix, dtype=float)
    n = b.shape[0]
    for size in range(1, min(m_max, n) + 1):
        for subset in itertools.combinations(range(n), size):
            lhs = 0.0
            for i in subset:
                lhs = lo_add(lhs, b[i, i])
            for sigma in itertools.permutations(range(size)):
                rhs = 0.0
                for pos, i in enumerate(subset):
                    rhs = lo_add(rhs, b[i, subset[sigma[pos]]])
                if rhs > lhs + tol:
                    return False
    return True


# ---------------------------------------------------------------------------
# Discrete lower convex envelope (1-D), by chord geometry.
# ---------------------------------------------------------------------------


def lower_convex_envelope(xs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Greatest convex function below the data, sampled at the data sites.

    At each site the envelope equals the least chord through two data points
    straddling it (including degenerate single-point "chords").  Entries with
    value +inf impose no constraint and get the chord minimum of the rest.
    """
    xs = np.asarray(xs, dtype=float)
    v = np.asarray(values, dtype=float)
    n = len(xs)
    order = np.argsort(xs)
    env = np.full(n, POS)
    for a in range(n):
        x = xs[a]
        best = v[a]
        for jj in range(n):
            for kk in range(n):
                xj, xk = xs[jj], xs[kk]
                if not (xj <= x <= xk):
                    continue
                if v[jj] == POS or v[kk] == POS:
                    continue
                if xj == xk:
                    cand = min(v[jj], v[kk])
                else:
                    lam = (x - xj) / (xk - xj)
                    cand = (1 - lam) * v[jj] + lam * v[kk]
                best = min(best, cand)
        env[a] = best
    _ = order
    return env


# ---------------------------------------------------------------------------
# Sesquilinear conjugation by direct double loop (pure python).
# ---------------------------------------------------------------------------


def conj_brute(bmatrix: np.ndarray, f: np.ndarray) -> np.ndarray:
    """x -> max_y lower_sub(b(x,y), f(y)), scalar arithmetic only."""
    b = np.asarray(bmatrix, dtype=float)
    out = np.empty(b.shape[0])
    for i in range(b.shape[0]):
        best = NEG
        for j in range(b.shape[1]):
            best = max(best, lo_sub(b[i, j], f[j]))
        out[i] = best
    return out


def linear_brute(bmatrix: np.ndarray, f: np.ndarray) -> np.ndarray:
    """x -> max_y lower_add(b(x,y), f(y)), scalar arithmetic only."""
    b = np.asarray(bmatrix, dtype=float)
    out = np.empty(b.shape[0])
    for i in range(b.shape[0]):
        best = NEG
        for j in range(b.shape[1]):
            best = max(best, lo_add(b[i, j], f[j]))
        out[i] = best
    return out


# ---------------------------------------------------------------------------
# Von Neumann regularity oracles for 3x3 grams over {0,-1,-inf}.
# ---------------------------------------------------------------------------

#: Candidate values for witness entries.  For grams over {0,-1,-inf} any
#: finite entry of a useful witness lies in the difference lattice
#: {-1,0,1,2}; a +inf entry can only multiply -inf factors in a dominated
#: product, so capping it at 2 preserves B(x)A(x)B = B.  The exhaustive
#: search below validates this alphabet on a subsample.
A_ALPHABET = (2.0, 1.0, 0.0, -1.0, NEG)


def regularity_brute_all(grams: np.ndarray) -> np.ndarray:
    """Regularity verdicts for a stack of 3x3 grams by maximal-witness trial.

    For each gram B and each entry position (k, l), finds the largest
    alphabet value ``a`` such that every product B[i,k] + a + B[l,j] stays
    <= B[i,j]; the entrywise-largest dominated witness A then certifies
    regularity iff the max-plus product B A B reproduces B exactly.  The
    dominance trials are direct products (no residuation formulas); the
    entrywise max is sound because the constraint decomposes per (k, l) and
    the product is monotone in A.
    """
    b = np.asarray(grams, dtype=float)
    if b.ndim == 2:
        b = b[None]
    n_g = b.shape[0]
    # pair[g, i, k, l, j] = B[g,i,k] + B[g,l,j]; no +inf present, so plain
    # addition implements lower addition without NaN.
    pair = b[:, :, :, None, None] + b[:, None, None, :, :]
    target = b[:, :, None, None, :]  # B[g,i,j] broadcast over (k,l)
    a_max = np.full((n_g, 3, 3), NEG)
    chosen = np.zeros((n_g, 3, 3), dtype=bool)
    for a in A_ALPHABET:
        if a == NEG:
            ok = np.ones((n_g, 3, 3), dtype=bool)
        else:
            ok = np.all(pair + a <= target, axis=(1, 4))
        newly = ok & ~chosen
        a_max = np.where(newly, a, a_max)
        chosen |= ok
    # B (x) A_max (x) B, exact on these integer-valued inputs.
    ba = np.max(b[:, :, :, None] + a_max[:, None, :, :], axis=2)
    bab = np.max(ba[:, :, :, None] + b[:, None, :, :], axis=2)
    return np.array(
        [bool(np.array_equal(bab[g], b[g])) for g in range(n_g)], dtype=bool
    )


def regularity_exhaustive(gram: np.ndarray, chunk: int = 32) -> bool:
    """Genuine exhaustive search over all 5^9 witness matrices.

    Enumerates every A with entries in A_ALPHABET and reports whether any
    satisfies B A B = B exactly.  (BAB)_ij = max over (k, l) of
    B_ik + A_kl + B_lj, so each (position, value) pair gives one 3x3 term and
    a witness's product is the elementwise max of its nine terms.  The
    products of all 5^4 choices for positions 0-3 are tabled once, as are
    those of all 5^5 choices for positions 4-8; every pair of rows of the two
    tables is one witness, and all pairs are compared.  float32 is exact on
    these small integers.
    """
    b = np.asarray(gram, dtype=np.float32)
    alpha = np.array(A_ALPHABET, dtype=np.float32)
    # term[p][v, i, j] = B[i, k] + alpha[v] + B[l, j] for position p = 3k + l.
    term = [
        alpha[:, None, None] + b[None, :, k, None] + b[None, None, l, :]
        for k in range(3)
        for l in range(3)
    ]

    def table(positions):
        prod = term[positions[0]]
        for p in positions[1:]:
            prod = np.maximum(prod[:, None], term[p][None]).reshape(-1, 3, 3)
        return prod

    low, high = table(range(4)), table(range(4, 9))
    for start in range(0, len(low), chunk):
        bab = np.maximum(low[start : start + chunk, None], high[None])
        if np.any(np.all(bab == b, axis=(2, 3))):
            return True
    return False


# ---------------------------------------------------------------------------
# Fixed-anchor regression by linear programming (scipy).
# ---------------------------------------------------------------------------


def lp_regression(
    constraint_gaps: np.ndarray, ybar: np.ndarray, loss: str
) -> tuple[bool, float, np.ndarray | None]:
    """Best fit y to ybar under y_n - y_m >= gap[n, m], by LP.

    gap entries of -inf are vacuous; +inf means infeasible outright.
    loss "sup_norm" minimizes max_n |y_n - ybar_n|; "l1" minimizes the sum.

    Returns:
        (feasible, optimal loss, optimal y or None).
    """
    gaps = np.asarray(constraint_gaps, dtype=float)
    ybar = np.asarray(ybar, dtype=float)
    n = len(ybar)
    if np.any(gaps == POS):
        return False, POS, None
    rows, cols, rhs = [], [], []
    for a in range(n):
        for m in range(n):
            if a == m or gaps[a, m] == NEG:
                continue
            # y_a - y_m >= gap  <=>  y_m - y_a <= -gap
            rows.append((m, a))
            rhs.append(-gaps[a, m])
    if loss == "sup_norm":
        n_var = n + 1
        c = np.zeros(n_var)
        c[-1] = 1.0
        a_ub, b_ub = [], []
        for (m, a), r in zip(rows, rhs):
            row = np.zeros(n_var)
            row[m] += 1.0
            row[a] -= 1.0
            a_ub.append(row)
            b_ub.append(r)
        for i in range(n):
            row = np.zeros(n_var)
            row[i] = 1.0
            row[-1] = -1.0
            a_ub.append(row.copy())
            b_ub.append(ybar[i])
            row = np.zeros(n_var)
            row[i] = -1.0
            row[-1] = -1.0
            a_ub.append(row)
            b_ub.append(-ybar[i])
        res = linprog(
            c,
            A_ub=np.array(a_ub),
            b_ub=np.array(b_ub),
            bounds=[(None, None)] * n + [(0, None)],
            method="highs",
        )
        if res.status == 2:
            return False, POS, None
        assert res.status == 0, res.message
        return True, float(res.fun), np.asarray(res.x[:n])
    if loss == "l1":
        n_var = 2 * n
        c = np.zeros(n_var)
        c[n:] = 1.0
        a_ub, b_ub = [], []
        for (m, a), r in zip(rows, rhs):
            row = np.zeros(n_var)
            row[m] += 1.0
            row[a] -= 1.0
            a_ub.append(row)
            b_ub.append(r)
        for i in range(n):
            row = np.zeros(n_var)
            row[i] = 1.0
            row[n + i] = -1.0
            a_ub.append(row.copy())
            b_ub.append(ybar[i])
            row = np.zeros(n_var)
            row[i] = -1.0
            row[n + i] = -1.0
            a_ub.append(row)
            b_ub.append(-ybar[i])
        res = linprog(
            c,
            A_ub=np.array(a_ub),
            b_ub=np.array(b_ub),
            bounds=[(None, None)] * n + [(0, None)] * n,
            method="highs",
        )
        if res.status == 2:
            return False, POS, None
        assert res.status == 0, res.message
        return True, float(res.fun), np.asarray(res.x[:n])
    raise ValueError(loss)


def regression_brute(
    bxp: np.ndarray, ybar: np.ndarray, loss: str
) -> tuple[float, np.ndarray | None, tuple[int, ...] | None]:
    """Global regression optimum by enumerating every anchor assignment.

    bxp[n, j] = b(x_n, p_j) over the candidate grid; anchors with
    b(x_m, p) = -inf cannot reproduce a finite target and are skipped.
    Each assignment yields a plain LP solved by scipy.

    Returns:
        (best loss, best y, best anchor index tuple).
    """
    bxp = np.asarray(bxp, dtype=float)
    n, n_p = bxp.shape
    best = (POS, None, None)
    for combo in itertools.product(range(n_p), repeat=n):
        gaps = np.full((n, n), NEG)
        valid = True
        for m, j in enumerate(combo):
            if bxp[m, j] == NEG:
                valid = False
                break
            for a in range(n):
                if a == m:
                    continue
                gaps[a, m] = lo_sub(bxp[a, j], bxp[m, j])
        if not valid:
            continue
        feasible, value, y = lp_regression(gaps, ybar, loss)
        if feasible and value < best[0] - 1e-12:
            best = (value, y, combo)
    return best


def witnesses_per_sample(
    bxp: np.ndarray, ybar: np.ndarray, tol: float = 1e-9
) -> tuple[bool, tuple[int, ...] | None, int | None]:
    """The interpolation anchor rule, one pass per sample m.

    Candidate j is valid for m when bxp[m, j] > -inf and every slack
    (y_k - y_m) - (bxp[k, j] - bxp[m, j]) (lower difference) is >= -tol;
    the valid candidate with the least slack sum wins, the lowest index on
    ties.

    Returns:
        (feasible, chosen index per sample or None, first sample with no
        valid candidate or None).
    """
    bxp = np.asarray(bxp, dtype=float)
    y = np.asarray(ybar, dtype=float)
    chosen = []
    for m in range(len(y)):
        with np.errstate(invalid="ignore"):
            need = bxp - bxp[m][None, :]
        need[np.isnan(need)] = NEG
        slack = (y - y[m])[:, None] - need
        valid = np.flatnonzero((slack.min(axis=0) >= -tol) & (bxp[m] > NEG))
        if len(valid) == 0:
            return False, None, m
        totals = [slack[:, j].sum() for j in valid]
        chosen.append(int(valid[int(np.argmin(totals))]))
    return True, tuple(chosen), None


def two_cycle_free_assignments(bxp: np.ndarray) -> list[tuple[int, ...]]:
    """Assignments of usable anchors (bxp[m, j] > -inf), in product order,
    in which no pair k, m has exchange gaps
    lo_sub(bxp[k, j_m], bxp[m, j_m]) + lo_sub(bxp[m, j_k], bxp[k, j_k])
    summing, exactly, to more than 0."""
    bxp = np.asarray(bxp, dtype=float)
    n, n_p = bxp.shape
    usable = [[j for j in range(n_p) if bxp[m, j] != NEG] for m in range(n)]
    kept = []
    for combo in itertools.product(*usable):
        if all(
            math.fsum([lo_sub(bxp[k, combo[m]], bxp[m, combo[m]]),
                       lo_sub(bxp[m, combo[k]], bxp[k, combo[k]])]) <= 0
            for k in range(n) for m in range(k + 1, n)
        ):
            kept.append(combo)
    return kept


def lp_difference_feasible(
    n_vars: int,
    constraints: list[tuple[int, int, float]],
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
) -> bool:
    """Feasibility of {y_n - y_m >= c} plus boxes, decided by LP."""
    a_ub, b_ub = [], []
    for n_i, m_i, c in constraints:
        if c == NEG:
            continue
        if c == POS:
            return False
        row = np.zeros(n_vars)
        row[m_i] += 1.0
        row[n_i] -= 1.0
        a_ub.append(row)
        b_ub.append(-c)
    bounds = []
    for i in range(n_vars):
        lo = None if lower is None or lower[i] == NEG else float(lower[i])
        hi = None if upper is None or upper[i] == POS else float(upper[i])
        bounds.append((lo, hi))
    res = linprog(
        np.zeros(n_vars),
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        bounds=bounds,
        method="highs",
    )
    return res.status == 0


def exact_closure(sections: np.ndarray) -> tuple[bool, list[list[Fraction | None]]]:
    """The max-plus closure D of the exchange gaps t[k, m] = sections[k, m] -
    sections[m, m] (None for -inf, 0 on the diagonal), by Floyd-Warshall in
    exact rationals on the float kernel values: each float is a dyadic
    fraction, so all are held as integers over their least common
    denominator.

    Returns:
        (feasible, D): feasible is False exactly when some cycle of gaps sums
        to more than 0, which leaves a positive diagonal entry.
    """
    n = len(sections)
    exact = [[None if v == NEG else Fraction(v) for v in row] for row in sections.tolist()]
    scale = math.lcm(*(v.denominator for row in exact for v in row if v is not None))
    d = [[None if exact[k][m] is None else int((exact[k][m] - exact[m][m]) * scale)
          for m in range(n)] for k in range(n)]
    for j in range(n):
        row_j = d[j]
        for row_k in d:
            through = row_k[j]
            if through is None:
                continue
            for m, tail in enumerate(row_j):
                if tail is not None and (row_k[m] is None or through + tail > row_k[m]):
                    row_k[m] = through + tail
    feasible = all(d[i][i] <= 0 for i in range(n))
    return feasible, [[None if v is None else Fraction(v, scale) for v in row] for row in d]


# ---------------------------------------------------------------------------
# Least-action oracles (scipy shortest paths) and closed forms.
# ---------------------------------------------------------------------------


def min_action_matrix(
    times: np.ndarray,
    space_axes,
    offsets: list[tuple[int, ...]],
    cost_of_velocity,
) -> np.ndarray:
    """All-pairs minimal path cost on the layered product-lattice graph.

    Nodes are (time index, space index), the space index running over the
    C-order product of ``space_axes``; directed edges step one time layer
    with an integer offset tuple k, of weight dt * cost_of_velocity(v), where
    v_j = k_j * dr_j / dt.  Returns D[(i,a),(k,b)] (+inf when unreachable),
    via scipy Dijkstra.
    """
    times = np.asarray(times, dtype=float)
    axes = [np.asarray(ax, dtype=float) for ax in space_axes]
    shape = tuple(len(ax) for ax in axes)
    nt, ns = len(times), int(np.prod(shape))
    dt = times[1] - times[0]
    dr = [ax[1] - ax[0] for ax in axes]
    rows, cols, weights = [], [], []
    for i in range(nt - 1):
        for a, cell in enumerate(np.ndindex(*shape)):
            for k in offsets:
                target = tuple(c + o for c, o in zip(cell, k))
                if not all(0 <= c < n for c, n in zip(target, shape)):
                    continue
                velocity = tuple(o * h / dt for o, h in zip(k, dr))
                rows.append(i * ns + a)
                cols.append((i + 1) * ns + int(np.ravel_multi_index(target, shape)))
                weights.append(dt * cost_of_velocity(velocity))
    graph = csr_matrix(
        (weights, (rows, cols)), shape=(nt * ns, nt * ns)
    )
    return shortest_path(graph, method="D", directed=True)


def hopf_quadratic(t0: float, r0: float, t1: float, r1: float) -> float:
    """Closed-form least action for L(v) = v^2."""
    if t0 == t1:
        return 0.0 if r0 == r1 else NEG
    tau = t1 - t0
    return -abs(tau) * ((r1 - r0) / tau) ** 2


def true_value_quadratic(t: float, r: float, horizon: float) -> float:
    """inf_rho [ (rho-r)^2/(T-t) + rho^2 ] = r^2 / (1 + T - t)."""
    return r * r / (1.0 + horizon - t)


def backward_value_from_paths(
    dist: np.ndarray, nt: int, ns: int, psi: np.ndarray
) -> np.ndarray:
    """Value function from the all-pairs path costs: V(i,a) = min_b D + psi."""
    grid = dist.reshape(nt, ns, nt, ns)
    out = np.empty((nt, ns))
    for i in range(nt):
        for a in range(ns):
            out[i, a] = np.min(grid[i, a, nt - 1, :] + psi)
    return out


def stencil_step(
    shape: tuple[int, ...],
    offsets: list[tuple[int, ...]],
    costs,
    arr: np.ndarray,
    sign: int,
) -> np.ndarray:
    """One DP step over the trailing space axes of ``arr``, one shifted copy
    per stencil offset.

    out[..., r] = min over offsets k of arr[..., r + sign*k] + costs[k];
    +inf where no offset stays on the lattice of the given ``shape``.
    """
    out = np.full(arr.shape, POS)
    for off, cost in zip(offsets, costs):
        dst, src = [Ellipsis], [Ellipsis]
        for n, k in zip(shape, off):
            k, size = sign * k, max(0, n - abs(k))
            dst.append(slice(max(0, -k), max(0, -k) + size))
            src.append(slice(max(0, k), max(0, k) + size))
        view = out[tuple(dst)]
        np.minimum(view, arr[tuple(src)] + cost, out=view)
    return out
