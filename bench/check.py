"""Independent checks of CLI outputs.

Every check recomputes the expected result without calling tropkern: Gram
matrices are evaluated here from the closed forms, verdicts are re-derived
from them, regression losses come from linear programs (scipy HiGHS) and
least-action values from Dijkstra on the layered lattice graph (scipy).
Verdicts that are known by construction (``Op.expect``) are compared too.

This module imports scipy, so the benchmark imports it only after it has
read its peak resident set.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

INF = math.inf
TOL = 1e-9  # relative tolerance on values that are not exact (sqrt, bisection)
LOSS_TOL = 1e-6  # relative tolerance between a fitted loss and the LP optimum


class Mismatch(Exception):
    """An output disagrees with the independent computation."""


class Stall(Mismatch):
    """A regression fit that is valid in every other respect ends with a loss
    above the LP optimum: the l1 stall of the program's solver."""


def verify(op, code: int, text: str) -> Mismatch | None:
    """None if the output of ``op`` is correct, else why it is not."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return Mismatch(f"stdout is not JSON: {exc}")
    try:
        _CHECKS[op.command](op.payload, code, out)
        for key, want in op.expect.items():
            if key in out and out[key] != want:
                raise Mismatch(f"{key} is {out[key]!r}, known by construction to be {want!r}")
    except Mismatch as exc:
        return exc
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return Mismatch(f"malformed output: {type(exc).__name__}: {exc}")
    return None


def excused(op, failure: Mismatch | None) -> bool:
    """True if ``failure`` is the known l1 stall on an op that runs into it;
    any other failure of such an op still makes the run incorrect."""
    return op.known_fault and isinstance(failure, Stall)


# ---------------------------------------------------------------------------
# Extended-real helpers.
# ---------------------------------------------------------------------------


def dec(obj) -> np.ndarray:
    """Decode a (nested) JSON list with "inf"/"-inf" strings."""
    def one(v):
        if v == "inf":
            return INF
        if v == "-inf":
            return -INF
        return float(v)

    if obj and isinstance(obj[0], list):
        return np.array([[one(v) for v in row] for row in obj], dtype=float)
    return np.array([one(v) for v in obj], dtype=float)


def _add(a, b, absorbing: float) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        s = np.asarray(a, dtype=float) + np.asarray(b, dtype=float)
    return np.where(np.isnan(s), absorbing, s)


def lower_add(a, b) -> np.ndarray:
    return _add(a, b, -INF)


def upper_add(a, b) -> np.ndarray:
    return _add(a, b, INF)


def close(a, b, tol: float = TOL) -> np.ndarray:
    """Elementwise: equal infinities, or finite and within tol relative."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        near = np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))
    return (a == b) | (np.isfinite(a) & np.isfinite(b) & near)


def _require(cond, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _require_close(got, want, what: str, tol: float = TOL) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    ok = close(got, want, tol)
    if not ok.all():
        at = tuple(int(i) for i in np.argwhere(~ok)[0])
        raise Mismatch(f"{what}{list(at)} is {got[at]}, expected {want[at]}")


def maxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i,j] = max_k a[i,k] + b[k,j], -inf absorbing; row blocks."""
    out = np.empty((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], 16):
        blk = lower_add(a[i : i + 16, :, None], b[None, :, :])
        out[i : i + 16] = blk.max(axis=1, initial=-INF)
    return out


def conj(g: np.ndarray, f: np.ndarray, sign: float) -> np.ndarray:
    """x -> max_y g[x,y] + sign * f[y], -inf absorbing."""
    return lower_add(g, sign * f[None, :]).max(axis=1, initial=-INF)


# ---------------------------------------------------------------------------
# Kernels, evaluated here from their definitions.
# ---------------------------------------------------------------------------


def points_of(raw) -> np.ndarray:
    return np.array(raw, dtype=float).reshape(len(raw), -1)


def kernel_matrix(spec: dict, rows: np.ndarray | None, cols: np.ndarray | None = None):
    """(row points, matrix) of a kernel spec on explicit points or its own grid."""
    if spec["type"] == "gram":
        return points_of(spec["points"]), dec(spec["matrix"])
    cols = rows if cols is None else cols
    name, params = spec["name"], spec.get("params", {})
    if name == "conv":
        return rows, rows @ cols.T
    d2 = ((rows[:, None, :] - cols[None, :, :]) ** 2).sum(axis=2)
    if name == "sconv":
        return rows, -d2
    if name == "lip":
        return rows, -float(params.get("alpha", 1.0)) * np.sqrt(d2)
    if name == "power_distance":
        return rows, -np.sqrt(d2) ** float(params.get("p", 1.0))
    raise ValueError(f"no reference for kernel {name!r}")


def _domain(payload: dict):
    pts = points_of(payload["points"]) if "points" in payload else None
    return kernel_matrix(payload["kernel"], pts)


# ---------------------------------------------------------------------------
# Kernel verdicts.
# ---------------------------------------------------------------------------


def _asymmetric(g: np.ndarray) -> np.ndarray:
    return ~close(g, g.T)


def _pair_violations(g: np.ndarray) -> np.ndarray:
    d = np.diag(g)
    return d[:, None] + d[None, :] < g + g.T - TOL


def perm_positive(g: np.ndarray, m_max: int) -> bool:
    """Every subset up to m_max and every permutation (full enumeration)."""
    n, d = len(g), np.diag(g)
    for size in range(1, min(m_max, n) + 1):
        subsets = np.array(list(itertools.combinations(range(n), size)))
        lhs = d[subsets].sum(axis=1)
        for sigma in itertools.permutations(range(size)):
            rhs = g[subsets, subsets[:, list(sigma)]].sum(axis=1)
            if np.any(rhs > lhs + TOL):
                return False
    return True


def check_tpsd(payload, code, out):
    _require(code == 0, f"exit code {code}")
    _, g = _domain(payload)
    asym, viol = _asymmetric(g), _pair_violations(g)
    tpsd = not asym.any() and not viol.any()
    _require(out["tpsd"] == tpsd, f"tpsd is {out['tpsd']}, reference says {tpsd}")
    if not tpsd:
        i, j = out["witness"]
        if asym.any():
            _require(out["failure"] == "symmetry" and asym[i, j],
                     f"witness {(i, j)} does not show the asymmetry")
        else:
            _require(out["failure"] == "positivity" and viol[i, j],
                     f"witness {(i, j)} does not violate positivity")
    if "permutation_m_max" in payload:
        want = not asym.any() and perm_positive(g, payload["permutation_m_max"])
        _require(out["permutation_positive"] == want,
                 f"permutation_positive is {out['permutation_positive']}, brute force says {want}")


def check_conjugate(payload, code, out):
    _require(code == 0, f"exit code {code}")
    pts, g = _domain(payload)
    f = dec(payload["values"])
    sign = -1.0 if payload.get("direction", "sesqui") == "sesqui" else 1.0
    _require_close(points_of(out["points"]), pts, "points")
    _require_close(dec(out["values"]), conj(g, f, sign), "values")


def check_membership(payload, code, out):
    _require(code == 0, f"exit code {code}")
    _, g = _domain(payload)
    f = dec(payload["values"])
    bicon = conj(g, conj(g, f, -1.0), -1.0)
    equal = close(f, bicon)
    gap = np.where(equal, 0.0, upper_add(f, -bicon))
    _require_close(dec(out["biconjugate"]), bicon, "biconjugate")
    _require_close(dec(out["gap"]), gap, "gap")
    _require(out["in_range"] == bool(equal.all()), "in_range disagrees with the gap")


def check_funk(payload, code, out):
    _require(code == 0, f"exit code {code}")
    pts, g = _domain(payload)
    want = np.empty_like(g)
    for x in range(g.shape[1]):
        want[x] = lower_add(g[:, x, None], -g).max(axis=0, initial=-INF)
    _require_close(points_of(out["points"]), pts, "points")
    _require_close(dec(out["matrix"]), want, "matrix")


def idempotent(g: np.ndarray) -> bool:
    return bool(close(maxplus(g, g), g).all())


def regular(b: np.ndarray) -> bool:
    """B A* B = B for the greatest A* with B A B <= B (residuation)."""
    n = len(b)
    left = np.empty((n, n))  # min_k b[k,j] - b[k,i]
    for i in range(n):
        left[i] = upper_add(b, -b[:, i, None]).min(axis=0, initial=INF)
    a_star = np.empty((n, n))  # min_k left[i,k] - b[j,k]
    for i in range(n):
        a_star[i] = upper_add(left[i][None, :], -b).min(axis=1, initial=INF)
    return bool(close(maxplus(maxplus(b, a_star), b), b).all())


def check_regularity(payload, code, out):
    _require(code == 0, f"exit code {code}")
    _, g = _domain(payload)
    _require(out["idempotent"] == idempotent(g), "idempotent disagrees with the reference")
    _require(out["von_neumann_regular"] == regular(g), "regularity disagrees with the reference")


def check_cg_kernel(payload, code, out):
    _require(code == 0, f"exit code {code}")
    members = np.stack([dec(m) for m in payload["members"]])
    want = upper_add(members[:, :, None], -members[:, None, :]).min(axis=0)
    got = dec(out["matrix"])
    _require_close(got, want, "matrix")
    _require(out["idempotent"] is True and idempotent(got),
             "c_G must be idempotent by construction")


def check_factorize(payload, code, out):
    _require(code == 0, f"exit code {code}")
    pts, g = _domain(payload)
    psi = dec(out["features"])
    n = len(pts)
    _require(psi.shape == (n, n * n) and len(out["labels"]) == n * n,
             "feature map has the wrong shape")
    _require(not (psi == INF).any(), "features must be < +inf")
    recomposed = np.empty((n, n))
    for x in range(n):
        recomposed[x] = lower_add(psi[x][None, :], psi).max(axis=1, initial=-INF)
    _require_close(recomposed, g, "recomposed kernel")


# ---------------------------------------------------------------------------
# Interpolation and regression.
# ---------------------------------------------------------------------------


def _sample_matrix(payload):
    """Sites, targets, candidates and b(site, candidate)."""
    xs = points_of(payload["samples"]["xs"])
    ys = dec(payload["samples"]["ys"])
    cands = points_of(payload["dual_candidates"])
    return xs, ys, cands, kernel_matrix(payload["kernel"], xs, cands)[1]


def _valid_anchor(bxp: np.ndarray, ys: np.ndarray, m: int, k: int) -> bool:
    """Exchange inequalities y_n - y_m >= b(x_n,p) - b(x_m,p) for anchor k."""
    if not np.isfinite(bxp[m, k]):
        return False
    need = lower_add(bxp[:, k], -bxp[m, k])
    return bool(np.all(ys - ys[m] >= need - TOL * np.maximum(1.0, np.abs(need))))


def _check_f0(out, anchors: np.ndarray, bxp_at_anchor: np.ndarray, ys: np.ndarray):
    _require_close(points_of([t[0] for t in out["f0"]["terms"]]), anchors, "f0 anchors")
    offsets = np.array([t[1] for t in out["f0"]["terms"]], dtype=float)
    _require_close(offsets, ys - np.diag(bxp_at_anchor), "f0 offsets")
    values = lower_add(bxp_at_anchor, offsets[None, :]).max(axis=1)
    _require_close(values, ys, "f0 at the samples", 1e-6)


def check_interpolate(payload, code, out):
    xs, ys, cands, bxp = _sample_matrix(payload)
    n = len(xs)
    if not out["feasible"]:
        _require(code == 1, f"exit code {code} for an infeasible verdict")
        m = out["blocking_index"] - 1
        _require(0 <= m < n, "blocking index out of range")
        _require(not any(_valid_anchor(bxp, ys, m, k) for k in range(len(cands))),
                 f"sample {m} has a valid anchor but is reported blocking")
        for earlier in range(m):
            _require(any(_valid_anchor(bxp, ys, earlier, k) for k in range(len(cands))),
                     f"sample {earlier} blocks before the reported one")
        return
    _require(code == 0, f"exit code {code}")
    idx = out["witness_indices"]
    _require(len(idx) == n, "one witness per sample")
    _require_close(points_of(out["witnesses"]), cands[idx], "witnesses")
    for m, k in enumerate(idx):
        _require(_valid_anchor(bxp, ys, m, k), f"anchor {k} of sample {m} violates the exchange inequalities")
    _check_f0(out, cands[idx], bxp[:, idx], ys)
    _require_close(dec(out["values_at_xs"]), ys, "values_at_xs")


def _gaps(bxa: np.ndarray) -> np.ndarray:
    """gap[a, m] = b(x_a, p_m) - b(x_m, p_m) for anchors p_m (column m)."""
    gaps = lower_add(bxa, -np.diag(bxa)[None, :])
    np.fill_diagonal(gaps, -INF)
    return gaps


def lp_fit(gaps: np.ndarray, ybar: np.ndarray, loss: str) -> float:
    """min loss(y - ybar) s.t. y_a - y_m >= gaps[a, m]; +inf if infeasible."""
    n = len(ybar)
    if (gaps == INF).any():
        return INF
    a_idx, m_idx = np.nonzero(gaps > -INF)
    extra = 1 if loss == "sup_norm" else n
    diffs = np.zeros((len(a_idx), n + extra))  # y_m - y_a <= -gap
    diffs[np.arange(len(a_idx)), m_idx] += 1.0
    diffs[np.arange(len(a_idx)), a_idx] -= 1.0
    dev = np.zeros((2 * n, n + extra))  # +-(y_i - ybar_i) <= t
    dev[np.arange(n), np.arange(n)] = 1.0
    dev[n + np.arange(n), np.arange(n)] = -1.0
    t_col = np.full(n, n) if loss == "sup_norm" else n + np.arange(n)
    dev[np.arange(n), t_col] = -1.0
    dev[n + np.arange(n), t_col] = -1.0
    b_ub = np.concatenate([-gaps[a_idx, m_idx], ybar, -ybar])
    cost = np.zeros(n + extra)
    cost[n:] = 1.0
    res = linprog(cost, A_ub=np.vstack([diffs, dev]), b_ub=b_ub,
                  bounds=[(None, None)] * n + [(0, None)] * extra, method="highs")
    if res.status == 2:
        return INF
    if res.status != 0:
        raise Mismatch(f"reference LP failed: {res.message}")
    return float(res.fun)


def _loss(y, ybar, loss):
    dev = np.abs(np.asarray(y) - ybar)
    return float(dev.max() if loss == "sup_norm" else dev.sum())


def check_regress(payload, code, out):
    _require(code == 0 and out["feasible"], f"exit code {code}, feasible={out.get('feasible')}")
    loss = payload["loss"]  # the workloads write "sup_norm" or "l1"
    xs, ys, cands, bxp = _sample_matrix(payload)
    anchors = points_of(out["witnesses"])
    bxa = kernel_matrix(payload["kernel"], xs, anchors)[1]
    y_star = dec(out["y_star"])
    gaps = _gaps(bxa)
    slack = y_star[:, None] - y_star[None, :] - gaps
    _require(np.all(slack >= -TOL * np.maximum(1.0, np.abs(gaps))),
             "fitted targets violate the exchange constraints of their anchors")
    _require_close(out["loss_value"], _loss(y_star, ys, loss), "loss_value")
    _check_f0(out, anchors, bxa, y_star)
    mode = payload.get("mode", "search")
    if isinstance(mode, dict):
        _require_close(anchors, points_of(mode["fixed_p"]), "anchors")
        best = lp_fit(gaps, ys, loss)
        _require(out["exact"] == (loss == "sup_norm"), "exact flag")
    else:
        best = INF
        usable = [np.flatnonzero(bxp[m] > -INF) for m in range(len(xs))]
        for combo in itertools.product(*usable):
            best = min(best, lp_fit(_gaps(bxp[:, list(combo)]), ys, loss))
    if out["loss_value"] - best > LOSS_TOL * max(1.0, best):
        raise Stall(f"loss {out['loss_value']} is above the optimum {best}")
    _require(abs(out["loss_value"] - best) <= LOSS_TOL * max(1.0, best),
             f"loss {out['loss_value']} is not the optimum {best}")


# ---------------------------------------------------------------------------
# Least action: Dijkstra on the layered lattice graph.
# ---------------------------------------------------------------------------


def _grid(g: dict) -> np.ndarray:
    """A uniform axis {start, stop, num}, as the workloads write them."""
    step = (g["stop"] - g["start"]) / (g["num"] - 1)
    return g["start"] + step * np.arange(g["num"])


class Lattice:
    """Time x space lattice of a problem spec, with its one-step edges."""

    def __init__(self, spec: dict):
        self.times = _grid(spec["time_grid"])
        sg = spec["space_grid"]
        self.axes = [_grid(a) for a in sg["axes"]] if "axes" in sg else [_grid(sg)]
        self.shape = tuple(len(a) for a in self.axes)
        self.nt, self.ns = len(self.times), int(np.prod(self.shape))
        dt = self.times[1] - self.times[0]
        steps = [a[1] - a[0] for a in self.axes]
        name = spec["lagrangian"]["name"]
        grid_idx = np.indices(self.shape).reshape(len(self.shape), -1).T
        src, dst, wts = [], [], []
        for disp in spec["stencil"]:
            off = np.array([round(c / s) for c, s in zip(disp, steps)])
            vel = np.asarray(disp, dtype=float) / dt
            cost = dt * float(vel @ vel if name == "quadratic" else np.abs(vel).sum())
            tgt = grid_idx + off
            ok = np.all((tgt >= 0) & (tgt < np.array(self.shape)), axis=1)
            a = np.flatnonzero(ok)
            b = np.ravel_multi_index(tgt[ok].T, self.shape)
            for i in range(self.nt - 1):
                src.append(i * self.ns + a)
                dst.append((i + 1) * self.ns + b)
                wts.append(np.full(len(a), cost))
        self.src, self.dst, self.w = map(np.concatenate, (src, dst, wts))

    def space_points(self) -> np.ndarray:
        return np.stack([g.ravel() for g in np.meshgrid(*self.axes, indexing="ij")], axis=1)

    def spacetime_points(self) -> np.ndarray:
        space = self.space_points()
        t = np.repeat(self.times, self.ns)[:, None]
        return np.hstack([t, np.tile(space, (self.nt, 1))])

    def all_pairs(self) -> np.ndarray:
        n = self.nt * self.ns
        graph = csr_matrix((self.w, (self.src, self.dst)), shape=(n, n))
        return dijkstra(graph, directed=True)

    def cost_to_go(self, psi: np.ndarray) -> np.ndarray:
        """V = min over paths to the final slice of cost + psi, all nodes."""
        n = self.nt * self.ns
        finite = np.flatnonzero(np.isfinite(psi))
        shift = psi[finite].min()
        sink = n
        rows = np.concatenate([self.dst, np.full(len(finite), sink)])
        cols = np.concatenate([self.src, (self.nt - 1) * self.ns + finite])
        # Reversed edges, plus sink -> final slice; all weights are >= 0.
        w = np.concatenate([self.w, psi[finite] - shift])
        graph = csr_matrix((w, (rows, cols)), shape=(n + 1, n + 1))
        dist = dijkstra(graph, directed=True, indices=sink)[:n]
        return dist + shift


def check_maupertuis(payload, code, out):
    _require(code == 0, f"exit code {code}")
    lat = Lattice(payload["problem"])
    d = lat.all_pairs()
    t = np.repeat(np.arange(lat.nt), lat.ns)
    want = np.where(t[:, None] < t[None, :], -d, -INF)
    want = np.maximum(want, want.T)
    np.fill_diagonal(want, 0.0)
    if payload.get("asymmetric", False):
        want = np.where(t[None, :] < t[:, None], -INF, want)
    _require_close(points_of(out["points"]), lat.spacetime_points(), "points")
    _require_close(dec(out["matrix"]), want, "matrix")


def check_value_function(payload, code, out):
    _require(code == 0, f"exit code {code}")
    lat = Lattice(payload["problem"])
    v = lat.cost_to_go(dec(payload["terminal_values"]))
    _require_close(points_of(out["points"]), lat.spacetime_points(), "points")
    _require_close(dec(out["values"]), v, "values")
    if payload.get("check_extremal", False):
        _require(out["largest_subsolution"] is True,
                 "the value function must be the largest subsolution")


def check_invert_stopping_cost(payload, code, out):
    _require(code == 0, f"exit code {code}")
    pts, g = kernel_matrix(payload["kernel"], None)
    xs = points_of(payload["samples"]["xs"])
    ys = dec(payload["samples"]["ys"])
    idx = [int(np.flatnonzero(np.all(pts == x, axis=1))[0]) for x in xs]
    y_star = dec(out["y_star"])
    w = np.full(len(pts), INF)
    w[idx] = -y_star
    _require_close(dec(out["stopping_cost"]), w, "stopping_cost")
    _require_close(out["loss_value"], _loss(y_star, ys, "sup_norm"), "loss_value")
    # Round trip: the cost-to-go rebuilt from w reproduces the fit.
    regenerated = conj(g[idx], w, -1.0)
    _require_close(regenerated, y_star, "regenerated samples", 1e-6)
    best = lp_fit(_gaps(g[np.ix_(idx, idx)]), ys, "sup_norm")
    _require(abs(out["loss_value"] - best) <= LOSS_TOL * max(1.0, best),
             f"loss {out['loss_value']} is not the optimum {best}")


def check_invert_terminal_cost(payload, code, out):
    _require(code == 0 and out["feasible"], f"exit code {code}")
    _require("start_index" not in payload, "checks cover start_index 0 only")
    lat = Lattice(payload["problem"])
    space = lat.space_points()
    _require_close(points_of(out["points"]), space, "points")
    psi = dec(out["psi_T"])
    finite = set(np.flatnonzero(np.isfinite(psi)).tolist())
    _require(finite <= set(out["witness_indices"]), "psi_T is finite off the witnesses")
    xs = points_of(payload["samples"]["xs"])
    idx = [int(np.flatnonzero(np.all(space == x, axis=1))[0]) for x in xs]
    v0 = lat.cost_to_go(psi)[: lat.ns]
    _require_close(-v0[idx], dec(payload["samples"]["ys"]), "round-trip samples")


_CHECKS = {
    "check-tpsd": check_tpsd,
    "conjugate": check_conjugate,
    "membership": check_membership,
    "funk": check_funk,
    "regularity": check_regularity,
    "cg-kernel": check_cg_kernel,
    "factorize": check_factorize,
    "interpolate": check_interpolate,
    "regress": check_regress,
    "maupertuis": check_maupertuis,
    "value-function": check_value_function,
    "invert-stopping-cost": check_invert_stopping_cost,
    "invert-terminal-cost": check_invert_terminal_cost,
}
