"""Seeded inputs for the three benchmark workloads.

A workload is a fixed round of CLI operations.  ``build(workload, seed)``
returns the round as a list of ``Op``; the seed changes the values in the
inputs (points, targets, terminal costs), never the mix, the sizes or the
order, so every seed costs about the same.  All inputs lie on integer or
dyadic grids, so the program's results and the checks in ``check.py`` can be
compared exactly or to a tight tolerance.

Each round holds 20 operations: 15 in a small class and 5 in a large class.
The median latency therefore falls in the small class and the 90th percentile
in the large one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("kernel-ops", "regression", "least-action")

# Sizes per class.  Large kernel ops use n=240 rather than the n=300 of the
# original sizing so that a 20 s run still completes five whole rounds, which
# gives the 90th percentile ten samples beyond it.
KERNEL_SMALL_N = 60
KERNEL_LARGE_N = 240

# Seed of the fixed l1 instances: they do not depend on --seed (see
# ``_fixed_l1_ops``).
FIXED_L1_SEED = 20220236
# Seed of the sites and anchors of the seeded regression fits.
GEOMETRY_SEED = 2202

INF = float("inf")


@dataclass
class Op:
    """One CLI call of a round.

    Attributes:
        label: Short description (subcommand, kernel, size).
        command: The tropkern subcommand.
        payload: The JSON input document.
        large: Whether the op belongs to the large class of the mix.
        expect: Verdicts known by construction, checked besides the
            independent recomputation.
        known_fault: The op runs into the l1 stall of the regression solver;
            its failures are counted in ``failed`` without making the run
            incorrect.
    """

    label: str
    command: str
    payload: dict
    large: bool = False
    expect: dict = field(default_factory=dict)
    known_fault: bool = False


def build(workload: str, seed: int) -> list[Op]:
    """The round of operations of one workload for one seed."""
    builders = {
        "kernel-ops": _kernel_ops,
        "regression": _regression,
        "least-action": _least_action,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = builders[workload](rng)
    assert len(ops) == 20 and sum(op.large for op in ops) == 5
    return ops


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def _enc(v: float) -> float | str:
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return float(v)


def _enc_list(values) -> list:
    return [_enc(float(v)) for v in values]


def _grid1(rng, n: int) -> np.ndarray:
    """n distinct sorted points, multiples of 1/2 in [-n, n)."""
    return np.sort(rng.choice(np.arange(-2 * n, 2 * n), n, replace=False)) / 2.0


def _grid2(rng, n: int) -> np.ndarray:
    """n distinct integer points of a centred square box, as (n, 2)."""
    side = int(np.ceil(np.sqrt(2 * n)))
    cells = np.sort(rng.choice(side * side, n, replace=False))
    return np.stack([cells // side - side // 2, cells % side - side // 2], axis=1).astype(float)


def _pts(arr: np.ndarray) -> list:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        return [[float(v)] for v in arr]
    return [[float(c) for c in row] for row in arr]


def _closed(name: str, **params) -> dict:
    return {"type": "closed_form", "name": name, "params": params}


def _gram(points: np.ndarray, matrix: np.ndarray) -> dict:
    return {
        "type": "gram",
        "points": _pts(points),
        "matrix": [_enc_list(row) for row in matrix],
    }


# ---------------------------------------------------------------------------
# kernel-ops: the dense path (materialization, n^3 products, n^2 JSON).
# ---------------------------------------------------------------------------


def _lip_blocks_with_conv3(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal Gram: -|x-y| blocks plus the 3-point conv block.

    Off-block entries are -inf, so the matrix is regular iff every block is.
    The -|x-y| blocks are idempotent; the conv block on {-1, 0, 1} is neither
    idempotent nor regular, hence the whole matrix is neither.
    """
    points = np.arange(n, dtype=float)
    matrix = np.full((n, n), -INF)
    start, block = 0, 19
    while start < n - 3:
        stop = min(start + block, n - 3)
        idx = np.arange(start, stop)
        matrix[np.ix_(idx, idx)] = -np.abs(points[idx, None] - points[None, idx])
        start = stop
    conv3 = np.array([-1.0, 0.0, 1.0])
    matrix[n - 3 :, n - 3 :] = conv3[:, None] * conv3[None, :]
    return points, matrix


def _convex_on(xs: np.ndarray, slopes: np.ndarray, rng) -> np.ndarray:
    """max_k x . p_k + c_k: a member of the conv kernel's range."""
    offsets = rng.integers(-20, 21, len(slopes)).astype(float)
    return np.max(xs @ slopes.T + offsets[None, :], axis=1)


def _kernel_ops(rng) -> list[Op]:
    s, big = KERNEL_SMALL_N, KERNEL_LARGE_N
    ops: list[Op] = []

    def add(label, command, payload, large=False, **expect):
        ops.append(Op(label, command, payload, large, expect))

    p1 = _grid1(rng, s)
    add("check-tpsd conv 1d", "check-tpsd",
        {"kernel": _closed("conv"), "points": _pts(p1)}, tpsd=True)
    p2 = _grid2(rng, s)
    add("check-tpsd sconv 2d", "check-tpsd",
        {"kernel": _closed("sconv"), "points": _pts(p2)}, tpsd=True)
    sym = rng.integers(-9, 1, (s, s)).astype(float)
    sym = np.triu(sym) + np.triu(sym, 1).T
    add("check-tpsd gram random", "check-tpsd",
        {"kernel": _gram(_grid1(rng, s), sym)})
    add("check-tpsd lip 1d perm<=2", "check-tpsd",
        {"kernel": _closed("lip", alpha=2.0), "points": _pts(_grid1(rng, s)),
         "permutation_m_max": 2}, tpsd=True, permutation_positive=True)
    add("check-tpsd power 1d perm<=3", "check-tpsd",
        {"kernel": _closed("power_distance", p=3.0), "points": _pts(_grid1(rng, 40)),
         "permutation_m_max": 3}, tpsd=True, permutation_positive=True)

    p1 = _grid1(rng, s)
    add("conjugate conv 1d", "conjugate",
        {"kernel": _closed("conv"), "points": _pts(p1),
         "values": _enc_list(rng.integers(-20, 21, s))})
    p2 = _grid2(rng, s)
    vals = rng.integers(-20, 21, s).astype(float)
    vals[rng.choice(s, 3, replace=False)] = INF
    add("conjugate lip 2d linear", "conjugate",
        {"kernel": _closed("lip"), "points": _pts(p2), "values": _enc_list(vals),
         "direction": "linear"})

    p1 = _grid1(rng, s)
    slopes = p1[rng.choice(s, 6, replace=False)][:, None]
    add("membership conv 1d in-range", "membership",
        {"kernel": _closed("conv"), "points": _pts(p1),
         "values": _enc_list(_convex_on(p1[:, None], slopes, rng))}, in_range=True)
    add("membership conv 1d random", "membership",
        {"kernel": _closed("conv"), "points": _pts(_grid1(rng, s)),
         "values": _enc_list(rng.integers(-20, 21, s))})

    add("funk sconv 1d", "funk",
        {"kernel": _closed("sconv"), "points": _pts(_grid1(rng, s))})
    pg = _grid1(rng, s)
    add("funk gram lip", "funk",
        {"kernel": _gram(pg, -np.abs(pg[:, None] - pg[None, :]))})

    add("regularity lip 1d", "regularity",
        {"kernel": _closed("lip"), "points": _pts(_grid1(rng, s))},
        idempotent=True, von_neumann_regular=True)
    bp, bm = _lip_blocks_with_conv3(s)
    add("regularity gram blocks+conv3", "regularity",
        {"kernel": _gram(bp, bm)}, idempotent=False, von_neumann_regular=False)

    add("cg-kernel 4 members", "cg-kernel",
        {"points": _pts(_grid1(rng, s)),
         "members": [_enc_list(rng.integers(-20, 21, s)) for _ in range(4)]},
        idempotent=True)
    add("factorize lip 1d n=30", "factorize",
        {"kernel": _closed("lip"), "points": _pts(_grid1(rng, 30))})

    # Large class.
    add("check-tpsd sconv 2d", "check-tpsd",
        {"kernel": _closed("sconv"), "points": _pts(_grid2(rng, big))},
        large=True, tpsd=True)
    add("regularity lip 2d", "regularity",
        {"kernel": _closed("lip"), "points": _pts(_grid2(rng, big))},
        large=True, idempotent=True, von_neumann_regular=True)
    add("funk conv 1d", "funk",
        {"kernel": _closed("conv"), "points": _pts(_grid1(rng, big))}, large=True)
    p1 = _grid1(rng, big)
    add("membership sconv 1d", "membership",
        {"kernel": _closed("sconv"), "points": _pts(p1),
         "values": _enc_list(rng.integers(-40, 41, big))}, large=True)
    add("conjugate power 2d", "conjugate",
        {"kernel": _closed("power_distance", p=2.0), "points": _pts(_grid2(rng, big)),
         "values": _enc_list(rng.integers(-40, 41, big))}, large=True)
    return ops


# ---------------------------------------------------------------------------
# regression: representer solvers (Bellman-Ford bisection, anchor search).
# ---------------------------------------------------------------------------


def _sample_xs(rng, n: int) -> np.ndarray:
    return np.sort(rng.choice(np.arange(-2 * n, 2 * n), n, replace=False)).astype(float)


def _interpolate_op(rng, n: int, convex: bool, large: bool = False) -> Op:
    """conv kernel with integer candidate slopes -8..8.

    Convex data built from candidate slopes is feasible; its negation is
    concave and blocked.
    """
    xs = _sample_xs(rng, n)
    cands = np.arange(-8, 9, dtype=float)
    slopes = np.sort(rng.choice(cands, 6, replace=False))
    ys = np.max(slopes[None, :] * xs[:, None] + rng.integers(-20, 21, 6)[None, :], axis=1)
    if not convex:
        ys = -ys
    return Op(
        f"interpolate conv {'convex' if convex else 'concave'} n={n}",
        "interpolate",
        {"kernel": _closed("conv"),
         "samples": {"xs": _pts(xs), "ys": _enc_list(ys)},
         "dual_candidates": _pts(cands)},
        large,
        {"feasible": convex},
    )


def _fixed_regress_payload(geometry, targets, n: int, loss: str) -> dict:
    """Fixed sorted-slope anchors: the exchange system is always feasible.

    Sites and anchors come from ``geometry``, targets from ``targets``.  The
    run time of the bisection depends mostly on the geometry (its CV across
    random geometries is about 0.2 at n=50, against 0.07 across targets), so
    seeded ops keep a fixed geometry per slot and draw only the targets.
    """
    xs = _sample_xs(geometry, n)
    ys = targets.integers(-30, 31, n).astype(float)
    slopes = np.sort(geometry.choice(np.arange(-2 * n, 2 * n), n, replace=False)) / 4.0
    return {"kernel": _closed("conv"),
            "samples": {"xs": _pts(xs), "ys": _enc_list(ys)},
            "dual_candidates": _pts(slopes),
            "loss": loss,
            "mode": {"fixed_p": _pts(slopes)}}


def _search_regress_payload(geometry, targets, n: int, k: int, loss: str) -> dict:
    xs = np.sort(geometry.choice(np.arange(-10, 11), n, replace=False)).astype(float)
    ys = targets.integers(-10, 11, n).astype(float)
    cands = np.sort(geometry.choice(np.arange(-4, 5), k, replace=False)).astype(float)
    return {"kernel": _closed("conv"),
            "samples": {"xs": _pts(xs), "ys": _enc_list(ys)},
            "dual_candidates": _pts(cands),
            "loss": loss,
            "mode": "search"}


def _geometry(slot: int):
    """Seed-independent generator for the sites and anchors of one op slot."""
    return np.random.default_rng([GEOMETRY_SEED, slot])


def _fixed_l1_ops() -> list[Op]:
    """l1 fits on inputs that do not depend on --seed.

    The l1 solver's coordinate descent stalls short of the LP optimum on
    these three instances, so they fail on every run; with fixed inputs the
    failed share is the same in every run.  Seeded l1 instances are left out:
    every seeded n=20 fixed-anchor fit tried stalled too, in 7 ms to 5 s, and
    search mode stalls on some seeds only (34 of 300 at 5 samples x 3
    candidates).  The seed below gives instances that fail fast.
    """
    rng = np.random.default_rng(FIXED_L1_SEED)
    ops = [Op("regress l1 fixed-anchor n=20 (fixed input)", "regress",
              _fixed_regress_payload(rng, rng, 20, "l1"), known_fault=True)
           for _ in range(2)]
    ops.append(Op("regress l1 search 5x3 (fixed input)", "regress",
                  _search_regress_payload(rng, rng, 5, 3, "l1"), known_fault=True))
    return ops


def _regression(rng) -> list[Op]:
    """Small class: the median falls in the block of seven n=60 interpolations.

    Large class: the three n=200 interpolations are the largest ops, so the
    90th percentile (the 2R-th largest of R rounds' samples) lies inside their
    3R samples rather than on the edge between two kinds of op; the two n=40
    sup-norm fits take about 0.6 of an interpolation.
    """
    ops: list[Op] = [
        _interpolate_op(rng, 50, convex=False),
        _interpolate_op(rng, 200, convex=False),
    ]
    ops += [_interpolate_op(rng, 60, convex=True) for _ in range(7)]
    for slot in range(2):
        ops.append(Op("regress sup fixed-anchor n=20", "regress",
                      _fixed_regress_payload(_geometry(slot), rng, 20, "sup_norm")))
    ops.append(Op("regress sup search 4x3", "regress",
                  _search_regress_payload(_geometry(2), rng, 4, 3, "sup_norm")))
    ops.extend(_fixed_l1_ops())
    # Large class.
    ops += [_interpolate_op(rng, 200, convex=True, large=True) for _ in range(3)]
    for slot in (3, 5):  # at n=50 the two slowest of geometries 3-12
        ops.append(Op("regress sup fixed-anchor n=40", "regress",
                      _fixed_regress_payload(_geometry(slot), rng, 40, "sup_norm"), large=True))
    return ops


# ---------------------------------------------------------------------------
# least-action: dense DP step matrices and MB-scale grid outputs.
# ---------------------------------------------------------------------------

STEP = 0.125  # time step and lattice step: velocities and costs are dyadic


def _problem(nt: int, ns: int, dim: int = 1, lagrangian: str = "quadratic",
             reach: int = 1) -> dict:
    half = (ns - 1) * STEP / 2
    axis = {"start": -half, "stop": half, "num": ns}
    offsets = range(-reach, reach + 1)
    if dim == 1:
        space, stencil = axis, [[k * STEP] for k in offsets]
    else:
        space = {"axes": [axis, axis]}
        stencil = [[a * STEP, b * STEP] for a in offsets for b in offsets]
    return {"time_grid": {"start": 0.0, "stop": (nt - 1) * STEP, "num": nt},
            "space_grid": space,
            "lagrangian": {"name": lagrangian},
            "stencil": stencil}


def _terminal(rng, count: int) -> list:
    return _enc_list(rng.integers(0, 17, count) / 2.0)


def _value_function_op(rng, nt, ns, dim=1, large=False, check_extremal=False,
                       **problem) -> Op:
    payload = {"problem": _problem(nt, ns, dim, **problem),
               "terminal_values": _terminal(rng, ns ** dim)}
    label = f"value-function {dim}d {nt}x{ns}{'^2' if dim == 2 else ''}"
    expect = {}
    if check_extremal:
        payload["check_extremal"] = True
        label += " check_extremal"
        expect["largest_subsolution"] = True
    return Op(label, "value-function", payload, large, expect)


def _cost_to_go_1d(problem: dict, psi: np.ndarray, steps: int) -> np.ndarray:
    """Backward DP over ``steps`` time steps by stencil shifts (1-D).

    Generation uses numpy only: scipy (and ``check.py``) must not be
    imported before the run has read its peak resident set.
    """
    ns = len(psi)
    dt = problem["time_grid"]["stop"] / (problem["time_grid"]["num"] - 1)
    quad = problem["lagrangian"]["name"] == "quadratic"
    v = psi.copy()
    for _ in range(steps):
        nxt = np.full(ns, INF)
        for (disp,) in problem["stencil"]:
            k = int(round(disp / STEP))
            vel = disp / dt
            cost = dt * (vel * vel if quad else abs(vel))
            lo, hi = max(0, -k), ns - max(0, k)
            nxt[lo:hi] = np.minimum(nxt[lo:hi], cost + v[lo + k : hi + k])
        v = nxt
    return v


def _invert_terminal_op(rng, nt: int, ns: int, n_samples: int, large=False) -> Op:
    """Samples of -V(t_0, .) for a random terminal cost: always consistent."""
    problem = _problem(nt, ns, reach=2)
    psi = rng.integers(0, 17, ns) / 2.0
    v0 = _cost_to_go_1d(problem, psi, nt - 1)
    half = (ns - 1) * STEP / 2
    idx = np.sort(rng.choice(ns, n_samples, replace=False))
    xs = -half + idx * STEP
    return Op(f"invert-terminal-cost 1d {nt}x{ns}", "invert-terminal-cost",
              {"problem": problem,
               "samples": {"xs": _pts(xs), "ys": _enc_list(-v0[idx])}},
              large, {"feasible": True})


def _invert_stopping_op(rng, n: int, n_samples: int, consistent: bool) -> Op:
    """Idempotent zero-diagonal Gram -|x-y| on n integer points.

    Consistent targets are values of a range element, so the fit has loss
    0; otherwise the targets are random integers.
    """
    points = np.arange(n, dtype=float)
    matrix = -np.abs(points[:, None] - points[None, :])
    idx = np.sort(rng.choice(n, n_samples, replace=False))
    if consistent:
        anchors = rng.choice(n, 4, replace=False)
        ys = np.max(matrix[np.ix_(idx, anchors)] + rng.integers(-10, 11, 4), axis=1)
    else:
        ys = rng.integers(-10, 11, n_samples).astype(float)
    return Op(f"invert-stopping-cost gram n={n} {'consistent' if consistent else 'random'}",
              "invert-stopping-cost",
              {"kernel": _gram(points, matrix),
               "samples": {"xs": _pts(points[idx]), "ys": _enc_list(ys)}},
              expect={"loss_value": 0.0} if consistent else {})


def _least_action(rng) -> list[Op]:
    ops: list[Op] = [
        _value_function_op(rng, 17, 33),
        _value_function_op(rng, 33, 65, reach=2),
        _value_function_op(rng, 17, 41, lagrangian="absolute"),
        _value_function_op(rng, 9, 15, dim=2),
        _value_function_op(rng, 9, 21, dim=2, lagrangian="absolute"),
        _value_function_op(rng, 5, 17, check_extremal=True),
        Op("maupertuis 1d 9x17", "maupertuis", {"problem": _problem(9, 17)}),
        Op("maupertuis 1d 5x33 asymmetric", "maupertuis",
           {"problem": _problem(5, 33, reach=2), "asymmetric": True}),
        _invert_stopping_op(rng, 100, 12, consistent=True),
        _invert_stopping_op(rng, 100, 12, consistent=False),
        _invert_terminal_op(rng, 9, 33, 8),
        _invert_terminal_op(rng, 17, 41, 10),
        _value_function_op(rng, 9, 65),
        _value_function_op(rng, 65, 33, lagrangian="absolute"),
        Op("maupertuis 1d 5x21 absolute", "maupertuis",
           {"problem": _problem(5, 21, lagrangian="absolute")}),
    ]
    # Large class.  Below the check_extremal op, the two 11x41^2 value
    # functions and the 11x61 maupertuis op take about the same time, so the
    # 90th percentile (the 2R-th largest of R rounds' samples) lies inside
    # their 3R samples rather than on the edge between two kinds of op.
    ops += [
        _value_function_op(rng, 11, 41, dim=2, large=True),
        _value_function_op(rng, 11, 41, dim=2, large=True, lagrangian="absolute"),
        Op("maupertuis 1d 11x61", "maupertuis", {"problem": _problem(11, 61)}, large=True),
        _value_function_op(rng, 9, 41, large=True, check_extremal=True),
        _invert_terminal_op(rng, 21, 61, 12, large=True),
    ]
    return ops
