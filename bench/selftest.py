"""Self-test of the output checks.

    python3 bench/selftest.py

For each of the 13 subcommands it takes one op of the seed-0 workloads, runs
the CLI on it, and shows that ``check.verify`` accepts the genuine output and
rejects a deliberately corrupted copy (one flipped verdict or one value moved
by 1).  On one fixed l1 ``regress`` input of the known solver stall it shows
that the genuine output fails as that stall alone, which a run excuses, and
that a corrupted copy fails in a way a run does not excuse.  Exits 1 if any
of this does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _bump(values: list, skip_first: bool = False) -> None:
    """Add 1 to the first finite number of a (nested) list, in place."""
    for k, v in enumerate(values):
        if isinstance(v, list):
            if any(isinstance(x, (int, float)) for x in v):
                return _bump(v, skip_first)
            continue
        if isinstance(v, (int, float)) and not (skip_first and k == 0):
            values[k] = v + 1.0
            return
    raise ValueError("no finite value to corrupt")


def _flip(key):
    def corrupt(out):
        out[key] = not out[key]
    return corrupt


CORRUPTIONS = {
    "check-tpsd": _flip("tpsd"),
    "factorize": lambda out: _bump(out["features"]),
    "conjugate": lambda out: _bump(out["values"]),
    "membership": _flip("in_range"),
    "funk": lambda out: _bump(out["matrix"][0], skip_first=True),
    "cg-kernel": lambda out: _bump(out["matrix"][0], skip_first=True),
    "regularity": _flip("von_neumann_regular"),
    "interpolate": lambda out: _bump(out["f0"]["terms"][0]),
    "regress": lambda out: _bump(out["y_star"]),
    "maupertuis": lambda out: _bump(out["matrix"][0], skip_first=True),
    "value-function": lambda out: _bump(out["values"]),
    "invert-stopping-cost": lambda out: _bump(out["y_star"]),
    "invert-terminal-cost": lambda out: _bump(out["psi_T"]),
}


def pick_ops() -> dict:
    """One small, fault-free op per subcommand (feasible interpolation)."""
    chosen = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 0):
            if op.known_fault or op.expect.get("feasible") is False:
                continue
            if op.command not in chosen or chosen[op.command].large > op.large:
                chosen[op.command] = op
    return chosen


def run_op(cli, op, tmp: str) -> tuple[int, str]:
    path = Path(tmp) / "input.json"
    path.write_text(json.dumps(op.payload))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([op.command, "--input", str(path)])
    return code, buf.getvalue()


def main() -> int:
    sys.path.insert(0, str(SRC))
    from tropkern import cli

    import check

    ok = True
    ops = pick_ops()
    with tempfile.TemporaryDirectory() as tmp:
        for command in CORRUPTIONS:
            op = ops[command]
            code, text = run_op(cli, op, tmp)
            genuine = check.verify(op, code, text)
            out = json.loads(text)
            CORRUPTIONS[command](out)
            corrupted = check.verify(op, code, json.dumps(out))
            passed = genuine is None and corrupted is not None
            ok = ok and passed
            print(f"{'ok  ' if passed else 'FAIL'} {command:21s} genuine: "
                  f"{'accepted' if genuine is None else f'REJECTED ({genuine})'}; "
                  f"corrupted: {f'rejected ({corrupted})' if corrupted else 'ACCEPTED'}")

        op = next(op for op in workloads.build("regression", 0) if op.known_fault)
        code, text = run_op(cli, op, tmp)
        genuine = check.verify(op, code, text)
        out = json.loads(text)
        CORRUPTIONS["regress"](out)
        corrupted = check.verify(op, code, json.dumps(out))
        passed = check.excused(op, genuine) and corrupted is not None and not check.excused(op, corrupted)
        ok = ok and passed
        print(f"{'ok  ' if passed else 'FAIL'} {'regress (l1 stall)':21s} "
              f"genuine: excused={check.excused(op, genuine)} ({genuine}); "
              f"corrupted: excused={check.excused(op, corrupted)} ({corrupted})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
