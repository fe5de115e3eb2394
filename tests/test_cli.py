"""End-to-end command-line tests: JSON in, JSON/CSV out, exit codes."""

import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropkern
from tropkern.cli import (
    _BLOCK, _RUNS_MIN, COMMANDS, RunConfig, _SchemaError, _array_parts, _csv_lines, _dump_json,
    _points, run, main,
)
from tropkern.control import MaupertuisProblem, maupertuis_dp
from tropkern.core import NEG_INF, POS_INF, PointSet, decode_values, encode_values
from tropkern.kernels import ClosedFormKernel, kernel_from_spec
from oracles import lp_regression

BIPARTITE_5 = [
    [0, -1, 0, 0, 0],
    [-1, 0, 0, 0, 0],
    [0, 0, 0, -1, -1],
    [0, 0, -1, 0, -1],
    [0, 0, -1, -1, 0],
]

CONV = {"type": "closed_form", "name": "conv", "params": {}}
LIP = {"type": "closed_form", "name": "lip", "params": {}}

PROBLEM_4X5 = {
    "time_grid": [0.0, 0.25, 0.5, 0.75],
    "space_grid": [-0.5, -0.25, 0.0, 0.25, 0.5],
    "lagrangian": {"name": "quadratic"},
    "stencil": [[-0.25], [0.0], [0.25]],
}

GRAM_3 = {
    "type": "gram",
    "points": [[0.0], [1.0], [2.0]],
    "matrix": [[0, -1, -2], [-1, 0, -1], [-2, -1, 0]],
}

# One input per subcommand, with its expected stdout bytes and exit code.
GOLDEN = Path(__file__).resolve().parent / "golden"

# 2 x 600 spacetime points: the maupertuis pair guard refuses it (exit 1).
PAIR_GUARD_PROBLEM = {
    "time_grid": [0.0, 1.0],
    "space_grid": {"start": 0.0, "stop": 1.0, "num": 600},
    "lagrangian": {"name": "quadratic"},
    "stencil": [[0.0]],
}


# Staying put costs -1 per step, so the causal least-action kernel has
# positive entries; the extremal check refuses it after its first two tests.
NEGATIVE_COST_PROBLEM = {
    "time_grid": [0.0, 0.5, 1.0],
    "space_grid": [0.0, 0.5, 1.0],
    "lagrangian": {"name": "table", "velocities": [[-1.0], [0.0], [1.0]],
                   "costs": [1.0, -1.0, 1.0]},
    "stencil": [[-0.5], [0.0], [0.5]],
    "require_nonneg": False,
}

def invoke(capsys, tmp_path, command, payload, **flags):
    """Run one subcommand in-process; returns (exit code, parsed stdout)."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = [command, "--input", str(path)]
    for flag, value in flags.items():
        argv += [f"--{flag}", str(value)]
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def module_env(hash_seed):
    """Environment for ``python -m tropkern`` in a fresh interpreter.

    ``PYTHONPATH`` starts with the absolute directory holding the imported
    package, so the child runs the same code whatever the cwd or install
    state; ``PYTHONHASHSEED`` is set per run so an inherited fixed seed
    cannot hide hash-order nondeterminism.
    """
    package_root = str(Path(tropkern.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    env["PYTHONHASHSEED"] = hash_seed
    return env


def lip_gram_spec(points):
    matrix = [[-abs(a - b) for b in points] for a in points]
    return {"type": "gram", "points": [[p] for p in points], "matrix": matrix}


class TestPinnedVerdicts:
    def test_check_tpsd_bipartite(self, capsys, tmp_path):
        payload = {
            "kernel": {
                "type": "gram",
                "points": [[i] for i in range(5)],
                "matrix": BIPARTITE_5,
            }
        }
        code, out = invoke(capsys, tmp_path, "check-tpsd", payload)
        assert code == 0
        assert out == {"tpsd": True}

    def test_check_tpsd_with_permutation_bound(self, capsys, tmp_path):
        payload = {
            "kernel": {
                "type": "gram",
                "points": [[i] for i in range(5)],
                "matrix": BIPARTITE_5,
            },
            "permutation_m_max": 5,
        }
        code, out = invoke(capsys, tmp_path, "check-tpsd", payload)
        assert code == 0
        assert out == {"tpsd": True, "permutation_positive": True}

    @pytest.mark.parametrize(
        "matrix, failure", [([[0, 1], [0, 0]], "symmetry"), ([[0, 1], [1, 0]], "positivity")]
    )
    def test_check_tpsd_negative_verdicts(self, capsys, tmp_path, matrix, failure):
        payload = {
            "kernel": {"type": "gram", "points": [[0], [1]], "matrix": matrix},
            "permutation_m_max": 2,
        }
        code, out = invoke(capsys, tmp_path, "check-tpsd", payload)
        assert code == 0
        assert out == {
            "tpsd": False, "failure": failure, "witness": [0, 1], "permutation_positive": False,
        }

    def test_check_tpsd_permutation_bound_above_eight(self, capsys, tmp_path):
        payload = {
            "kernel": LIP,
            "points": [[0.25 * i] for i in range(60)],
            "permutation_m_max": 9,
        }
        code, out = invoke(capsys, tmp_path, "check-tpsd", payload)
        assert code == 0
        assert out["permutation_positive"] == out["tpsd"]

    def test_regularity_conv_three_points(self, capsys, tmp_path):
        payload = {"kernel": CONV, "points": [[-1.0], [0.0], [1.0]]}
        code, out = invoke(capsys, tmp_path, "regularity", payload)
        assert code == 0
        assert out == {"idempotent": False, "von_neumann_regular": False}

    def test_regularity_idempotent_within_tol_yet_not_regular(self, capsys, tmp_path):
        # The scaled C has a squaring defect of 9e-10 <= tol, but its best
        # candidate misses it by 1.35e-9 > tol.
        c = np.array([[1.0, -1.0, -3.0], [-2.0, -1.0, 0.0], [-4.0, -4.0, 1.0]]) * 4.5e-10
        payload = {
            "kernel": {"type": "gram", "points": [[0.0], [1.0], [2.0]], "matrix": c.tolist()}
        }
        code, out = invoke(capsys, tmp_path, "regularity", payload, tol=1e-9)
        assert code == 0
        assert out == {"idempotent": True, "von_neumann_regular": False}

    def test_regularity_of_an_exact_square_at_tol_zero(self, capsys, tmp_path):
        # The float square equals the matrix entry for entry, so the matrix
        # is its own witness, whatever the residuation rounds to.
        payload = {"kernel": LIP, "points": [[0.1], [0.2], [0.5]]}
        code, out = invoke(capsys, tmp_path, "regularity", payload, tol=0)
        assert code == 0
        assert out == {"idempotent": True, "von_neumann_regular": True}

    def test_regularity_of_a_large_lip_gram_from_its_square(
        self, capsys, tmp_path, monkeypatch
    ):
        def refuse(x, y):
            raise AssertionError("the square should decide regularity")

        monkeypatch.setattr("tropkern.linear_theory.left_residual", refuse)
        payload = {"kernel": LIP, "points": [[i % 16, i // 16] for i in range(240)]}
        code, out = invoke(capsys, tmp_path, "regularity", payload)
        assert code == 0
        assert out == {"idempotent": True, "von_neumann_regular": True}

    def test_interpolate_concave_blocked(self, capsys, tmp_path):
        payload = {
            "kernel": CONV,
            "samples": {"xs": [[0.0], [1.0], [2.0]], "ys": [0.0, 1.0, 0.0]},
            "dual_candidates": [[-1.0], [0.0], [1.0]],
        }
        code, out = invoke(capsys, tmp_path, "interpolate", payload)
        assert code == 1
        assert out == {"feasible": False, "blocking_index": 2}

    def test_interpolate_convex_dataset(self, capsys, tmp_path):
        payload = {
            "kernel": CONV,
            "samples": {"xs": [[0.0], [1.0], [2.0]], "ys": [0.0, 0.0, 1.0]},
            "dual_candidates": [[-1.0], [0.0], [1.0]],
        }
        code, out = invoke(capsys, tmp_path, "interpolate", payload)
        assert code == 0
        assert out["feasible"] is True
        assert out["witnesses"] == [[0.0], [0.0], [1.0]]
        assert out["witness_indices"] == [1, 1, 2]
        assert out["values_at_xs"] == [0.0, 0.0, 1.0]
        assert len(out["f0"]["terms"]) == 3


class TestRegressCommand:
    def test_search_mode_concave_dataset(self, capsys, tmp_path):
        payload = {
            "kernel": CONV,
            "samples": {"xs": [[0.0], [1.0], [2.0]], "ys": [0.0, 1.0, 0.0]},
            "dual_candidates": [[-1.0], [0.0], [1.0]],
            "loss": "sup_norm",
        }
        code, out = invoke(capsys, tmp_path, "regress", payload)
        assert code == 0
        assert out["feasible"] is True
        assert out["exact"] is True
        assert out["loss_value"] == pytest.approx(0.5, abs=1e-9)
        assert set(out) == {
            "feasible", "witnesses", "y_star", "loss_value", "exact", "f0",
        }

    def test_fixed_anchor_cycle_infeasible(self, capsys, tmp_path):
        payload = {
            "kernel": CONV,
            "samples": {"xs": [[0.0], [1.0]], "ys": [0.0, 0.0]},
            "dual_candidates": [[1.0], [-1.0]],
            "mode": {"fixed_p": [[1.0], [-1.0]]},
        }
        code, out = invoke(capsys, tmp_path, "regress", payload)
        assert code == 1
        assert out["feasible"] is False
        assert isinstance(out["negative_cycle"], list)
        assert len(out["negative_cycle"]) >= 2

    @pytest.mark.parametrize("loss", ["sup_norm", "l1"])
    def test_cycle_of_zero_exact_weight_is_feasible(self, capsys, tmp_path, loss):
        # The anchors of the cycle [4, 1, 2] are all -0.3, so its kernel
        # values cancel exactly, although its rounded gaps sum to 1.1e-16.
        xs = [-2.0, -1.7, 0.5, 1.7, 2.2, 2.7]
        ys = [0.3 * x + 0.1 for x in xs]
        anchors = [-3.0] + [-0.3] * 5
        payload = {
            "kernel": CONV,
            "samples": {"xs": [[x] for x in xs], "ys": ys},
            "dual_candidates": [[-3.0], [-0.3]],
            "loss": loss,
            "mode": {"fixed_p": [[p] for p in anchors]},
        }
        code, out = invoke(capsys, tmp_path, "regress", payload)
        assert code == 0
        assert out["feasible"] is True
        b = np.multiply.outer(xs, anchors)
        feasible, optimum, _ = lp_regression(b - np.diag(b), np.array(ys), loss)
        assert feasible
        assert out["loss_value"] == pytest.approx(optimum, abs=1e-7)

    def test_unknown_loss_is_schema_error(self, capsys, tmp_path):
        payload = {
            "kernel": CONV,
            "samples": {"xs": [[0.0]], "ys": [0.0]},
            "dual_candidates": [[0.0]],
            "loss": "l2",
        }
        code, out = invoke(capsys, tmp_path, "regress", payload)
        assert code == 2
        assert out["error"]["field"] == "loss"


class TestControlCommands:
    def test_maupertuis_gram(self, capsys, tmp_path):
        code, out = invoke(
            capsys, tmp_path, "maupertuis", {"problem": PROBLEM_4X5}
        )
        assert code == 0
        matrix = out["matrix"]
        assert len(matrix) == 20 and len(out["points"]) == 20
        assert all(matrix[i][i] == 0.0 for i in range(20))
        assert matrix == [list(row) for row in zip(*matrix)]
        assert matrix[0][1] == "-inf"  # same-slice neighbours are unreachable

    def test_maupertuis_asymmetric(self, capsys, tmp_path):
        code, out = invoke(
            capsys, tmp_path, "maupertuis",
            {"problem": PROBLEM_4X5, "asymmetric": True},
        )
        assert code == 0
        assert out["asymmetric"] is True
        assert out["matrix"][5][0] == "-inf"  # backward in time

    def test_maupertuis_output_feeds_check_tpsd(self, capsys, tmp_path):
        _, gram_out = invoke(capsys, tmp_path, "maupertuis", {"problem": PROBLEM_4X5})
        payload = {
            "kernel": {
                "type": "gram",
                "points": gram_out["points"],
                "matrix": gram_out["matrix"],
            }
        }
        code, out = invoke(capsys, tmp_path, "check-tpsd", payload)
        assert code == 0
        assert out == {"tpsd": True}

    def test_value_function_with_extremal_check(self, capsys, tmp_path):
        payload = {
            "problem": PROBLEM_4X5,
            "terminal_values": [0.25, 0.0625, 0.0, 0.0625, 0.25],
            "check_extremal": True,
        }
        code, out = invoke(capsys, tmp_path, "value-function", payload)
        assert code == 0
        assert out["largest_subsolution"] is True
        assert len(out["values"]) == 20
        assert out["values"][-5:] == [0.25, 0.0625, 0.0, 0.0625, 0.25]

    def test_value_function_wrong_length_terminal(self, capsys, tmp_path):
        payload = {"problem": PROBLEM_4X5, "terminal_values": [0.0, 1.0]}
        code, out = invoke(capsys, tmp_path, "value-function", payload)
        assert code == 2
        assert out["error"]["field"] == "terminal_values"

    def test_pair_guard_exits_one(self, capsys, tmp_path):
        payload = {"problem": PAIR_GUARD_PROBLEM}
        code, out = invoke(capsys, tmp_path, "maupertuis", payload)
        assert code == 1
        assert out["error"]["kind"] == "precondition"

    def test_extremal_check_runs_above_the_pair_guard(self, capsys, tmp_path):
        # The check runs on stencil sweeps, so the guard of the dense
        # maupertuis print does not bound it.
        payload = {
            "problem": PAIR_GUARD_PROBLEM,
            "terminal_values": [float(k % 7) for k in range(600)],
            "check_extremal": True,
        }
        code, out = invoke(capsys, tmp_path, "value-function", payload)
        assert code == 0
        assert out["largest_subsolution"] is True
        assert len(out["values"]) == 1200

    def test_slice_pair_guard_exits_one(self, capsys, tmp_path):
        # 40 x 40 space points: the two-slice kernel would hold 2.56M pairs.
        problem = {
            "time_grid": [0.0, 0.25, 0.5],
            "space_grid": {"axes": [{"start": 0.0, "stop": 9.75, "num": 40}] * 2},
            "lagrangian": {"name": "quadratic"},
            "stencil": [[0.0, 0.0], [0.25, 0.0], [-0.25, 0.0], [0.0, 0.25], [0.0, -0.25]],
        }
        payload = {"problem": problem, "samples": {"xs": [[0.0, 0.0]], "ys": [0.0]}}
        code, out = invoke(capsys, tmp_path, "invert-terminal-cost", payload)
        assert code == 1
        assert out["error"]["kind"] == "precondition"
        assert "space pairs exceed the guard" in out["error"]["message"]

    def test_invert_stopping_cost(self, capsys, tmp_path):
        payload = {
            "kernel": lip_gram_spec([0.0, 1.0, 2.0, 3.0]),
            "samples": {"xs": [[1.0], [2.0]], "ys": [-1.0, -2.0]},
        }
        code, out = invoke(capsys, tmp_path, "invert-stopping-cost", payload)
        assert code == 0
        assert out["loss_value"] == 0.0
        assert out["stopping_cost"] == ["inf", 1.0, 2.0, "inf"]
        assert out["y_star"] == [-1.0, -2.0]

    def test_invert_terminal_cost_round_trip(self, capsys, tmp_path):
        problem = {
            "time_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
            "space_grid": {"start": -1.0, "stop": 1.0, "num": 9},
            "lagrangian": {"name": "quadratic"},
            "stencil": [[-0.25], [0.0], [0.25]],
        }
        # Targets -V(0, r) for psi_T(r) = 2 r^2 at r in {-0.5, 0, 0.5}.
        code, value_out = invoke(
            capsys, tmp_path, "value-function",
            {
                "problem": problem,
                "terminal_values": [
                    2.0 * r * r for r in np.arange(-1.0, 1.01, 0.25)
                ],
            },
        )
        assert code == 0
        points = [tuple(p) for p in value_out["points"]]
        ys = [
            -value_out["values"][points.index((0.0, r))] for r in (-0.5, 0.0, 0.5)
        ]
        payload = {
            "problem": problem,
            "samples": {"xs": [[-0.5], [0.0], [0.5]], "ys": ys},
        }
        code, out = invoke(capsys, tmp_path, "invert-terminal-cost", payload)
        assert code == 0
        assert out["feasible"] is True
        assert out["witness_indices"] == [3, 4, 5]
        psi = out["psi_T"]
        assert psi[3] == 0.125 and psi[4] == 0.0 and psi[5] == 0.125
        assert psi[0] == "inf" and psi[8] == "inf"

    def test_invert_terminal_cost_inconsistent(self, capsys, tmp_path):
        payload = {
            "problem": PROBLEM_4X5,
            "samples": {"xs": [[0.0], [0.25]], "ys": [0.0, 10.0]},
        }
        code, out = invoke(capsys, tmp_path, "invert-terminal-cost", payload)
        assert code == 1
        assert out == {"feasible": False, "blocking_index": 2}

    def test_invert_terminal_cost_bad_start_index(self, capsys, tmp_path):
        payload = {
            "problem": PROBLEM_4X5,
            "samples": {"xs": [[0.0]], "ys": [0.0]},
            "start_index": 9,
        }
        code, out = invoke(capsys, tmp_path, "invert-terminal-cost", payload)
        assert code == 2
        assert out["error"]["field"] == "start_index"


# 1001 points: a kernel table on them, or between them and as many
# candidates, holds more than PAIR_GUARD entries.
GUARD_POINTS = [[float(i)] for i in range(1001)]
GUARD_SAMPLES = {"xs": GUARD_POINTS, "ys": [0.0] * 1001}
GUARD_ERROR = {
    "error": {"kind": "precondition",
              "message": "1001 x 1001 kernel entries exceed the guard of 1000000"}
}


class TestKernelTableGuard:
    """Every command that builds a kernel table refuses one above PAIR_GUARD
    before it allocates it."""

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("check-tpsd", {"kernel": LIP, "points": GUARD_POINTS}),
            ("factorize", {"kernel": LIP, "points": GUARD_POINTS}),
            ("conjugate", {"kernel": LIP, "points": GUARD_POINTS, "values": [0.0] * 1001}),
            ("membership", {"kernel": LIP, "points": GUARD_POINTS, "values": [0.0] * 1001}),
            ("funk", {"kernel": LIP, "points": GUARD_POINTS}),
            ("regularity", {"kernel": LIP, "points": GUARD_POINTS}),
            ("interpolate", {"kernel": CONV, "samples": GUARD_SAMPLES,
                             "dual_candidates": GUARD_POINTS}),
            ("regress", {"kernel": CONV, "samples": GUARD_SAMPLES,
                         "dual_candidates": GUARD_POINTS}),
            ("regress", {"kernel": CONV, "samples": GUARD_SAMPLES,
                         "dual_candidates": [[0.0]], "mode": {"fixed_p": GUARD_POINTS}}),
            ("cg-kernel", {"points": GUARD_POINTS, "members": [[0.0] * 1001]}),
        ],
    )
    def test_oversized_table_exits_one(self, capsys, tmp_path, command, payload):
        code, out = invoke(capsys, tmp_path, command, payload)
        assert code == 1
        assert out == GUARD_ERROR

    def test_ten_thousand_listed_points_are_refused_fast_and_small(self, tmp_path):
        # A 100 x 100 lattice given as a list of 10^4 points: its table would
        # hold 10^8 entries.  Time and peak resident set are read in a fresh
        # interpreter, around and after the one call.  The peak is VmHWM:
        # ru_maxrss would carry over the peak of the process that started it.
        if not Path("/proc/self/status").exists():
            pytest.skip("reads the peak resident set from /proc/self/status")
        path = tmp_path / "in.json"
        points = [[i / 10, j / 10] for i in range(100) for j in range(100)]
        path.write_text(json.dumps({"kernel": LIP, "points": points}))
        script = (
            "import sys, time\n"
            "from tropkern.cli import main\n"
            "start = time.perf_counter()\n"
            "code = main(['check-tpsd', '--input', sys.argv[1]])\n"
            "elapsed = time.perf_counter() - start\n"
            "peak = [line.split()[1] for line in open('/proc/self/status')\n"
            "        if line.startswith('VmHWM:')][0]\n"
            "print(code, elapsed, peak, file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, env=module_env("0"), timeout=60,
        )
        code, elapsed, peak_kb = proc.stderr.split()
        assert int(code) == 1
        assert json.loads(proc.stdout) == {
            "error": {"kind": "precondition",
                      "message": "10000 x 10000 kernel entries exceed the guard of 1000000"}
        }
        assert float(elapsed) < 1.0
        assert int(peak_kb) < 100 * 1024


class TestOneKernelTable:
    """A representer fit on a closed form evaluates one table b(x, p)."""

    SAMPLES = {"xs": [[0.0], [1.0], [2.0], [3.5]], "ys": [0.0, 0.5, 1.0, 2.5]}

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("interpolate", {}),
            ("regress", {"loss": "sup_norm"}),
            ("regress", {"loss": "l1"}),
            ("regress", {"loss": "sup_norm", "mode": {"fixed_p": [[0.0], [0.0], [1.0], [1.0]]}}),
            ("regress", {"loss": "l1", "mode": {"fixed_p": [[0.0], [0.5], [1.0], [1.0]]}}),
        ],
    )
    def test_one_table_per_command(self, capsys, tmp_path, monkeypatch, command, extra):
        calls = []
        table = ClosedFormKernel.table

        def counted(kernel, xs, ys):
            calls.append((xs.shape, ys.shape))
            return table(kernel, xs, ys)

        monkeypatch.setattr(ClosedFormKernel, "table", counted)
        payload = {"kernel": CONV, "samples": self.SAMPLES,
                   "dual_candidates": [[0.0], [0.5], [1.0], [2.0]], **extra}
        code, out = invoke(capsys, tmp_path, command, payload)
        assert code == 0
        assert out["feasible"] is True
        assert len(calls) == 1


def per_point_rule(raw, grid=None):
    """The points of a JSON point list read one point at a time, with a dict
    index, by the README's rule for every input number: a coordinate is a
    JSON number (not a boolean) or the string "inf" or "-inf".  ``grid`` is a
    Gram kernel's point set; the messages are the library's."""

    def coordinate(value):
        if isinstance(value, str):
            if value not in ("inf", "-inf"):
                raise ValueError(f"invalid extended-real string {value!r}")
            return float(value)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"invalid extended-real value {value!r}")
        try:
            out = float(value)
        except OverflowError as exc:
            raise ValueError("integer too large for a float") from exc
        if math.isnan(out):
            raise ValueError("NaN is not an extended real")
        return out

    points = [
        (coordinate(p),) if isinstance(p, (int, float, str)) else tuple(map(coordinate, p))
        for p in raw
    ]
    if grid is not None:
        for p in points:
            if p not in grid:
                raise ValueError(f"point {p} is not on the kernel's grid")
    if not points:
        raise ValueError("no points")
    index = {}
    for i, p in enumerate(points):
        if len(p) != len(points[0]):
            raise ValueError("all points must share one dimension")
        if p in index:
            raise ValueError(f"points must be pairwise distinct, got {p} twice")
        index[p] = i
    return points


_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1, 2, True, False, math.inf, -math.inf]),
    st.floats(allow_nan=False),
    st.integers(min_value=-(2**1100), max_value=2**1100),
)
# Numbers, booleans, numeric strings (refused but "inf" and "-inf"), and
# strings and None that are no number.
_COORDINATES = st.one_of(
    _NUMBERS, _NUMBERS, _NUMBERS,
    st.sampled_from([None, "inf", "-inf", "1.5", "-0.0", "2", " 3 ", "1e400", "nan", "x", ""]),
)
# Bare numbers; coordinate lists of one dimension (0 to 3), or of few
# values, so that points repeat; ragged lists, mixtures and bare strings.
_POINT_LISTS = st.one_of(
    st.lists(_NUMBERS, max_size=6),
    st.integers(0, 3).flatmap(
        lambda d: st.lists(st.lists(_COORDINATES, min_size=d, max_size=d), max_size=6)
    ),
    st.integers(1, 2).flatmap(
        lambda d: st.lists(
            st.lists(st.sampled_from([0.0, -0.0, 1.0, 1, True]), min_size=d, max_size=d),
            max_size=6,
        )
    ),
    st.lists(
        st.one_of(_NUMBERS, st.lists(_COORDINATES, max_size=3),
                  st.sampled_from(["12", "5", "inf", "a"])),
        max_size=6,
    ),
)


class TestPointParse:
    """The one-array parse of a JSON point list gives the points, bit for
    bit, or the schema error on the field, of a per-point reading by the
    README's number rule, a bare number (or "inf", "-inf") being a 1-D
    point; a list mixing bare numbers with coordinate lists, which a
    per-point reading would take, is a schema error."""

    @settings(max_examples=400, deadline=None)
    @given(raw=_POINT_LISTS, on_grid=st.booleans())
    def test_matches_the_per_point_rule(self, raw, on_grid):
        kernel = kernel_from_spec(GRAM_3) if on_grid else None
        grid = kernel.points if on_grid else None
        numbers = [isinstance(p, (int, float, str)) for p in raw]
        departure = any(numbers) and any(isinstance(p, list) for p in raw)
        try:
            expected = per_point_rule(raw, grid)
        except (TypeError, ValueError) as exc:
            expected = exc
        try:
            got = _points(raw, "points", kernel)
        except _SchemaError as exc:
            assert (exc.kind, exc.field) == ("schema", "points")
            assert departure or isinstance(expected, Exception)
            message = str(expected)
            one_dim = len({1 if n else len(p) for n, p in zip(numbers, raw)}) == 1
            if not departure and one_dim and (
                "pairwise distinct" in message or "kernel's grid" in message
            ):
                assert str(exc) == message
            return
        assert not departure and not isinstance(expected, Exception)
        assert got.points == tuple(expected)
        bits = np.array(expected, dtype=float).reshape(got.as_array().shape).view(np.int64)
        assert np.array_equal(got.as_array().view(np.int64), bits)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([[0.0], [1.0], [-0.0], [1.0]], "points must be pairwise distinct, got (-0.0,) twice"),
            ([1, 0.5, 1.0], "points must be pairwise distinct, got (1.0,) twice"),
            ([[2, 1], [1, 2], [1, 2], [2, 1]], "points must be pairwise distinct, got (1.0, 2.0) twice"),
        ],
    )
    def test_duplicate_names_the_first_repeat(self, raw, message):
        with pytest.raises(_SchemaError, match=re.escape(message)):
            _points(raw, "points")

    @pytest.mark.parametrize("raw", [["12"], [[0.0], "5"], [1.0, [2.0]], [[1.0], 2.0]])
    def test_departures_are_schema_errors(self, capsys, tmp_path, raw):
        code, out = invoke(capsys, tmp_path, "check-tpsd", {"kernel": CONV, "points": raw})
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert out["error"]["field"] == "points"


class TestOtherCommands:
    def test_conjugate_round_trip(self, capsys, tmp_path):
        payload = {
            "kernel": CONV,
            "points": [[-1.0], [0.0], [1.0]],
            "values": [1.0, 0.0, 1.0],
            "direction": "sesqui",
        }
        code, out = invoke(capsys, tmp_path, "conjugate", payload)
        assert code == 0
        assert out["points"] == [[-1.0], [0.0], [1.0]]
        assert out["values"] == [0.0, 0.0, 0.0]

    def test_conjugate_needs_points_for_closed_form(self, capsys, tmp_path):
        payload = {"kernel": CONV, "values": [0.0]}
        code, out = invoke(capsys, tmp_path, "conjugate", payload)
        assert code == 2
        assert out["error"]["field"] == "points"

    def test_conjugate_bad_direction(self, capsys, tmp_path):
        payload = {
            "kernel": CONV,
            "points": [[0.0]],
            "values": [0.0],
            "direction": "upside_down",
        }
        code, out = invoke(capsys, tmp_path, "conjugate", payload)
        assert code == 2
        assert out["error"]["field"] == "direction"

    def test_membership_gap_reported(self, capsys, tmp_path):
        payload = {
            "kernel": CONV,
            "points": [[-1.0], [0.0], [1.0]],
            "values": [-1.0, 0.0, -1.0],
        }
        code, out = invoke(capsys, tmp_path, "membership", payload)
        assert code == 0
        assert out["in_range"] is False
        assert out["gap"] == [0.0, 1.0, 0.0]
        assert out["biconjugate"] == [-1.0, -1.0, -1.0]

    def test_membership_asymmetric_precondition(self, capsys, tmp_path):
        payload = {
            "kernel": {
                "type": "gram",
                "points": [[0.0], [1.0]],
                "matrix": [[0.0, -1.0], [-2.0, 0.0]],
            },
            "values": [0.0, 0.0],
        }
        code, out = invoke(capsys, tmp_path, "membership", payload)
        assert code == 1
        assert out["error"]["kind"] == "precondition"

    def test_funk_distance_kernel(self, capsys, tmp_path):
        payload = {"kernel": LIP, "points": [[0.0], [1.0], [3.0]]}
        code, out = invoke(capsys, tmp_path, "funk", payload)
        assert code == 0
        assert out["matrix"] == [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]

    def test_cg_kernel_idempotent(self, capsys, tmp_path):
        payload = {
            "points": [[0.0], [1.0], [2.0]],
            "members": [[0.0, 1.0, 2.0], [0.0, -1.0, 0.0]],
        }
        code, out = invoke(capsys, tmp_path, "cg-kernel", payload)
        assert code == 0
        assert out["idempotent"] is True
        matrix = np.array(out["matrix"], dtype=float)
        assert np.array_equal(np.diag(matrix), np.zeros(3))

    def test_cg_kernel_empty_members(self, capsys, tmp_path):
        payload = {"points": [[0.0]], "members": []}
        code, out = invoke(capsys, tmp_path, "cg-kernel", payload)
        assert code == 2
        assert out["error"]["field"] == "members"

    def test_factorize_features_recompose_kernel(self, capsys, tmp_path):
        matrix = [[0.0, -1.0], [-1.0, 0.0]]
        payload = {
            "kernel": {"type": "gram", "points": [[0.0], [1.0]], "matrix": matrix}
        }
        code, out = invoke(capsys, tmp_path, "factorize", payload)
        assert code == 0
        features = np.array(
            [[float(v) for v in row] for row in out["features"]]
        )
        recomposed = (features[:, None, :] + features[None, :, :]).max(axis=2)
        assert np.array_equal(recomposed, np.array(matrix))

    def test_factorize_size_guard_exits_one(self, capsys, tmp_path):
        # 101 points: the n x n^2 feature table would hold 1.03M entries.
        payload = {"kernel": LIP, "points": [[float(i)] for i in range(101)]}
        code, out = invoke(capsys, tmp_path, "factorize", payload)
        assert code == 1
        assert out["error"]["kind"] == "precondition"


class TestGoldenOutputs:
    # Besides one input per command, 2-D representer fits on decimal
    # coordinates, whose sections and offsets round.
    @pytest.mark.parametrize("command", [*COMMANDS, "interpolate-2d", "regress-2d"])
    def test_stdout_bytes_match_golden(self, capsys, command):
        code = main([command.removesuffix("-2d"), "--input", str(GOLDEN / f"{command}.json")])
        out = capsys.readouterr().out
        expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
        assert code == expected_codes[command]
        assert out.encode() == (GOLDEN / f"{command}.stdout").read_bytes()

    def test_lattice_value_function_json_and_csv_bytes(self, capsys, tmp_path):
        # A 5 x 9 x 9 spacetime lattice; the second space axis holds
        # non-dyadic coordinates such as 0.20000000000000007.
        out_path = tmp_path / "v.json"
        code = main(["value-function", "--input", str(GOLDEN / "value-function-2d.json"),
                     "--output", str(out_path)])
        out = capsys.readouterr().out.encode()
        assert code == 0
        assert out == (GOLDEN / "value-function-2d.stdout").read_bytes()
        assert out_path.read_bytes() == out
        assert (tmp_path / "v.csv").read_bytes() == (GOLDEN / "value-function-2d.csv").read_bytes()

    def test_one_sided_table_cost_kernel_bytes(self, capsys):
        # A 5 x 9 causal kernel of a table cost with a zero-cost velocity and
        # a one-sided stencil: -0.0 entries, -inf below the band.
        code = main(["maupertuis", "--input", str(GOLDEN / "maupertuis-table.json")])
        assert code == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / "maupertuis-table.stdout").read_bytes()

    def test_stopping_cost_csv_with_infinity_and_signed_zero(self, capsys, tmp_path):
        # The stopping cost is [-0.0, inf, 2.0].
        out_path = tmp_path / "s.json"
        code = main(["invert-stopping-cost", "--input",
                     str(GOLDEN / "invert-stopping-cost.json"), "--output", str(out_path)])
        out = capsys.readouterr().out.encode()
        assert code == 0
        assert out_path.read_bytes() == out == (GOLDEN / "invert-stopping-cost.stdout").read_bytes()
        expected = (GOLDEN / "invert-stopping-cost.csv").read_bytes()
        assert (tmp_path / "s.csv").read_bytes() == expected


class TestBadPointsAreSchemaErrors:
    """Points a kernel cannot be read at exit 2 and name the field."""

    def test_check_tpsd_closed_form_without_points(self, capsys, tmp_path):
        code, out = invoke(capsys, tmp_path, "check-tpsd", {"kernel": CONV})
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert out["error"]["field"] == "points"

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("check-tpsd", {}),
            ("factorize", {}),
            ("conjugate", {"values": [0.0]}),
            ("membership", {"values": [0.0]}),
            ("funk", {}),
            ("regularity", {}),
        ],
    )
    def test_points_off_gram_grid(self, capsys, tmp_path, command, extra):
        payload = {"kernel": GRAM_3, "points": [[5.0]], **extra}
        code, out = invoke(capsys, tmp_path, command, payload)
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert out["error"]["field"] == "points"
        assert "(5.0,)" in out["error"]["message"]

    @pytest.mark.parametrize("command", ["interpolate", "regress", "invert-stopping-cost"])
    def test_samples_off_gram_grid(self, capsys, tmp_path, command):
        payload = {
            "kernel": GRAM_3,
            "samples": {"xs": [[0.0], [5.0]], "ys": [0.0, 0.0]},
            "dual_candidates": [[1.0]],
        }
        code, out = invoke(capsys, tmp_path, command, payload)
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert out["error"]["field"] == "samples.xs"

    @pytest.mark.parametrize("command", ["interpolate", "regress"])
    def test_dual_candidates_off_gram_grid(self, capsys, tmp_path, command):
        payload = {
            "kernel": GRAM_3,
            "samples": {"xs": [[0.0], [1.0]], "ys": [0.0, 0.0]},
            "dual_candidates": [[1.0], [-1.0]],
        }
        code, out = invoke(capsys, tmp_path, command, payload)
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert out["error"]["field"] == "dual_candidates"

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("invert-stopping-cost", {"kernel": GRAM_3}),
            ("invert-terminal-cost", {"problem": PROBLEM_4X5}),
        ],
    )
    def test_inverse_targets_one_per_sample(self, capsys, tmp_path, command, payload):
        payload = {**payload, "samples": {"xs": [[0.0]], "ys": [0.0, 0.0]}}
        code, out = invoke(capsys, tmp_path, command, payload)
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert out["error"]["field"] == "samples.ys"

    def test_terminal_samples_off_space_grid(self, capsys, tmp_path):
        payload = {
            "problem": PROBLEM_4X5,
            "samples": {"xs": [[0.0], [0.1]], "ys": [0.0, 0.0]},
        }
        code, out = invoke(capsys, tmp_path, "invert-terminal-cost", payload)
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert out["error"]["field"] == "samples.xs"

    @pytest.mark.parametrize(
        "fixed_p", [[["a"], [1.0]], [None, [1.0]], 3, [[1.0]], [[1.0], [7.0]]]
    )
    def test_bad_fixed_anchors(self, capsys, tmp_path, fixed_p):
        payload = {
            "kernel": GRAM_3,
            "samples": {"xs": [[0.0], [1.0]], "ys": [0.0, 0.0]},
            "dual_candidates": [[1.0]],
            "mode": {"fixed_p": fixed_p},
        }
        code, out = invoke(capsys, tmp_path, "regress", payload)
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert out["error"]["field"] == "mode.fixed_p"

    def test_repeated_fixed_anchors_are_allowed(self, capsys, tmp_path):
        payload = {
            "kernel": CONV,
            "samples": {"xs": [[0.0], [1.0]], "ys": [0.0, 1.0]},
            "dual_candidates": [[1.0]],
            "mode": {"fixed_p": [[1.0], [1.0]]},
        }
        code, out = invoke(capsys, tmp_path, "regress", payload)
        assert code == 0
        assert out["witnesses"] == [[1.0], [1.0]]
        assert out["loss_value"] == 0.0

    @pytest.mark.parametrize(
        "command, mode, field",
        [
            ("interpolate", None, "dual_candidates"),
            ("regress", "search", "dual_candidates"),
            ("regress", {"fixed_p": [[1.0, 0.0], [1.0, 0.0]]}, "mode.fixed_p"),
        ],
    )
    def test_points_of_another_dimension(self, capsys, tmp_path, command, mode, field):
        # A closed form has no grid to catch this: 1-D sites against 2-D
        # candidates or anchors.
        two_d = [[1.0, 0.0]] if field == "dual_candidates" else [[1.0]]
        payload = {
            "kernel": CONV,
            "samples": {"xs": [[0.0], [1.0]], "ys": [0.0, 1.0]},
            "dual_candidates": two_d,
        }
        if mode is not None:
            payload["mode"] = mode
        code, out = invoke(capsys, tmp_path, command, payload)
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert out["error"]["field"] == field


def error_stdout(kind, message, field=None):
    lines = ["{", '  "error": {']
    if field is not None:
        lines.append(f'    "field": "{field}",')
    lines += [f'    "kind": "{kind}",', f'    "message": {json.dumps(message)}', "  }", "}", ""]
    return "\n".join(lines)


# Every error exit of ``run``, with its exact stdout and exit code; the input
# is ``in.json`` in the working directory (None: the file does not exist).
PINNED_ERRORS = {
    "missing-file": (
        "check-tpsd", None, 2,
        error_stdout("io", "[Errno 2] No such file or directory: 'in.json'", "input"),
    ),
    "malformed-json": (
        "check-tpsd", "{not json", 2,
        error_stdout(
            "schema",
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
            "input",
        ),
    ),
    "top-level-array": (
        "check-tpsd", "[1, 2, 3]", 2,
        error_stdout("schema", "top level must be a JSON object", "input"),
    ),
    "unknown-command": (
        "transmogrify", "{}", 2,
        error_stdout("schema", "unknown command 'transmogrify'", "command"),
    ),
    "missing-field": (
        "check-tpsd", "{}", 2,
        error_stdout("schema", "missing required field", "kernel"),
    ),
    "pair-guard": (
        "maupertuis", json.dumps({"problem": PAIR_GUARD_PROBLEM}), 1,
        error_stdout("precondition", "1200^2 spacetime pairs exceed the guard of 1000000"),
    ),
    "extremal-negative-cost": (
        "value-function", json.dumps({"problem": NEGATIVE_COST_PROBLEM,
                                      "terminal_values": [0.0, 1.0, 0.0],
                                      "check_extremal": True}), 1,
        error_stdout("precondition", "asymmetrize requires nonpositive kernel values"),
    ),
    "regress-cycle": (
        "regress",
        json.dumps({
            "kernel": CONV,
            "samples": {"xs": [[0.0], [1.0]], "ys": [0.0, 0.0]},
            "dual_candidates": [[1.0], [-1.0]],
            "mode": {"fixed_p": [[1.0], [-1.0]]},
        }),
        1,
        '{\n  "feasible": false,\n  "negative_cycle": [\n    1,\n    0\n  ]\n}\n',
    ),
    "regress-search-blocked": (
        "regress",
        json.dumps({
            "kernel": {"type": "closed_form", "name": "dirac"},
            "samples": {"xs": [[0.0], [1.0], [2.0]], "ys": [0.0, 1.0, 0.0]},
            "dual_candidates": [[0.0], [2.0]],
        }),
        1,
        '{\n  "blocking_index": 2,\n  "feasible": false\n}\n',
    ),
    "interpolate-blocked": (
        "interpolate",
        json.dumps({
            "kernel": CONV,
            "samples": {"xs": [[0.0], [1.0], [2.0]], "ys": [0.0, 1.0, 0.0]},
            "dual_candidates": [[-1.0], [0.0], [1.0]],
        }),
        1,
        '{\n  "blocking_index": 2,\n  "feasible": false\n}\n',
    ),
}


class TestErrorPlumbing:
    @pytest.mark.parametrize("case", PINNED_ERRORS)
    def test_pinned_error_bytes(self, capsys, tmp_path, monkeypatch, case):
        command, text, expected_code, expected = PINNED_ERRORS[case]
        monkeypatch.chdir(tmp_path)
        if text is not None:
            Path("in.json").write_text(text)
        if command in COMMANDS:
            code = main([command, "--input", "in.json", "--output", "out.json"])
        else:
            code = run(RunConfig(command, "in.json", output_path="out.json"))
        out = capsys.readouterr().out
        assert code == expected_code
        assert out == expected
        assert Path("out.json").read_bytes() == out.encode()

    def test_missing_input_file(self, capsys, tmp_path):
        code = main(["check-tpsd", "--input", str(tmp_path / "absent.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"]["kind"] == "io"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["check-tpsd", "--input", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"]["field"] == "input"

    def test_top_level_array_rejected(self, capsys, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[1, 2, 3]")
        code = main(["check-tpsd", "--input", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"]["field"] == "input"

    def test_missing_kernel_field(self, capsys, tmp_path):
        code, out = invoke(capsys, tmp_path, "check-tpsd", {})
        assert code == 2
        assert out["error"]["field"] == "kernel"
        assert out["error"]["message"] == "missing required field"

    def test_unknown_kernel_type(self, capsys, tmp_path):
        code, out = invoke(
            capsys, tmp_path, "check-tpsd", {"kernel": {"type": "mystery"}}
        )
        assert code == 2
        assert out["error"]["field"] == "kernel"

    def test_unknown_command_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify", "--input", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_unknown_command_via_config(self, capsys, tmp_path):
        path = tmp_path / "in.json"
        path.write_text("{}")
        code = run(RunConfig(command="transmogrify", input_path=str(path)))
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"]["field"] == "command"

    @pytest.mark.parametrize(
        "name, params",
        [
            ("lip", '{"alpha": "abc"}'),
            ("lip", '{"alpha": 1e400}'),
            ("lip", '{"alpha": true}'),
            ("lip", '{"alpha": 1' + "0" * 400 + "}"),
            ("power_distance", '{"p": -1}'),
            ("power_distance", '{"p": NaN}'),
            ("lax_hopf", '{"lagrangian": {"name": "bogus"}}'),
            ("lax_hopf", '{"lagrangian": "quadratic"}'),
            ("lip", '{"alpah": 5}'),
            ("power_distance", '{"alpha": 2}'),
            ("sconv", '{"p": 2}'),
        ],
        ids=["alpha-str", "alpha-1e400", "alpha-bool", "alpha-400-digits", "p-negative",
             "p-nan", "lagrangian-bogus", "lagrangian-str", "alpha-misspelt",
             "power-alpha", "sconv-p"],
    )
    def test_bad_closed_form_params(self, capsys, tmp_path, name, params):
        path = tmp_path / "in.json"
        path.write_text(
            f'{{"kernel": {{"type": "closed_form", "name": "{name}", "params": {params}}},'
            ' "points": [[0.0, 0.0], [1.0, 1.0]]}'
        )
        code = main(["check-tpsd", "--input", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert out["error"]["field"] == "kernel"

    def test_misspelt_param_is_not_ignored(self, capsys, tmp_path):
        # With the typo ignored, alpha fell back to 1 and funk printed 1.0s.
        payload = {"kernel": {**LIP, "params": {"alpah": 5}}, "points": [[0.0], [1.0]]}
        code, out = invoke(capsys, tmp_path, "funk", payload)
        assert code == 2
        assert out["error"] == {
            "kind": "schema", "field": "kernel",
            "message": "unknown param(s) ['alpah'] for kernel 'lip'",
        }

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, tmp_path, tol):
        # [[0, 5], [5, 0]] is not positive; a NaN tolerance called it tpsd.
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"kernel": {
            "type": "gram", "points": [[0.0], [1.0]], "matrix": [[0, 5], [5, 0]]}}))
        with pytest.raises(SystemExit) as exc:
            main(["check-tpsd", "--input", str(path), "--tol", tol])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_parser_is_built_once(self, capsys, tmp_path):
        from tropkern.cli import _parser

        path = tmp_path / "in.json"
        path.write_text(json.dumps({"kernel": {
            "type": "gram", "points": [[0.0], [1.0]], "matrix": [[0, -1], [-1, 0]]}}))
        _parser.cache_clear()
        outputs = []
        for _ in range(2):
            assert main(["check-tpsd", "--input", str(path)]) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert _parser.cache_info().misses == 1
        assert outputs[0] == outputs[1]
        # The cached parser still refuses a NaN tolerance with exit 2.
        with pytest.raises(SystemExit) as exc:
            main(["check-tpsd", "--input", str(path), "--tol", "nan"])
        assert exc.value.code == 2
        assert _parser.cache_info().misses == 1

    def test_all_commands_registered(self):
        from tropkern.cli import _HANDLERS

        assert set(_HANDLERS) == set(COMMANDS)
        assert len(COMMANDS) == 13


class TestJsonTypes:
    """Fields of the wrong JSON type are schema errors naming the field."""

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("conjugate",
             {"kernel": CONV, "points": [[0.0]], "values": {"0": 1.0}},
             "values"),
            ("interpolate",
             {"kernel": CONV, "samples": {"xs": [[0.0]], "ys": {"0": 1.0}},
              "dual_candidates": [[0.0]]},
             "samples.ys"),
        ],
    )
    def test_values_must_be_lists(self, capsys, tmp_path, command, payload, field):
        code, out = invoke(capsys, tmp_path, command, payload)
        assert code == 2
        assert out["error"] == {
            "kind": "schema", "field": field,
            "message": "expected a list of extended reals, got dict",
        }

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("check-tpsd", {"kernel": GRAM_3, "permutation_m_max": True},
             "permutation_m_max"),
            ("invert-terminal-cost",
             {"problem": PROBLEM_4X5, "samples": {"xs": [[0.0]], "ys": [0.0]},
              "start_index": True},
             "start_index"),
        ],
    )
    def test_booleans_are_not_integers(self, capsys, tmp_path, command, payload, field):
        code, out = invoke(capsys, tmp_path, command, payload)
        assert code == 2
        assert out["error"]["field"] == field

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("value-function",
             {"problem": PROBLEM_4X5, "terminal_values": [0.0] * 5, "check_extremal": "no"},
             "check_extremal"),
            ("maupertuis", {"problem": PROBLEM_4X5, "asymmetric": "no"}, "asymmetric"),
        ],
    )
    def test_flags_must_be_booleans(self, capsys, tmp_path, command, payload, field):
        code, out = invoke(capsys, tmp_path, command, payload)
        assert code == 2
        assert out["error"] == {
            "kind": "schema", "field": field, "message": "expected true or false",
        }


    @pytest.mark.parametrize(
        "problem",
        [
            {**PROBLEM_4X5, "reversible": "no"},
            {**PROBLEM_4X5, "require_nonneg": "no"},
            {**PROBLEM_4X5, "reversible": 1},
            {**PROBLEM_4X5, "lagrangian": {
                "name": "table", "velocities": [[-1.0], [0.0], [1.0]],
                "costs": [1.0, 0.0, 1.0], "convex": "no"}},
        ],
    )
    def test_problem_flags_must_be_booleans(self, capsys, tmp_path, problem):
        payload = {"problem": problem, "terminal_values": [0.0] * 5}
        code, out = invoke(capsys, tmp_path, "value-function", payload)
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert out["error"]["field"] == "problem"
        assert "must be true or false" in out["error"]["message"]

    @pytest.mark.parametrize("cost", [True, "1.0", None])
    def test_table_costs_must_be_numbers(self, capsys, tmp_path, cost):
        # float(True) read a JSON true as a cost of 1.
        lagrangian = {"name": "table", "velocities": [[-1.0], [0.0], [1.0]],
                      "costs": [cost, 0.0, 1.0], "convex": True}
        payload = {"problem": {**PROBLEM_4X5, "lagrangian": lagrangian}}
        code, out = invoke(capsys, tmp_path, "maupertuis", payload)
        assert code == 2
        assert out["error"]["field"] == "problem"
        assert "table costs must be numbers" in out["error"]["message"]

    @pytest.mark.parametrize("lagrangian", ["quadratic", ["quadratic"], None])
    def test_running_cost_must_be_an_object(self, capsys, tmp_path, lagrangian):
        payload = {"problem": {**PROBLEM_4X5, "lagrangian": lagrangian}}
        code, out = invoke(capsys, tmp_path, "maupertuis", payload)
        assert code == 2
        assert out["error"]["field"] == "problem"

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("conjugate",
             {"kernel": CONV, "points": [[0.0]], "values": [10**400]},
             "values"),
            ("check-tpsd",
             {"kernel": {**GRAM_3, "matrix": [[0, -1, -2], [-1, 0, -(10**400)], [-2, -1, 0]]}},
             "kernel"),
            ("interpolate",
             {"kernel": CONV, "samples": {"xs": [[0.0]], "ys": [10**400]},
              "dual_candidates": [[0.0]]},
             "samples.ys"),
            ("conjugate",
             {"kernel": CONV, "points": [[10**400]], "values": [0.0]},
             "points"),
        ],
    )
    def test_integers_beyond_float_are_schema_errors(
        self, capsys, tmp_path, command, payload, field
    ):
        code, out = invoke(capsys, tmp_path, command, payload)
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert out["error"]["field"] == field
        assert "too large for a float" in out["error"]["message"]


class TestOutputsAndDeterminism:
    def test_output_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        payload = {
            "kernel": CONV,
            "points": [[-1.0], [0.0], [1.0]],
            "values": [1.0, 0.0, 1.0],
        }
        code, parsed = invoke(
            capsys, tmp_path, "conjugate", payload, output=out_path
        )
        assert code == 0
        assert json.loads(out_path.read_text()) == parsed

    def test_csv_sibling_for_grid_functions(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        payload = {
            "kernel": CONV,
            "points": [[-1.0], [0.0], [1.0]],
            "values": [1.0, 0.0, 1.0],
        }
        invoke(capsys, tmp_path, "conjugate", payload, output=out_path)
        lines = (tmp_path / "result.csv").read_text().strip().splitlines()
        assert lines[0] == "x0,value"
        assert lines[1] == "-1.0,0.0"
        assert len(lines) == 4

    def test_csv_time_column_for_spacetime_grids(self, capsys, tmp_path):
        out_path = tmp_path / "v.json"
        payload = {
            "problem": PROBLEM_4X5,
            "terminal_values": [0.0, 0.0, 0.0, 0.0, 0.0],
        }
        invoke(capsys, tmp_path, "value-function", payload, output=out_path)
        lines = (tmp_path / "v.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x1,value"
        assert lines[1].startswith("0.0,-0.5,")
        assert len(lines) == 21

    def test_verdict_commands_write_no_csv(self, capsys, tmp_path):
        out_path = tmp_path / "verdict.json"
        payload = {
            "kernel": {
                "type": "gram",
                "points": [[i] for i in range(5)],
                "matrix": BIPARTITE_5,
            }
        }
        invoke(capsys, tmp_path, "check-tpsd", payload, output=out_path)
        assert out_path.exists()
        assert not (tmp_path / "verdict.csv").exists()

    def test_console_script_bitwise_deterministic(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(
            json.dumps(
                {
                    "problem": PROBLEM_4X5,
                    "terminal_values": [0.25, 0.0625, 0.0, 0.0625, 0.25],
                    "check_extremal": True,
                }
            )
        )
        cmd = [sys.executable, "-m", "tropkern", "value-function",
               "--input", str(path)]
        first = subprocess.run(
            cmd, capture_output=True, check=True, env=module_env("1")
        )
        second = subprocess.run(
            cmd, capture_output=True, check=True, env=module_env("2")
        )
        assert first.stdout == second.stdout
        assert first.stdout.strip()
        json.loads(first.stdout)

    def test_console_script_entry_point_resolves_to_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["tropkern"] == "tropkern.cli:main"
        module_name, attr = scripts["tropkern"].split(":")
        assert getattr(importlib.import_module(module_name), attr) is main

    def test_module_without_subcommand_exits_two_with_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tropkern"],
            capture_output=True,
            env=module_env("0"),
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"usage: tropkern")

    def test_module_passes_return_code_through(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"problem": PAIR_GUARD_PROBLEM}))
        proc = subprocess.run(
            [sys.executable, "-m", "tropkern", "maupertuis", "--input", str(path)],
            capture_output=True,
            env=module_env("0"),
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["kind"] == "precondition"

    def test_outputs_reparse_under_round_trip(self, capsys, tmp_path):
        payload = {"kernel": LIP, "points": [[0.0], [1.0], [3.0]]}
        _, out = invoke(capsys, tmp_path, "funk", payload)
        assert json.loads(json.dumps(out)) == out


# Scalars the writer must print as json does: the infinity strings, signed
# zero, the extreme floats, and strings that look like the writer's own
# separators or row boundaries.
JSON_SCALARS = st.one_of(
    st.sampled_from(
        ["inf", "-inf", -0.0, 5e-324, 1e300, True, False, None,
         ", ", "[", "]", "\n", "],\n  [", "],\n    ["]
    ),
    st.integers(),
    st.floats(),
    st.text(),
)
JSON_KEYS = st.one_of(st.sampled_from(["é", "ключ", "☃", "a, b", "\n"]), st.text())


def json_payloads(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.lists(JSON_SCALARS, max_size=4), max_size=4),
        st.lists(st.tuples(st.lists(JSON_SCALARS, max_size=3), JSON_SCALARS).map(list),
                 max_size=4),
        st.dictionaries(JSON_KEYS, children, max_size=4),
    )


def dumps_reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


class TestJsonWriter:
    @settings(deadline=None)
    @given(st.recursive(JSON_SCALARS, json_payloads, max_leaves=40))
    def test_matches_json_dumps(self, payload):
        assert _dump_json(payload) == dumps_reference(payload)

    def test_pinned_shapes(self):
        payload = {
            "é": [[], [[]], [[1, "],\n    [", None]], [[[1.5]], [[-0.0]]]],
            "list": [{"b": [], "a": {}}, [True, False], "x"],
            "matrix": [[5e-324, "inf"], ["-inf", 1e300]],
            "": [[], [2]],
            "scalars": ["\n", ", ", "[", "]", "],\n  ["],
            "terms": [[[0.5, -1.0], "inf"], [["]],[["], "],\n      [["]],
            "not terms": [[[0.5], 1], [[], 2], [[2], []], [[1], 2, 3]],
            "f0": {"terms": [[[float(i)], i / 4] for i in range(3)]},
        }
        assert _dump_json(payload) == dumps_reference(payload)

    def test_nonstring_keys_and_numpy_leaves(self):
        payload = {"k": {2: [np.float64(0.5)], 1.5: None, True: (1, 2)}}
        assert _dump_json(payload) == dumps_reference(payload)

    def test_peak_memory_stays_within_four_outputs(self):
        assert peak_over_output({"matrix": encode_values(least_action_like_matrix())}) <= 4


def least_action_like_matrix():
    """A 671x671 matrix, 87% infinite, as the large least-action ops print."""
    rng = np.random.default_rng(0)
    m = rng.integers(-50, 50, size=(671, 671)) / 4
    u = rng.random(m.shape)
    m[u < 0.435] = POS_INF
    m[u >= 0.565] = NEG_INF
    return m


def peak_over_output(payload):
    """The traced peak of writing ``payload``, over the output's length."""
    size = len(_dump_json(payload))
    tracemalloc.start()
    try:
        _dump_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / size


# Array entries: signed zeros, infinities, NaN, subnormals, huge and
# non-dyadic values.
SPECIAL_VALUES = [0.0, -0.0, POS_INF, NEG_INF, float("nan"), 5e-324, -2.5e-320,
                  1e300, -1e300, 1 / 3, 0.1, -2.0]
ARRAY_VALUES = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats())
SMALL_ARRAYS = st.one_of(
    st.lists(ARRAY_VALUES, max_size=7).map(np.array),
    st.integers(0, 7).flatmap(
        lambda m: st.lists(st.lists(ARRAY_VALUES, min_size=m, max_size=m), max_size=7)
        .map(lambda rows: np.array(rows).reshape(len(rows), m))
    ),
)
# Shapes at a block edge: empty arrays, one entry short of and past a
# block, rows longer than a block, and rows that straddle block edges at
# different offsets.
EDGE_SHAPES = [(0,), (0, 3), (4, 0), (_BLOCK - 1,), (_BLOCK + 1,), (2, _BLOCK + 1),
               (3, _BLOCK // 3 + 1), (_BLOCK // 7 + 1, 7)]


def edge_array(shape):
    rng = np.random.default_rng(len(shape) * _BLOCK + shape[-1])
    return rng.choice(np.array(SPECIAL_VALUES), size=shape)


def csv_values(values):
    """The value column ``_csv_lines`` writes for ``values``."""
    fn = SimpleNamespace(domain=PointSet.lattice([np.arange(len(values), dtype=float)]),
                         values=values)
    lines = _csv_lines(fn)
    assert lines[0] == "x0,value"
    return [line.split(",")[1] for line in lines[1:]]


def check_array_text(arr, level):
    # Compared line by line: a failure names its first line, where a diff
    # of two megabyte strings would take minutes.
    expected = dumps_reference(encode_values(arr)).replace("\n", "\n" + "  " * level)
    assert _dump_json(arr, level).split("\n") == expected.split("\n")
    if arr.ndim == 1 and arr.size:
        assert csv_values(arr) == [str(v) for v in encode_values(arr)]


class TestArrayWriter:
    @settings(deadline=None)
    @given(SMALL_ARRAYS, st.integers(0, 3))
    def test_matches_json_dumps_and_str_of_encoded_values(self, arr, level):
        check_array_text(arr, level)

    @pytest.mark.parametrize("level", [0, 3])
    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    def test_block_edges(self, shape, level):
        check_array_text(edge_array(shape), level)

    def test_arrays_inside_a_payload(self):
        m = np.array([[-0.0, POS_INF], [NEG_INF, 0.1]])
        payload = {"m": m, "rows": [m[0], {"v": m[:, 1]}], "empty": np.zeros((2, 0))}
        reference = {"m": encode_values(m), "rows": [encode_values(m[0]), {"v": encode_values(m[:, 1])}],
                     "empty": [[], []]}
        assert _dump_json(payload) == dumps_reference(reference)

    def test_peak_memory_stays_within_two_and_a_half_outputs(self):
        assert peak_over_output({"matrix": least_action_like_matrix()}) <= 2.5


# Entries from a small alphabet, repeated, so that blocks are written as
# runs: 0.0 and -0.0 are equal but print apart, and every NaN prints as
# null.
RUN_VALUES = [NEG_INF, POS_INF, 0.0, -0.0, float("nan"), 1.5]
RUN_ARRAYS = st.tuples(
    st.lists(st.tuples(st.sampled_from(RUN_VALUES), st.integers(1, 12)),
             min_size=1, max_size=12),
    st.integers(0, 8),
).map(lambda t: runs_array(*zip(*t[0]), row_len=t[1]))


def runs_array(values, counts, row_len=0, size=_RUNS_MIN + 7):
    """``values[i]`` repeated ``counts[i]`` times, that pattern repeated to
    ``size`` entries (enough for a block to be written as runs), and cut
    into rows of ``row_len`` entries (the tail that fills no row dropped)
    unless 0."""
    flat = np.resize(np.repeat(np.array(values, dtype=float), counts), size)
    if not row_len:
        return flat
    rows = len(flat) // row_len
    return flat[: rows * row_len].reshape(rows, row_len)


def nan_with_payload(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.int64).view(float)[0]


class TestArrayWriterRuns:
    @settings(deadline=None)
    @given(RUN_ARRAYS, st.integers(0, 3))
    def test_runs_match_json_dumps_and_str_of_encoded_values(self, arr, level):
        check_array_text(arr, level)

    @pytest.mark.parametrize("value", [NEG_INF, -0.0, 1.5])
    @pytest.mark.parametrize("shape", [(_BLOCK + 1,), (2, _BLOCK + 1)])
    def test_constant_arrays_past_a_block(self, shape, value):
        check_array_text(np.full(shape, value), 2)

    def test_runs_of_671_entry_rows_across_a_block_edge(self):
        # The two block edges fall inside runs of -inf: row 97 holds the
        # first, at column 449, and row 195 the second, at column 227.
        arr = np.full((200, 671), NEG_INF)
        arr[:, :40] = np.arange(40) / 8
        arr[:, 600:] = -0.0
        arr[::3, 660:] = 0.0
        check_array_text(arr, 1)
        check_array_text(arr.ravel(), 1)

    @pytest.mark.parametrize("run", [1, 3, 700])
    def test_alternating_signed_zeros(self, run):
        check_array_text(runs_array([0.0, -0.0], run), 1)
        check_array_text(runs_array([-0.0, 0.0], run, row_len=10), 1)

    def test_nans_with_different_payloads(self):
        nans = [nan_with_payload(p) for p in (0, 1, 2**51 - 1)]
        nans.append(-nans[0])
        arr = runs_array(nans + [1.5] + nans[::-1], [5, 1, 7, 2, 3, 9, 1, 1, 4])
        assert len({v.tobytes() for v in arr[np.isnan(arr)]}) == 4
        check_array_text(arr, 0)
        check_array_text(arr[:-7].reshape(-1, 16), 0)

    def test_vector_ending_in_a_run(self):
        check_array_text(np.append(runs_array([0.5, -2.0], [3, 1]), [NEG_INF] * 20), 1)
        check_array_text(runs_array([0.5, -0.0], [1, _BLOCK + 5], size=_BLOCK + 6), 0)

    def test_least_action_kernel_is_written_as_runs(self):
        # The 11x61 kernel of the least-action benchmark: one part per run
        # (66,721 of 450,241 entries), not one per entry.
        half = 60 * 0.125 / 2
        problem = MaupertuisProblem.from_spec({
            "time_grid": {"start": 0.0, "stop": 10 * 0.125, "num": 11},
            "space_grid": {"start": -half, "stop": half, "num": 61},
            "lagrangian": {"name": "quadratic"},
            "stencil": [[-0.125], [0.0], [0.125]],
        })
        matrix = maupertuis_dp(problem).matrix
        assert matrix.shape == (671, 671)
        assert len(_array_parts(matrix, 1)) <= 70_000

    def test_array_without_equal_neighbours_is_written_per_entry(self):
        arr = np.arange(240 * 240, dtype=float).reshape(240, 240) / 4
        assert len(_array_parts(arr, 1)) == 240 * 240

    def test_short_array_is_written_per_entry(self):
        assert len(_array_parts(np.full(_RUNS_MIN - 1, NEG_INF), 1)) == _RUNS_MIN - 1
        assert len(_array_parts(np.full(_RUNS_MIN, NEG_INF), 1)) == 1


# Lattice axes: distinct coordinates with signed zero, negative and
# non-dyadic values, linspace axes and single-point axes.
LATTICE_COORDS = st.one_of(
    st.sampled_from([-0.0, -1.0, 0.1, -1.0 / 3.0, 5e-324, -1e300, float("inf")]),
    st.floats(allow_nan=False),
)
LATTICE_AXES = st.one_of(
    st.lists(LATTICE_COORDS, min_size=1, max_size=4, unique=True),
    st.tuples(st.integers(-5, 5), st.integers(1, 7), st.integers(1, 6)).map(
        lambda t: np.linspace(t[0] / 3, t[0] / 3 + t[1] / 7, t[2]).tolist()
    ),
)


class TestInfiniteCoordinates:
    """Coordinates of ±inf are written "inf" and "-inf", as values are, so
    the output is strict JSON and reads back to the same points."""

    @staticmethod
    def run_strict(capsys, tmp_path, command, payload):
        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main([command, "--input", str(path)]) == 0
        return json.loads(capsys.readouterr().out, parse_constant=refuse)

    def test_conjugate_points(self, capsys, tmp_path):
        payload = {"kernel": {"type": "closed_form", "name": "dirac"},
                   "points": [[0.0], ["inf"]], "values": [0.0, 0.0]}
        out = self.run_strict(capsys, tmp_path, "conjugate", payload)
        assert out["points"] == [[0.0], ["inf"]]

    @pytest.mark.parametrize("command", ["interpolate", "regress"])
    def test_witnesses_and_anchors(self, capsys, tmp_path, command):
        points = [[0.0, "-inf"], ["inf", 1.0]]
        payload = {"kernel": {"type": "closed_form", "name": "dirac"},
                   "samples": {"xs": points, "ys": [1.0, 2.0]}, "dual_candidates": points}
        out = self.run_strict(capsys, tmp_path, command, payload)
        expected = decode_values(points)
        assert np.array_equal(decode_values(out["witnesses"]), expected)
        anchors = [p for p, _ in out["f0"]["terms"]]
        assert np.array_equal(decode_values(anchors), expected)

    def test_lattice_axes(self):
        lattice = PointSet.lattice([[0.0, POS_INF], [NEG_INF, 1.0]])
        text = _dump_json({"points": lattice})
        out = json.loads(text, parse_constant=lambda name: pytest.fail(name))
        assert np.array_equal(decode_values(out["points"]), lattice.as_array())

    @pytest.mark.parametrize("command", ["conjugate", "check-tpsd", "membership"])
    @pytest.mark.parametrize(
        "name, points",
        [("conv", [[0.0], ["inf"]]), ("conv", [[1.0], ["inf"]]), ("sconv", [[0.0], ["-inf"]]),
         ("lip", [[0.0, "inf"], [1.0, 2.0]]), ("power_distance", [["-inf"], [1.0]])],
    )
    def test_closed_forms_are_undefined_at_an_infinite_coordinate(
        self, capsys, tmp_path, command, name, points
    ):
        # NaN or +inf in the table: exit 1 with JSON, not a traceback.
        payload = {"kernel": {"type": "closed_form", "name": name},
                   "points": points, "values": [0.0, 0.0]}
        code, out = invoke(capsys, tmp_path, command, payload)
        assert code == 1
        assert out["error"]["kind"] == "precondition"
        assert f"kernel {name!r} values must" in out["error"]["message"]


class TestOneNumberRule:
    """Every input number is a JSON number (not a boolean) or "inf"/"-inf",
    in point lists, grids, stencils and velocity tables as in values."""

    GRID = {"start": -0.5, "stop": 0.5, "num": 5}

    @pytest.mark.parametrize(
        "points",
        [[[True], ["2.5"]], [[0.0], ["2.5"]], [[0.0], ["1e400"]], [False, 1.0], [[0.0], [" 3 "]]],
    )
    def test_point_coordinates(self, capsys, tmp_path, points):
        payload = {"kernel": {"type": "closed_form", "name": "sconv"}, "points": points}
        code, out = invoke(capsys, tmp_path, "check-tpsd", payload)
        assert (code, out["error"]["field"]) == (2, "points")

    @pytest.mark.parametrize(
        "change",
        [
            {"time_grid": {"start": 0, "stop": 0.75, "num": 3.9}},
            {"time_grid": {"start": 0, "stop": 0.75, "num": 4.0}},
            {"time_grid": {"start": 0, "stop": 0.75, "num": "4"}},
            {"space_grid": {**GRID, "start": "-0.5"}},
            {"space_grid": {"start": 0, "stop": True, "num": 5}},
            {"space_grid": {"axes": [GRID, {"start": 0, "stop": 0, "num": True}]},
             "stencil": [[-0.25, 0.0], [0.0, 0.0], [0.25, 0.0]]},
            {"space_grid": [-0.5, -0.25, "0", 0.25, 0.5]},
            {"time_grid": [False, 0.25, 0.5, 0.75]},
            {"stencil": [["-0.25"], [0.0], [0.25]]},
            {"stencil": [[-0.25], [False], [0.25]]},
            {"stencil": [-0.25, [0.0], 0.25]},
            {"lagrangian": {"name": "table", "velocities": [[-1.0], [False], [1.0]],
                            "costs": [1.0, 0.0, 1.0]}},
            {"lagrangian": {"name": "table", "velocities": [[-1.0], [0.0], [1.0], [1.0, 0.0]],
                            "costs": [1.0, 0.0, 1.0, 1.0]}},
        ],
    )
    def test_problem_numbers(self, capsys, tmp_path, change):
        payload = {"problem": {**PROBLEM_4X5, **change}, "terminal_values": [0.0] * 5}
        code, out = invoke(capsys, tmp_path, "value-function", payload)
        assert (code, out["error"]["field"]) == (2, "problem")

    def test_the_same_problem_in_numbers_runs(self, capsys, tmp_path):
        problem = {**PROBLEM_4X5, "time_grid": {"start": 0, "stop": 0.75, "num": 4},
                   "space_grid": self.GRID, "stencil": [[-0.25], [0], [0.25]],
                   "lagrangian": {"name": "table", "velocities": [[-1], [0], [1]],
                                  "costs": [1, 0, 1]}}
        code, out = invoke(capsys, tmp_path, "value-function",
                           {"problem": problem, "terminal_values": [0.0] * 5})
        assert code == 0
        assert out["values"] == [0.0] * 20


class TestLatticeWriter:
    @settings(deadline=None)
    @given(st.lists(LATTICE_AXES, min_size=1, max_size=3), st.integers(0, 3))
    def test_matches_json_dumps_of_the_points(self, axes, level):
        # Coordinates are written as extended reals: +inf as "inf".
        points = encode_values(np.array(list(itertools.product(*axes))))
        expected = dumps_reference(points).replace("\n", "\n" + "  " * level)
        assert _dump_json(PointSet.lattice(axes), level) == expected

    def test_lattice_inside_a_payload(self):
        axes = [[0.0, 0.5], [-0.0, 1.0 / 3.0, 1.0]]
        points = [list(p) for p in itertools.product(*axes)]
        lattice = PointSet.lattice(axes, has_time=True)
        explicit = PointSet(tuple(map(tuple, points)))
        payload = {"points": lattice, "nested": [{"grid": explicit}], "values": [1.0]}
        reference = {"points": points, "nested": [{"grid": points}], "values": [1.0]}
        assert _dump_json(payload) == dumps_reference(reference)
