"""End-to-end command-line tests: JSON in, JSON/CSV out, exit codes."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tropkern
from tropkern.cli import COMMANDS, RunConfig, run, main

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

    def test_regularity_conv_three_points(self, capsys, tmp_path):
        payload = {"kernel": CONV, "points": [[-1.0], [0.0], [1.0]]}
        code, out = invoke(capsys, tmp_path, "regularity", payload)
        assert code == 0
        assert out == {"idempotent": False, "von_neumann_regular": False}

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
        assert out["exact"] is False
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


class TestGoldenOutputs:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_stdout_bytes_match_golden(self, capsys, command):
        code = main([command, "--input", str(GOLDEN / f"{command}.json")])
        out = capsys.readouterr().out
        expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
        assert code == expected_codes[command]
        assert out.encode() == (GOLDEN / f"{command}.stdout").read_bytes()


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

    @pytest.mark.parametrize("command", ["interpolate", "regress"])
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


class TestErrorPlumbing:
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

    def test_all_commands_registered(self):
        from tropkern.cli import _HANDLERS

        assert set(_HANDLERS) == set(COMMANDS)
        assert len(COMMANDS) == 13


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
               "--input", str(path), "--seed", "3"]
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
