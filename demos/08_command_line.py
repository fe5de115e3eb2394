"""
The command-line interface
==========================

Every capability is reachable as `tropkern <subcommand> --input in.json`
with a JSON result on stdout.  Exit codes: 0 for a computed verdict (even a
negative one), 1 for infeasibility or a violated precondition, 2 for I/O
and schema errors.  This demo drives the same entry point the console
script uses, so it runs without installing anything.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from tropkern.cli import COMMANDS, main

scratch = tempfile.TemporaryDirectory(prefix="tropkern-demo-")
workdir = Path(scratch.name)
print("subcommands:", ", ".join(sorted(COMMANDS)))


def run(command, payload, *extra):
    path = workdir / f"{command}.json"
    path.write_text(json.dumps(payload))
    print(f"\n$ tropkern {command} --input {path.name}", *extra)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([command, "--input", str(path), *extra])
    lines = buffer.getvalue().splitlines()
    if len(lines) > 24:
        lines = lines[:12] + [f"... ({len(lines) - 12} more lines)"]
    print("\n".join(lines))
    print("exit code:", code)
    return code


# A positivity verdict (exit 0 either way).
gram = {
    "type": "gram",
    "points": [0, 1, 2],
    "matrix": [[0, -1, -2], [-1, 0, -1], [-2, -1, 0]],
}
run("check-tpsd", {"kernel": gram, "permutation_m_max": 3})

# Feasible interpolation: witnesses and values in the result.
run(
    "interpolate",
    {
        "kernel": {"type": "closed_form", "name": "conv", "params": {}},
        "samples": {"xs": [[0.0], [1.0], [2.0]], "ys": [0.0, 0.0, 1.0]},
        "dual_candidates": [[-1.0], [0.0], [1.0]],
    },
)

# Infeasible interpolation: exit 1 and a 1-based blocking index.
run(
    "interpolate",
    {
        "kernel": {"type": "closed_form", "name": "conv", "params": {}},
        "samples": {"xs": [[0.0], [1.0], [2.0]], "ys": [0.0, 1.0, 0.0]},
        "dual_candidates": [[-1.0], [0.0], [1.0]],
    },
)

# Grid results also land in a CSV sibling next to --output.
out = workdir / "value.json"
run(
    "value-function",
    {
        "problem": {
            "time_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
            "space_grid": {"start": -1.0, "stop": 1.0, "num": 9},
            "lagrangian": {"name": "quadratic"},
            "stencil": [[-0.25], [0.0], [0.25]],
        },
        "terminal_values": [1.0, 0.5625, 0.25, 0.0625, 0.0, 0.0625, 0.25, 0.5625, 1.0],
    },
    "--output",
    str(out),
)
csv_lines = (workdir / "value.csv").read_text().splitlines()
print("CSV header:", csv_lines[0])
print("CSV rows:", len(csv_lines) - 1, "| first row:", csv_lines[1])

# Schema problems point at the offending field and exit 2.
run("check-tpsd", {"kernel": {"type": "gram", "points": [0, 1]}})

scratch.cleanup()
