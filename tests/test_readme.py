"""The README's examples run as printed.

Both are read from README.md itself, so an example that drifts from the
package fails here rather than in a reader's hands.
"""

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

from test_cli import module_env

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_quick_start_prints_the_commented_values():
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == "[0.0, 0.0, 0.5, 1.0]\n"
    assert "# [0.0, 0.0, 0.5, 1.0]" in block


def test_command_line_example_interpolates(tmp_path):
    document = re.search(r"cat > in.json <<'EOF'\n(.*?)\nEOF\ntropkern (\S+)", README, re.S)
    (tmp_path / "in.json").write_text(document.group(1))
    proc = subprocess.run(
        [sys.executable, "-m", "tropkern", document.group(2), "--input", "in.json"],
        cwd=tmp_path, env=module_env("0"), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert document.group(2) == "interpolate"
    assert json.loads(proc.stdout)["feasible"] is True
