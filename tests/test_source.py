"""The library's source makes no BLAS call, so no output depends on the CPU."""

import ast
from pathlib import Path

import pytest

import tropkern

MODULES = sorted(Path(tropkern.__file__).resolve().parent.glob("*.py"))
# numpy's names that reach BLAS or LAPACK, whose kernels (and so their
# rounding) OpenBLAS picks for the CPU at run time.
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum", "linalg"}


def blas_uses(source):
    """(line, name) of each ``@``, attribute or import of a BLAS name.

    A bare name can reach numpy's function only through an import, so a
    local variable called ``inner`` is not one; nor is a decorator.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Import | ast.ImportFrom):
            modules = [getattr(node, "module", None) or ""]  # from <module> import ...
            for name in [alias.name for alias in node.names] + modules:
                for part in name.split("."):
                    if part in BLAS_NAMES:
                        yield node.lineno, part


def test_the_package_has_modules():
    assert {"kernels.py", "core.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_makes_no_blas_call(path):
    assert list(blas_uses(path.read_text())) == []


def test_every_form_of_a_blas_call_is_found():
    source = "\n".join([
        "import numpy as np",                      # 1
        "import numpy.linalg",                     # 2
        "from numpy import einsum, maximum",       # 3
        "from numpy.linalg import norm",           # 4
        "@property",                               # 5
        "def f(a, b, mp_matmul, inner):",          # 6
        "    c = a @ b",                           # 7
        "    c @= b",                              # 8
        "    d = a.dot(b) + np.inner(a, b)",       # 9
        "    return mp_matmul(inner, np.maximum(c, d)), np.vdot(a, b)",  # 10
    ])
    assert sorted(blas_uses(source)) == [
        (2, "linalg"), (3, "einsum"), (4, "linalg"), (7, "@"), (8, "@"),
        (9, "dot"), (9, "inner"), (10, "vdot"),
    ]
