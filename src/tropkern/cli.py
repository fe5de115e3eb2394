"""Command-line entry point with JSON/CSV input and output.

Each subcommand reads one JSON document (``--input``), computes a verdict or
an artifact, prints deterministic JSON to stdout, and optionally writes it to
``--output`` (grid-function results additionally get a CSV sibling with one
coordinate column per dimension plus a ``value`` column).

Exit codes:
    0  the computation ran and produced a verdict (even a negative one);
    1  a precondition failed or the problem is infeasible (the JSON carries a
       machine-readable diagnosis);
    2  the input could not be read or does not match the command's schema
       (the JSON names the offending field).

Extended reals, point coordinates included, are encoded as numbers, with
the strings ``"inf"`` and ``"-inf"`` for the two infinities, in both JSON and
CSV.  Handlers put arrays in their payloads, the integer fields as int64
arrays; one coder (``_run_texts``) prints each one, and each CSV sibling as
one array of coordinates and values, from the text of its distinct values,
a run of equal entries as one text, with the bytes
``json.dumps(encode_values(array), indent=2, sort_keys=True)`` would give
(of the ints themselves for an int array).  Only a lattice's points in JSON
are written from the text of its axes.
``--tol`` must be a finite number >= 0.  ``blocking_index`` counts samples from
1; ``negative_cycle``, ``witness_indices`` and ``witness`` count from 0.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .conjugation import (
    ConjugationOp,
    apply_linear,
    conj_sesqui,
    funk_kernel,
    is_in_range,
)
from .control import (
    MaupertuisProblem,
    asymmetrize,
    invert_terminal_cost,
    largest_subsolution_check,
    maupertuis_dp,
    space_slice_kernel,
    value_function,
)
from .core import (
    NEG_INF,
    POS_INF,
    GridFunction,
    PointSet,
    PreconditionError,
    Record,
    SizeError,
    decode_values,
    encode_extreal,
    encode_values,
    point_array,
)
from .kernels import (
    GramKernel,
    check_permutation_positivity,
    factorize,
    gram_on,
    is_tpsd_pairwise,
    kernel_from_spec,
)
from .linear_theory import (
    FunctionFamily,
    is_idempotent,
    max_kernel_cG,
    regularity,
)
from .representer import (
    InfeasibleConstraintsError,
    SampleSet,
    build_f0,
    feasible_witnesses,
    reconstruct_stopping_cost,
    regress,
)

class RunConfig(Record):
    """One reproducible CLI invocation.

    Attributes:
        command: Subcommand name (one of COMMANDS).
        input_path: JSON input document.
        output_path: Optional JSON output destination (CSV sibling for grid
            functions).
        tolerance: Numerical tolerance override for verdicts.
    """

    command: str
    input_path: str
    output_path: str | None = None
    tolerance: float = 1e-9


class _SchemaError(Exception):
    """Input document cannot be read (kind ``io``) or does not match the
    command's schema (kind ``schema``)."""

    def __init__(self, field: str, message: str, kind: str = "schema") -> None:
        super().__init__(message)
        self.field = field
        self.kind = kind


# ---------------------------------------------------------------------------
# Schema helpers.
# ---------------------------------------------------------------------------


def _load(path: str) -> Mapping:
    """The input document, which must be one JSON object."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _SchemaError("input", str(exc), kind="io") from exc
    except json.JSONDecodeError as exc:
        raise _SchemaError("input", str(exc)) from exc
    if not isinstance(data, Mapping):
        raise _SchemaError("input", "top level must be a JSON object")
    return data


def _need(data: Mapping, field: str, parent: str = "") -> object:
    path = f"{parent}.{field}" if parent else field
    if not isinstance(data, Mapping):
        raise _SchemaError(parent or field, "expected a JSON object")
    if field not in data:
        raise _SchemaError(path, "missing required field")
    return data[field]


def _read(field: str, reader: Callable, *args: object):
    """``reader(*args)``: the one place where a library error becomes a
    schema error on ``field``, for a TypeError, ValueError, KeyError or
    OverflowError; PreconditionError and SizeError (exit 1) pass through."""
    try:
        return reader(*args)
    except (PreconditionError, SizeError):
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise _SchemaError(field, str(exc)) from exc


def _point_array(raw: object, field: str, kernel=None) -> np.ndarray:
    """Points in input order as one (n, d) array (``point_array``); a Gram
    ``kernel`` is defined only on its grid."""
    points = _read(field, point_array, raw)
    if isinstance(kernel, GramKernel):
        off = np.flatnonzero(kernel.points.indices(points) < 0)
        if off.size:
            p = tuple(points[off[0]].tolist())
            raise _SchemaError(field, f"point {p} is not on the kernel's grid")
    return points


def _points(raw: object, field: str, kernel=None) -> PointSet:
    return _read(field, PointSet, _point_array(raw, field, kernel))


def _values(raw: object, field: str) -> np.ndarray:
    return _read(field, decode_values, raw)


def _kernel(data: Mapping):
    spec = _need(data, "kernel")
    if not isinstance(spec, Mapping):
        raise _SchemaError("kernel", "expected a kernel object")
    return _read("kernel", kernel_from_spec, spec)


def _kernel_domain(data: Mapping):
    """The kernel and the grid its operator acts on.

    Gram kernels carry their grid; closed-form kernels need explicit points.
    """
    kernel = _kernel(data)
    if "points" in data:
        return kernel, _points(data["points"], "points", kernel)
    if isinstance(kernel, GramKernel):
        return kernel, kernel.points
    raise _SchemaError("points", "closed-form kernels require explicit points")


def _grid_function(domain: PointSet, raw: object, field: str) -> GridFunction:
    values = _values(raw, field)
    if values.shape != (len(domain),):
        raise _SchemaError(
            field, f"expected {len(domain)} values, got {values.shape}"
        )
    return GridFunction(domain, values)


def _samples(data: Mapping, kernel, candidates: PointSet | None = None) -> SampleSet:
    """Samples on the kernel's grid; ``dual_candidates`` unless given."""
    raw = _need(data, "samples")
    xs = _points(_need(raw, "xs", "samples"), "samples.xs", kernel)
    ys = _values(_need(raw, "ys", "samples"), "samples.ys")
    if ys.ndim != 1 or len(ys) != len(xs):
        raise _SchemaError("samples.ys", "one finite target per sample point")
    if candidates is None:
        candidates = _points(_need(data, "dual_candidates"), "dual_candidates", kernel)
    if candidates.dim != xs.dim:
        raise _SchemaError(
            "dual_candidates", f"points must have dimension {xs.dim}, as samples.xs"
        )
    return _read("samples", SampleSet, xs, ys, candidates)


def _problem(data: Mapping) -> MaupertuisProblem:
    spec = _need(data, "problem")
    if not isinstance(spec, Mapping):
        raise _SchemaError("problem", "expected a problem object")
    return _read("problem", MaupertuisProblem.from_spec, spec)


def _flag(data: Mapping, field: str) -> bool:
    value = data.get(field, False)
    if not isinstance(value, bool):
        raise _SchemaError(field, "expected true or false")
    return value


def _f0_payload(f0) -> dict:
    """The (anchor, offset) terms of a canonical interpolant."""
    return {"terms": [list(term) for term in zip(encode_values(f0.anchors),
                                                 encode_values(f0.offsets))]}


# ---------------------------------------------------------------------------
# Subcommand handlers: input mapping -> (payload, optional grid fn); a handler
# that returns ran (exit 0), and ``run`` maps each error to its exit code.
# ---------------------------------------------------------------------------

Handler = Callable[[Mapping, RunConfig], tuple[dict, GridFunction | None]]


def _cmd_check_tpsd(data: Mapping, config: RunConfig):
    kernel, points = _kernel_domain(data)
    gram = GramKernel._adopt(points, gram_on(kernel, points))
    verdict = is_tpsd_pairwise(gram, tol=config.tolerance)
    payload: dict = {"tpsd": verdict.is_tpsd}
    if not verdict.is_tpsd:
        payload["failure"] = verdict.failure
        payload["witness"] = np.array(verdict.witness, dtype=np.int64)
    m_max = data.get("permutation_m_max")
    if m_max is not None:
        if type(m_max) is not int or m_max < 1:
            raise _SchemaError("permutation_m_max", "expected a positive integer")
        perm = check_permutation_positivity(
            gram.matrix, m_max=m_max, tol=config.tolerance
        )
        payload["permutation_positive"] = perm.holds
    return payload, None


def _cmd_factorize(data: Mapping, config: RunConfig):
    kernel, domain = _kernel_domain(data)
    feature_map = factorize(GramKernel._adopt(domain, gram_on(kernel, domain)))
    payload = {
        "points": feature_map.points,
        "labels": np.array(feature_map.z_labels, dtype=np.int64),
        "features": feature_map.psi,
    }
    return payload, None


def _cmd_conjugate(data: Mapping, config: RunConfig):
    kernel, domain = _kernel_domain(data)
    f = _grid_function(domain, _need(data, "values"), "values")
    direction = data.get("direction", "sesqui")
    if direction not in ("sesqui", "linear"):
        raise _SchemaError("direction", "expected 'sesqui' or 'linear'")
    op = ConjugationOp(kernel, domain)
    out = conj_sesqui(op, f) if direction == "sesqui" else apply_linear(op, f)
    payload = {
        "points": out.domain,
        "values": out.values,
    }
    return payload, out


def _cmd_membership(data: Mapping, config: RunConfig):
    kernel, domain = _kernel_domain(data)
    g = _grid_function(domain, _need(data, "values"), "values")
    op = ConjugationOp(kernel, domain)
    verdict = is_in_range(op, g, tol=config.tolerance)
    payload = {
        "in_range": verdict.in_range,
        "gap": verdict.gap.values,
        "biconjugate": verdict.biconjugate.values,
    }
    return payload, None


def _cmd_funk(data: Mapping, config: RunConfig):
    kernel, domain = _kernel_domain(data)
    op = ConjugationOp(kernel, domain)
    payload = {
        "points": domain,
        "matrix": funk_kernel(op),
    }
    return payload, None


def _cmd_cg_kernel(data: Mapping, config: RunConfig):
    domain = _points(_need(data, "points"), "points")
    raw_members = _need(data, "members")
    if not isinstance(raw_members, Sequence) or not raw_members:
        raise _SchemaError("members", "expected a nonempty list of value lists")
    members = []
    for k, raw in enumerate(raw_members):
        members.append(_grid_function(domain, raw, f"members[{k}]"))
    family = _read("members", FunctionFamily, domain, tuple(members))
    cg = max_kernel_cG(family)
    payload = {
        "points": domain,
        "matrix": cg,
        "idempotent": is_idempotent(cg, tol=config.tolerance),
    }
    return payload, None


def _cmd_regularity(data: Mapping, config: RunConfig):
    """The verdicts of ``is_idempotent`` and ``is_von_neumann_regular``, via ``regularity``."""
    kernel, domain = _kernel_domain(data)
    idempotent, regular = regularity(gram_on(kernel, domain), tol=config.tolerance)
    return {"idempotent": idempotent, "von_neumann_regular": regular}, None


def _cmd_interpolate(data: Mapping, config: RunConfig):
    kernel = _kernel(data)
    samples = _samples(data, kernel)
    wit = feasible_witnesses(samples, kernel, tol=config.tolerance)
    f0 = build_f0(samples, wit, kernel, tol=config.tolerance)
    payload = {
        "feasible": True,
        "witnesses": wit.witnesses,
        "witness_indices": np.array(wit.witness_indices, dtype=np.int64),
        "f0": _f0_payload(f0),
        "values_at_xs": f0.on_grid(samples.xs).values,
    }
    return payload, None


def _cmd_regress(data: Mapping, config: RunConfig):
    kernel = _kernel(data)
    samples = _samples(data, kernel)
    loss = data.get("loss", "sup_norm")
    if loss not in ("sup_norm", "sup", "l1"):
        raise _SchemaError("loss", "expected 'sup_norm' or 'l1'")
    mode = data.get("mode", "search")
    fixed_p = None
    if isinstance(mode, Mapping):
        fixed_p = _point_array(_need(mode, "fixed_p", "mode"), "mode.fixed_p", kernel)
        if len(fixed_p) != len(samples):
            raise _SchemaError("mode.fixed_p", "expected one anchor per sample")
        if fixed_p.shape[1] != samples.xs.dim:
            raise _SchemaError(
                "mode.fixed_p", f"points must have dimension {samples.xs.dim}, as samples.xs"
            )
    elif mode != "search":
        raise _SchemaError("mode", "expected 'search' or {'fixed_p': [...]}")
    result = regress(samples, kernel, loss=loss, fixed_p=fixed_p, tol=config.tolerance)
    payload = {
        "feasible": True,
        "witnesses": result.p_star,
        "y_star": result.y_star,
        "loss_value": encode_extreal(result.loss_value),
        "exact": result.exact,
        "f0": _f0_payload(result.interpolant),
    }
    return payload, None


def _cmd_maupertuis(data: Mapping, config: RunConfig):
    problem = _problem(data)
    asymmetric = _flag(data, "asymmetric")
    gram = maupertuis_dp(problem)
    if asymmetric:
        gram = asymmetrize(gram)
    payload = {
        "points": gram.points,
        "matrix": gram.matrix,
        "asymmetric": asymmetric,
    }
    return payload, None


def _cmd_value_function(data: Mapping, config: RunConfig):
    problem = _problem(data)
    psi = _grid_function(
        problem.space_points(), _need(data, "terminal_values"), "terminal_values"
    )
    check_extremal = _flag(data, "check_extremal")
    v = value_function(problem, psi)
    payload = {
        "points": v.domain,
        "values": v.values,
    }
    if check_extremal:
        payload["largest_subsolution"] = largest_subsolution_check(
            problem, psi, tol=config.tolerance
        )
    return payload, v


def _cmd_invert_stopping_cost(data: Mapping, config: RunConfig):
    kernel = _kernel(data)
    if not isinstance(kernel, GramKernel):
        raise _SchemaError("kernel", "stopping-cost inversion needs a gram kernel")
    samples = _samples(data, kernel, kernel.points)
    result = reconstruct_stopping_cost(samples, kernel, tol=config.tolerance)
    out = result.stopping_cost
    payload = {
        "points": out.domain,
        "stopping_cost": out.values,
        "y_star": result.y_star,
        "loss_value": encode_extreal(result.loss_value),
    }
    return payload, out


def _cmd_invert_terminal_cost(data: Mapping, config: RunConfig):
    problem = _problem(data)
    start = data.get("start_index", 0)
    if type(start) is not int or not (0 <= start < problem.n_time - 1):
        raise _SchemaError("start_index", "expected a time index before the last")
    kernel = space_slice_kernel(problem, start, problem.n_time - 1)
    candidates = None if "dual_candidates" in data else problem.space_points()
    samples = _samples(data, kernel, candidates)
    result = invert_terminal_cost(samples, kernel, tol=config.tolerance)
    payload = {
        "feasible": True,
        "witnesses": result.witnesses,
        "witness_indices": np.array(result.witness_indices, dtype=np.int64),
        "points": result.psi_T.domain,
        "psi_T": result.psi_T.values,
    }
    return payload, result.psi_T


_HANDLERS: dict[str, Handler] = {
    "check-tpsd": _cmd_check_tpsd,
    "factorize": _cmd_factorize,
    "conjugate": _cmd_conjugate,
    "membership": _cmd_membership,
    "funk": _cmd_funk,
    "cg-kernel": _cmd_cg_kernel,
    "regularity": _cmd_regularity,
    "interpolate": _cmd_interpolate,
    "regress": _cmd_regress,
    "maupertuis": _cmd_maupertuis,
    "value-function": _cmd_value_function,
    "invert-stopping-cost": _cmd_invert_stopping_cost,
    "invert-terminal-cost": _cmd_invert_terminal_cost,
}

COMMANDS = tuple(_HANDLERS)


# ---------------------------------------------------------------------------
# Output plumbing.
# ---------------------------------------------------------------------------


_SCALAR_TYPES = {str, int, float, bool, type(None)}


def _dump_json(obj, level: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    ``obj`` is written as if it sat ``level`` levels deep, so later lines
    carry that indent.  A 1-D or 2-D ``np.ndarray``, float64 or int64, is
    written as ``encode_values`` of it, or as its ints (``_array_parts``,
    which writes a run of equal entries as one text); a ``PointSet`` as its
    coordinate array, or a lattice from the text of its axes.  With
    ``indent`` json falls back to its pure-Python encoder, so a list of pairs
    [non-empty scalar list, scalar], as the f0 terms, goes through one call
    of the C encoder (``indent=None``) with the newlines and indents in the
    item separator; every other list recurses.
    """
    ind = "\n" + "  " * level
    pad = ind + "  "
    if isinstance(obj, np.ndarray):
        return "".join(_array_parts(obj, level))
    if isinstance(obj, PointSet):
        if obj.axes is not None:
            return _lattice_json(obj.axes, level)
        return "".join(_array_parts(obj.as_array(), level))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(type(key) is str for key in obj):
            # json's own key coercion (numbers, bools, None) and error.
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", ind)
        parts = ["{"]
        for key in sorted(obj):
            parts += (pad, json.dumps(key), ": ")
            value = obj[key]
            # An array's parts join the dict's, so its text is copied once.
            if isinstance(value, np.ndarray):
                parts += _array_parts(value, level + 1)
            else:
                parts.append(_dump_json(value, level + 1))
            parts.append(",")
        parts[-1] = ind + "}"
        return "".join(parts)
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "[]"
    if all(type(item) is list and len(item) == 2 and type(item[0]) is list and item[0]
           for item in obj) and set(map(type, itertools.chain.from_iterable(
               [*item[0], item[1]] for item in obj))) <= _SCALAR_TYPES:
        # A separator after a list ("]," + pad3) is followed by "[" between
        # pairs and by the scalar inside a pair.  It holds a newline, which
        # ensure_ascii escapes inside every string, so it only ends a list.
        pad2, pad3 = pad + "  ", pad + "    "
        body = json.dumps(obj, separators=("," + pad3, ": "))[3:-2]
        body = body.replace(
            "]," + pad3 + "[[", pad + "]," + pad + "[" + pad2 + "[" + pad3
        ).replace("]," + pad3, pad2 + "]," + pad2)
        return "".join(("[", pad, "[", pad2, "[", pad3, body, pad, "]", ind, "]"))
    items = ("," + pad).join([_dump_json(item, level + 1) for item in obj])
    return "".join(("[", pad, items, ind, "]"))


# Entries per block of the array writer, so that its codes and lookups stay
# small next to the text it writes whatever the array's size.
_BLOCK = 1 << 16

# Entries a block needs before it is written as runs.  Below that the dozen
# numpy calls the runs take cost more than they save: at 4096 entries a
# constant block is still written faster as runs, but a block of the 11x61
# least-action kernel only breaks even and a -inf-heavy random one is 1.2x
# slower; at 8192 all three are faster.
_RUNS_MIN = 1 << 13

# The text of +inf, -inf and NaN, as json and str write encode_values'
# "inf", "-inf" and None.
_JSON_NONFINITE = ('"inf"', '"-inf"', "null")
_CSV_NONFINITE = ("inf", "-inf", "None")


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for a 1-D array, less the
    wrapper that costs more than the sort on small arrays."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(keys.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _coded_texts(
    values: np.ndarray, nonfinite: tuple[str, str, str], sep: str, row_sep: str,
    row_ends: slice | np.ndarray | None,
) -> tuple[list[str], np.ndarray]:
    """The distinct texts of ``values`` and each value's code into them.

    A text is its value's followed by ``sep``, or by ``row_sep`` for the
    entries at ``row_ends``.  An int64 value is written by ``repr``, once
    per distinct value.  A finite float64 value is written by
    ``float.__repr__``, as json writes it, once per distinct bit pattern (so
    -0.0 stays apart from 0.0); +inf, -inf and NaN (any payload) by
    ``nonfinite``.
    """
    if values.dtype == np.int64:
        ints, codes = _distinct(values)
        texts = list(map(repr, ints.tolist()))
    else:
        finite = np.isfinite(values)
        bits, finite_codes = _distinct(values[finite].view(np.int64))
        texts = list(map(float.__repr__, bits.view(float).tolist()))
        texts += nonfinite
        codes = np.full(values.size, len(texts) - 1)
        codes[values == POS_INF] = len(texts) - 3
        codes[values == NEG_INF] = len(texts) - 2
        codes[finite] = finite_codes
    table = [t + sep for t in texts]
    if row_ends is not None:
        table += [t + row_sep for t in texts]
        codes[row_ends] += len(texts)
    return table, codes


def _block_texts(
    chunk: np.ndarray, start: int, nonfinite: tuple[str, str, str],
    sep: str, row_len: int, row_sep: str,
) -> list[str]:
    """One text per entry of the block at ``start`` of a flat array: see
    ``_run_texts``."""
    ends = slice((row_len - 1 - start) % row_len, None, row_len) if row_len else None
    table, codes = _coded_texts(chunk, nonfinite, sep, row_sep, ends)
    return np.array(table, dtype=object)[codes].tolist()


def _run_bounds(chunk: np.ndarray, start: int, row_len: int) -> np.ndarray | None:
    """The index of the first entry of each run in the block at ``start`` of
    a flat array with rows of ``row_len`` entries (none if 0), followed by
    the block's size; None if the block is better written per entry.

    That is a block of fewer than ``_RUNS_MIN`` entries, or one in which
    more than half of the entries start a run: there the codes and lookups
    per run cost more than they save.
    """
    if chunk.size < _RUNS_MIN:
        return None
    bits = chunk.view(np.int64)
    heads = np.empty(chunk.size + 1, dtype=bool)
    heads[0] = heads[-1] = True
    np.not_equal(bits[1:], bits[:-1], out=heads[1:-1])
    if row_len:
        heads[-start % row_len::row_len] = True
        heads[(row_len - 1 - start) % row_len::row_len] = True
    if 2 * (np.count_nonzero(heads) - 1) > chunk.size:
        return None
    return np.flatnonzero(heads)


def _run_texts(
    values: np.ndarray,
    nonfinite: tuple[str, str, str],
    sep: str,
    row_len: int = 0,
    row_sep: str = "",
) -> list[str]:
    """Texts that join to the text of each entry of ``values`` (float64 or
    int64) in C order (``_coded_texts``) followed by ``sep``, or by
    ``row_sep`` if it ends a row of ``row_len`` entries.

    A run is a stretch of entries with one bit pattern inside a block of
    ``_BLOCK`` entries and a row; a row's last entry is a run of its own, as
    it carries ``row_sep``.  A block that ``_run_bounds`` splits into runs
    is written as one text per run, its entry's text times its length, each
    distinct (text, length) built once; any other block per entry.
    """
    flat = values.ravel()
    out: list[str] = []
    for start in range(0, flat.size, _BLOCK):
        chunk = flat[start:start + _BLOCK]
        bounds = _run_bounds(chunk, start, row_len)
        if bounds is None:
            out += _block_texts(chunk, start, nonfinite, sep, row_len, row_sep)
            continue
        ends = None
        if row_len:
            ends = np.searchsorted(
                bounds, np.arange((row_len - 1 - start) % row_len, chunk.size, row_len)
            )
        table, codes = _coded_texts(chunk[bounds[:-1]], nonfinite, sep, row_sep, ends)
        # A run of one entry is its entry's text; each longer run's text is
        # built once per distinct code and length (at most _BLOCK).
        lengths = np.diff(bounds)
        longer = np.flatnonzero(lengths > 1)
        pairs, which = _distinct(codes[longer] * (_BLOCK + 1) + lengths[longer])
        codes[longer] = len(table) + which
        table += [table[k // (_BLOCK + 1)] * (k % (_BLOCK + 1)) for k in pairs.tolist()]
        out += np.array(table, dtype=object)[codes].tolist()
    return out


def _array_parts(arr: np.ndarray, level: int) -> list[str]:
    """Texts that join to ``_dump_json(encode_values(arr), level)`` for a
    1-D or 2-D array, or to ``_dump_json(arr.tolist(), level)`` for int64.

    Each entry's text carries the separator that follows it, so the array
    is one list of texts, one per run of equal entries or one per entry
    (``_run_texts``), and is joined once, with the payload around it.
    """
    if arr.ndim not in (1, 2):
        raise TypeError(f"cannot write a {arr.ndim}-D array as JSON")
    ind = "\n" + "  " * level
    pad = ind + "  "
    if not arr.size:
        if arr.ndim == 1 or not len(arr):
            return ["[]"]
        return ["[", pad, ("," + pad).join(["[]"] * len(arr)), ind, "]"]
    if arr.ndim == 1:
        head, row_sep, tail = "[" + pad, "," + pad, ind + "]"
        parts = _run_texts(arr, _JSON_NONFINITE, row_sep)
    else:
        pad2 = pad + "  "
        head, tail = "[" + pad + "[" + pad2, pad + "]" + ind + "]"
        row_sep = pad + "]," + pad + "[" + pad2
        parts = _run_texts(arr, _JSON_NONFINITE, "," + pad2, arr.shape[1], row_sep)
    # The last entry ends a row: the closing text takes the place of its
    # row separator.
    parts[0] = head + parts[0]
    parts[-1] = parts[-1][: -len(row_sep)] + tail
    return parts


def _lattice_json(axes: Sequence[np.ndarray], level: int) -> str:
    """``_dump_json`` of a lattice's points, written from per-axis text.

    The text after the first coordinate, each further coordinate led by its
    separator, is built once for each point of the product of the inner axes
    (C order) and joined once for each first coordinate, so the cost is the
    output bytes.
    """
    ind = "\n" + "  " * level
    pad = ind + "  "
    pad2 = pad + "  "
    firsts, *inner = [json.dumps(encode_values(ax))[1:-1].split(", ") for ax in axes]
    sep, rest = "," + pad2, [pad + "]"]
    for col in reversed(inner):
        rest = [sep + c + r for c in col for r in rest]
    blocks = []
    for c in firsts:
        head = "[" + pad2 + c
        blocks.append(head + ("," + pad + head).join(rest))
    return "".join(("[", pad, ("," + pad).join(blocks), ind, "]"))


def _csv_text(fn: GridFunction) -> str:
    """The CSV sibling of a grid function: a header line, then one line per
    point with its coordinates and its value, written by ``_run_texts``."""
    domain = fn.domain
    dim = domain.dim
    if domain.has_time:
        header = ["t"] + [f"x{i}" for i in range(1, dim)]
    else:
        header = [f"x{i}" for i in range(dim)]
    table = np.column_stack([domain.as_array(), fn.values])
    rows = _run_texts(table, _CSV_NONFINITE, ",", dim + 1, "\n")
    return ",".join(header + ["value"]) + "\n" + "".join(rows)


def _emit(
    payload: dict, config: RunConfig, grid_fn: GridFunction | None
) -> None:
    text = _dump_json(payload)
    sys.stdout.write(text)
    sys.stdout.write("\n")
    if config.output_path:
        out = Path(config.output_path)
        with out.open("w") as fh:
            fh.write(text)
            fh.write("\n")
        if grid_fn is not None:
            csv_path = out.with_suffix(".csv")
            csv_path.write_text(_csv_text(grid_fn))


def run(config: RunConfig) -> int:
    """Execute one configured invocation; returns the process exit status."""
    code, grid_fn = 0, None
    try:
        handler = _HANDLERS.get(config.command)
        if handler is None:
            raise _SchemaError("command", f"unknown command {config.command!r}")
        payload, grid_fn = handler(_load(config.input_path), config)
    except _SchemaError as exc:
        code = 2
        payload = {"error": {"kind": exc.kind, "field": exc.field, "message": str(exc)}}
    except (PreconditionError, SizeError) as exc:
        code, payload = 1, {"error": {"kind": "precondition", "message": str(exc)}}
    except InfeasibleConstraintsError as exc:
        code = 1
        if exc.blocking_index is not None:
            payload = {"feasible": False, "blocking_index": exc.blocking_index + 1}
        else:
            payload = {"feasible": False,
                       "negative_cycle": np.array(exc.cycle, dtype=np.int64) if exc.cycle else None}
    _emit(payload, config, grid_fn)
    return code


def _tolerance(text: str) -> float:
    """``--tol``: a finite number >= 0 (NaN would pass every comparison)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return tol


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it as is)."""
    parser = argparse.ArgumentParser(
        prog="tropkern",
        description="Max-plus kernel computations with JSON/CSV input and output.",
    )
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND")
    parser.add_argument("--input", required=True, help="JSON input document")
    parser.add_argument("--output", default=None, help="JSON output destination")
    parser.add_argument("--tol", type=_tolerance, default=1e-9, help="numerical tolerance")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        input_path=args.input,
        output_path=args.output,
        tolerance=args.tol,
    )
    return run(config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
