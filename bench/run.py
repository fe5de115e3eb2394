"""Benchmark of the tropkern command line.

    python3 bench/run.py --workload kernel-ops --seed 1 --seconds 20 --trace 0

One process and one closed-loop client: each operation is one call of
``tropkern.cli.main([...])`` on a seeded JSON input file, and the next call
starts when the previous one has returned.  A run builds the round of its
workload (``workloads.py``), times one batch of imports in fresh processes
(not in traced runs), runs one untimed warm-up round whose outputs are the
reference, then repeats the round until ``--seconds`` have passed (at least
``MIN_ROUNDS`` rounds without tracing).  After the timed loop it reads its
peak resident set, times a second batch of imports, imports the checks
(scipy) and verifies every reference output against an independent
computation; every later pass of an op must print the same bytes.

Untraced runs time a fixed probe of the host's speed after every op and in
every fresh interpreter, and report times scaled to a reference speed
(``calibration.py``); the figures as measured go to stderr.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``BENCHMARK.json`` with ``--trace 1``.  A traced run
also writes its spans to ``bench/.out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibration
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Five rounds of 20 ops leave ten samples beyond the 90th percentile.
MIN_ROUNDS = 5
# An op's latency is scaled by the median of this many probes on each side.
PROBE_WINDOW = 3
# Imports timed before the warm-up round and again after the timed loop, so
# that setup_s is not taken in a single slow or fast phase of the host.
SETUP_BATCH = 10
# A fresh interpreter loads numpy, probes the host's speed, times the import
# of tropkern.cli, probes again and prints the import time as measured and
# scaled by its probes.  numpy is loaded before the clock starts: loading its
# shared libraries took from 50 to 120 ms in fresh processes seconds apart,
# and no change to tropkern can move it.
SETUP_CODE = """\
import time
import numpy
import calibration
probes = [calibration.probe() for _ in range(3)]
start = time.perf_counter()
import tropkern.cli
elapsed = time.perf_counter() - start
probes += [calibration.probe() for _ in range(3)]
print(repr(elapsed), repr(elapsed * calibration.scale(probes)))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_imports(count: int) -> tuple[list[float], list[float]]:
    """Measured and scaled times of ``count`` imports of tropkern.cli, each in
    a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    measured, scaled = [], []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, elapsed_scaled = map(float, proc.stdout.split())
        measured.append(elapsed)
        scaled.append(elapsed_scaled)
    return measured, scaled


class Runner:
    """Calls the CLI in-process, op by op, and keeps what the checks need."""

    def __init__(self, cli, ops, workdir: Path) -> None:
        self.cli, self.ops = cli, ops
        self.inputs = []
        for i, op in enumerate(ops):
            path = workdir / f"op{i:02d}.json"
            path.write_text(json.dumps(op.payload))
            self.inputs.append(str(path))
        self.reference: list[tuple[int | None, str]] = []
        self.mismatches = [0] * len(ops)
        self.latencies: list[list[float]] = [[] for _ in ops]
        # Speed probes of the timed loop, one after each op (calibration.py).
        self.probes: list[float] = []
        self.rounds = 0

    def call(self, i: int) -> tuple[int | None, str, float]:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main([self.ops[i].command, "--input", self.inputs[i]])
        except Exception:  # a crash is a failed op, not the end of the run
            code = None
            buf.write(traceback.format_exc())
        return code, buf.getvalue(), time.perf_counter() - start

    def warm_up(self) -> None:
        for i in range(len(self.ops)):
            code, text, _ = self.call(i)
            self.reference.append((code, text))

    def timed_round(self, tracer=None) -> None:
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = f"{self.rounds}:{i}"
            code, text, elapsed = self.call(i)
            self.latencies[i].append(elapsed)
            if (code, text) != self.reference[i]:
                self.mismatches[i] += 1
            if tracer is None:
                self.probes.append(calibration.probe())
        self.rounds += 1

    def scaled_latencies(self) -> list[list[float]]:
        """Latency of each op in each round, scaled to the reference speed by
        the median of the PROBE_WINDOW probes before the op and the
        PROBE_WINDOW probes after it: the host's speed changes within a round
        too."""
        scaled: list[list[float]] = [[] for _ in self.ops]
        for r in range(self.rounds):
            for i, per_op in enumerate(self.latencies):
                g = r * len(self.ops) + i  # probe g follows op i of round r
                window = self.probes[max(0, g - PROBE_WINDOW):g + PROBE_WINDOW]
                scaled[i].append(per_op[r] * calibration.scale(window))
        return scaled

    @staticmethod
    def round_times(latencies: list[list[float]]) -> list[float]:
        """Summed op latency of each timed round."""
        return [sum(per_round) for per_round in zip(*latencies)]


def verify(runner: Runner) -> tuple[bool, int, list[str]]:
    """(correct, failed ops, report lines); imports scipy."""
    import check

    correct, failed, report = True, 0, []
    for i, op in enumerate(runner.ops):
        code, text = runner.reference[i]
        if code is None:
            failure = check.Mismatch("crashed: " + text.strip().splitlines()[-1])
        else:
            failure = check.verify(op, code, text)
        if failure is not None:
            failed += runner.rounds
            correct = correct and check.excused(op, failure)
            report.append(f"op {i} ({op.label}) failed every pass: {failure}")
        if runner.mismatches[i]:
            if failure is None:
                failed += runner.mismatches[i]
            correct = False
            report.append(f"op {i} ({op.label}): {runner.mismatches[i]} passes differ from the first")
    return correct, failed, report


def end_to_end(runner: Runner, setup_s: float, peak_rss_mb: float) -> dict:
    latencies = runner.scaled_latencies()
    flat = sorted(t for per_op in latencies for t in per_op)
    p90 = statistics.quantiles(flat, n=10, method="inclusive")[8]
    if sum(t > p90 for t in flat) < 10:
        raise RuntimeError("fewer than ten samples beyond the 90th percentile")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(runner.ops) / statistics.median(runner.round_times(latencies)), "unit": "op/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(flat), "unit": "ms"},
        "op_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric named in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: m["unit"] for m in spec}


def per_layer(tracer, rounds: int) -> dict:
    units = per_layer_units()
    values = tracer.metrics(list(units), rounds)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def summary(runner: Runner, out=sys.stderr) -> None:
    """Per-op median latencies and round figures, as measured (not scaled)."""
    for i, op in enumerate(runner.ops):
        lat = runner.latencies[i]
        print(f"{i:2d} {'L' if op.large else 's'} {1e3 * statistics.median(lat):9.2f} ms  {op.label}", file=out)
    median_round = statistics.median(runner.round_times(runner.latencies))
    if runner.probes:
        print(f"median probe={1e3 * statistics.median(runner.probes):.3f} ms "
              f"(reference {1e3 * calibration.REFERENCE_PROBE_S:.3f} ms)", file=out)
    print(f"rounds={runner.rounds} median round={median_round:.3f}s "
          f"unscaled ops_per_s={len(runner.ops) / median_round:.3f}", file=out)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tropkern" / "cli.py").is_file():
        print(f"tropkern sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ops = workloads.build(args.workload, args.seed)
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=BENCH / ".work"))
    try:
        setup_times, setup_scaled = [], []
        if not args.trace:
            time_imports(1)  # may compile the bytecode cache; not counted
            setup_times, setup_scaled = time_imports(SETUP_BATCH)
        from tropkern import cli

        runner = Runner(cli, ops, workdir)
        runner.warm_up()
        tracer = None
        if args.trace:
            from tracing import Tracer

            peaks = {m.rsplit(".", 1)[0] for m in per_layer_units() if m.endswith(".peak_alloc_mb")}
            tracer = Tracer(peaks)
            tracer.install()
        start = time.perf_counter()
        while True:
            runner.timed_round(tracer)
            if time.perf_counter() - start >= args.seconds and (tracer is not None or runner.rounds >= MIN_ROUNDS):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            times, scaled = time_imports(SETUP_BATCH)
            setup_times += times
            setup_scaled += scaled
        if tracer is not None:
            tracer.uninstall()
            tracer.write(BENCH / ".out" / f"trace-{args.workload}-seed{args.seed}.json")
        summary(runner)
        correct, failed, report = verify(runner)
        for line in report:
            print(line, file=sys.stderr)
        if tracer is None:
            print(f"unscaled setup_s={statistics.median(setup_times):.4f}", file=sys.stderr)
            metrics = end_to_end(runner, statistics.median(setup_scaled), peak_rss_mb)
        else:
            metrics = per_layer(tracer, runner.rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": runner.rounds * len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
