"""The pncalc benchmark: seeded CLI checks, end to end and layer by layer.

    python3 perfbench/run.py --workload pn_groupoid --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; pncalc is imported from ``src/``.
The load is a closed loop with one client: one process, one thread, and
each check (``pncalc.cli.main([... , "--json"])``, called in-process) starts
when the previous one has returned. The documents are generated from the
seed in set-up (see ``gen.py``); pncalc sees only the documents.

``--trace 0`` prints the end-to-end metrics of one workload; ``--trace 1``
runs a fixed number of cycles with the tracer installed, compares verdicts
and report bytes with an untraced pass in a fresh process, and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SETUP_REPEATS = 5
# Cycles traced by --trace 1, per workload: a fixed amount of work, so that
# every count repeats exactly for a given seed.
TRACE_CYCLES = {"pn_groupoid": 2, "lie_dense": 2}
# One cycle's time at the seed commit, per workload, in seconds on a 2-core
# x86 host. Set-up generates enough cycles for a run HEADROOM times
# faster than that; a run that uses them all up stops early and says so.
CYCLE_S = {"pn_groupoid": 4.1, "lie_dense": 3.6}
HEADROOM = 1.5
# check_tail_s is this percentile of a cycle's check times. With a mix of
# twelve or more items, at least one check per cycle lies above it, so ten
# cycles leave at least ten samples above it.
TAIL_PERCENTILE = 90
# Each timing figure is taken per cycle, and a run reports this percentile
# of it over its cycles (see end_to_end).
CYCLE_PERCENTILE = 80

VALIDATE = """
import sys
sys.path.insert(0, sys.argv[1])
from pncalc import cli, document
for path in sys.argv[2:]:
    document.load_document(path)
"""

# The untraced reference pass of --trace 1: reads one JSON list of
# [argv, path] per line and answers with one list of [exit, digest, seconds].
REFERENCE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
run.require_source()
from pncalc import cli
for line in sys.stdin:
    outcomes = [run.run_check(cli, argv, path) for argv, path in json.loads(line)]
    print(json.dumps([[o.exit, o.digest(), o.seconds] for o in outcomes]), flush=True)
"""


class Outcome:
    """What one check printed and returned, and how long it took."""

    __slots__ = ("seconds", "exit", "output", "error")

    def __init__(self, seconds, exit, output, error):
        self.seconds, self.exit, self.output, self.error = seconds, exit, output, error

    def digest(self):
        return hashlib.sha256(self.output.encode()).hexdigest()


def require_source():
    """Make ``import pncalc`` load this checkout's ``src/pncalc``."""
    if not (SRC / "pncalc" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no pncalc sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import pncalc

    if Path(pncalc.__file__).resolve().parent != SRC / "pncalc":
        raise SystemExit(f"perfbench: imported pncalc from {pncalc.__file__}, not {SRC}")
    return pncalc


def build_pool(workload, seed, cycles, workdir):
    """Generate and write the documents; returns [[(check, path), ...], ...].

    A cycle that would repeat a document of the pool is drawn again, so no
    document is checked twice in a run.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pool, seen = [], set()
    for index in range(cycles):
        attempt = 0
        while True:
            checks = gen.cycle(workload, seed, index, attempt)
            texts = [json.dumps(check.doc, sort_keys=True, indent=1) + "\n" for check in checks]
            if seen.isdisjoint(texts) and len(set(texts)) == len(texts):
                break
            attempt += 1
        seen.update(texts)
        written = []
        for position, (check, text) in enumerate(zip(checks, texts)):
            path = workdir / f"c{index:04d}-{position:02d}.json"
            path.write_text(text, encoding="utf-8")
            written.append((check, path))
        pool.append(written)
    return pool


def set_up(workload, seed, cycles, workdir):
    """Build the pool; the time includes a fresh interpreter importing
    pncalc.cli and loading every document once. Repeated, median reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool = build_pool(workload, seed, cycles, workdir)
        paths = [str(path) for written in pool for _, path in written]
        subprocess.run([sys.executable, "-c", VALIDATE, str(SRC), *paths], check=True)
        times.append(time.perf_counter() - start)
    return pool, statistics.median(times)


def run_check(cli, argv, path):
    """One closed-loop call of the CLI, timed from entry to printed report."""
    buffer = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main([*argv, "--input", str(path), "--json"])
    except (Exception, SystemExit):  # a traceback or argparse exit is a failed check
        code, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    return Outcome(seconds, code, buffer.getvalue(), error)


def mismatch(check, outcome):
    """None when the check met its expectation, else a one-line reason."""
    if outcome.error is not None:
        return f"raised: {outcome.error.strip().splitlines()[-1]}"
    try:
        report = json.loads(outcome.output)
    except json.JSONDecodeError:
        return "output is not one JSON report"
    keys = list(report.get("residuals", {}))
    first = gen.family(keys[0]) if keys else None
    got = (outcome.exit, report.get("verdict"), first)
    want = (check.exit, check.verdict, check.first_family)
    return None if got == want else f"got exit/verdict/family {got}, expected {want} because {check.why}"


def quantile_rank(count, p):
    """1-based nearest rank of the p-th percentile among count values."""
    return max(1, -(-count * p // 100))


def percentile(values, p):
    return sorted(values)[quantile_rank(len(values), p) - 1]


def timed_loop(cli, pool, seconds, failures):
    """Whole cycles, back to back, until the run has lasted ``seconds``.

    Returns one list of check times per cycle, in the order of the mix.
    """
    cycles = []
    start = time.perf_counter()
    for written in pool:
        times = []
        for check, path in written:
            outcome = run_check(cli, check.argv, path)
            times.append(outcome.seconds)
            reason = mismatch(check, outcome)
            if reason:
                failures.append(f"{path.name} {check.name}: {reason}")
        cycles.append(times)
        if time.perf_counter() - start >= seconds:
            break
    return cycles


def end_to_end(args, workdir, failures):
    require_source()
    cycles = max(2, int(HEADROOM * args.seconds / CYCLE_S[args.workload]) + 1)
    pool, setup_s = set_up(args.workload, args.seed, cycles, workdir)
    from pncalc import cli

    times = timed_loop(cli, pool, args.seconds, failures)
    # On a shared 2-core x86 host the same loop switches between a fast
    # state and one about 1.5x slower, in phases of seconds to minutes, and
    # CPU time slows with wall time. A cycle (a few seconds) mostly sits in
    # one state, so cycle time, median and tail are taken per cycle, and the
    # run reports the CYCLE_PERCENTILE of each over its cycles: the figure
    # four in five cycles meet. Most runs spend a fifth of their cycles or
    # more in the slow state, so this figure reads that state; a median or a
    # best time over the run moves with the share of fast phases, and spread
    # about twice as much over ten seeds (see RECORD.json).
    items, done = len(times[0]), len(times)
    samples = items * done
    rank = quantile_rank(items, TAIL_PERCENTILE)
    metrics = {
        "setup_s": (setup_s, "s"),
        "checks_per_s": (items / percentile([sum(t) for t in times], CYCLE_PERCENTILE), "1/s"),
        "check_p50_s": (percentile([statistics.median(t) for t in times], CYCLE_PERCENTILE), "s"),
        "check_tail_s": (percentile([sorted(t)[rank - 1] for t in times], CYCLE_PERCENTILE), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"workload {args.workload}, seed {args.seed}: {samples} checks in {done} whole cycles "
        f"of {items} (pool {len(pool)}{', used up' if done == len(pool) else ''})",
        f"checks_per_s, check_p50_s and check_tail_s (p{TAIL_PERCENTILE} of a cycle; {done * (items - rank)} "
        f"of {samples} samples lie above it) are the p{CYCLE_PERCENTILE} of per-cycle figures over {done} cycles",
        f"failed_ratio = {len(failures)}/{samples} = {len(failures) / samples:.4f}",
        "cycle seconds: " + " ".join(f"{sum(t):.2f}" for t in times),
        "median time per item: "
        + ", ".join(f"{check.name} {statistics.median(t):.4f}" for (check, _), t in zip(pool[0], zip(*times))),
    ]
    return samples, metrics, notes


# Per-layer metrics the traced run reports on purpose as not measured.
DROPPED = {
    "jacobi.homogenized_bivector.s": "no CLI command calls homogenized_bivector; only the test suite does",
}


def traced(args, workdir, failures):
    pncalc = require_source()
    from pncalc import cli
    from tracer import Tracer

    cycles = TRACE_CYCLES[args.workload]
    pool = build_pool(args.workload, args.seed, cycles, workdir)
    tracer = Tracer(pncalc)
    outcomes, reference, untraced_s = [], [], 0.0
    # Traced and untraced cycles alternate, so that both see the same phases
    # of the host's speed. The untraced pass runs in a separate process so
    # that it cannot profit from anything the traced pass left in memory.
    command = [sys.executable, "-c", REFERENCE, str(HERE)]
    with subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as worker:
        for written in pool:
            tracer.install()
            try:
                for check, path in written:
                    tracer.check_id = len(outcomes)
                    outcomes.append(run_check(cli, check.argv, path))
            finally:
                tracer.uninstall()
            worker.stdin.write(json.dumps([[check.argv, str(path)] for check, path in written]) + "\n")
            worker.stdin.flush()
            for exit, digest, seconds in json.loads(worker.stdout.readline()):
                reference.append((exit, digest))
                untraced_s += seconds
        worker.stdin.close()
    if worker.returncode:
        raise SystemExit(f"perfbench: the untraced reference pass exited with {worker.returncode}")
    traced_s = sum(o.seconds for o in outcomes)

    checks = [(check, path) for written in pool for check, path in written]
    for (check, path), outcome, ref in zip(checks, outcomes, reference):
        reason = mismatch(check, outcome)
        if reason is None and (outcome.exit, outcome.digest()) != ref:
            reason = "traced report bytes differ from the untraced run"
        if reason:
            failures.append(f"{path.name} {check.name}: {reason}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    span_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(span_path)

    values = tracer.metrics()
    values["trace.overhead_ratio"] = (len(outcomes) / traced_s) / (len(reference) / untraced_s)
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}
    notes = [
        f"workload {args.workload}, seed {args.seed}: {len(outcomes)} checks in {cycles} traced cycles, "
        f"{len(tracer.spans)} spans written to {span_path.relative_to(ROOT)}",
        f"trace.overhead_ratio = traced checks/s {len(outcomes) / traced_s:.3f} / "
        f"untraced checks/s {len(reference) / untraced_s:.3f}",
    ]
    notes += [f"dropped per-layer metric {name}: {why}" for name, why in DROPPED.items()]
    return len(outcomes), metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    environment = (
        f"python {sys.version.split()[0]}, {os.cpu_count()} cpus, "
        f"load average at start {' '.join(f'{x:.2f}' for x in os.getloadavg())}"
    )
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    failures = []
    try:
        run = traced if args.trace else end_to_end
        attempted, metrics, notes = run(args, workdir, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for line in [environment] + notes + failures[:20]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    if failures:
        print(f"perfbench: {len(failures)} of {attempted} checks differ from their expected result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
