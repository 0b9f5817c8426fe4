"""Run one apxmaj benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  One process, one thread, closed loop: each op starts when the
previous one returns.  The run repeats passes over the workload's op list
(pass k's inputs come from the seed and k) until another pass would not end
within --seconds; every op's output is checked after its pass.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced runs of each pass and prints the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 12
P90_MIN_OPS = 100


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and build pass 0's inputs, print 'ready', exit")
    return p.parse_args(argv)


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import apxmaj.cli
    except ImportError as e:
        sys.exit(f"perfbench: cannot import apxmaj from {src}: {e}")
    if not Path(apxmaj.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: apxmaj was imported from {apxmaj.cli.__file__}, not {src}")


def run_pass(ops, pdir: Path, tracer=None):
    """Run the ops back to back; returns (seconds, per-op seconds, results).
    An op that raises is recorded as its exception."""
    results, op_seconds = [], []
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    for op in ops:
        span = None
        if tracer:
            tracer.op_id += 1
            tracer.group = op.group
            span = tracer.begin("op." + op.tag)
        t = time.perf_counter()
        try:
            result = op.run(pdir)
        except Exception as e:  # the op failed; its check reports it
            result = Raised(e)
        op_seconds.append(time.perf_counter() - t)
        if span:
            tracer.end(span)
        results.append(result)
    wall = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    return wall, op_seconds, results


class Raised:
    def __init__(self, error: Exception):
        self.error = error


def check_pass(ops, results, pdir: Path) -> list[str]:
    problems = []
    for i, (op, result) in enumerate(zip(ops, results)):
        if isinstance(result, Raised):
            problems.append(f"op {i} ({op.tag}) raised {result.error!r}")
            continue
        try:
            why = op.check(result, pdir)
        except Exception as e:
            why = f"check raised {e!r}"
        if why:
            problems.append(f"op {i} ({op.tag}): {why}")
    return problems


def setup_probe(args) -> float:
    """Seconds from the start of a fresh process until its first op is ready."""
    t = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        stdout=subprocess.PIPE, cwd=ROOT)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        sys.exit("perfbench: set-up probe failed")
    return seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.ops(0)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            return traced_run(args, workload, ops, workdir)
        return untraced_run(args, workload, ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def passes(args, workload, ops, workdir, body, between=None):
    """Call body(k, ops, pass_dir) for k = 0, 1, ... until another pass
    would end after --seconds; returns the problems found.  between(elapsed)
    runs before each pass, off the clock."""
    problems = []
    elapsed = 0.0
    k = 0
    while True:
        if between:
            between(elapsed)
        t = time.perf_counter()
        problems += body(k, ops, workdir / f"pass{k}")
        k += 1
        last = time.perf_counter() - t
        elapsed += last
        if elapsed + last > args.seconds:
            return problems
        ops = workload.ops(k)


def untraced_run(args, workload, ops, workdir) -> int:
    setups, walls, op_seconds = [], [], []
    peak_mb = None

    def probes(elapsed):
        # spread the set-up probes over the run, so that their median sees
        # the same phases of the host as the passes
        due = SETUP_PROBES if elapsed >= args.seconds else min(
            SETUP_PROBES, 1 + math.floor(SETUP_PROBES * elapsed / args.seconds))
        while len(setups) < due:
            setups.append(setup_probe(args))

    def body(k, ops, pdir):
        nonlocal peak_mb
        wall, per_op, results = run_pass(ops, pdir)
        if k == 0:  # before any check, so host speed cannot change it
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls.append(wall)
        op_seconds.extend(per_op)
        problems = check_pass(ops, results, pdir)
        shutil.rmtree(pdir, ignore_errors=True)
        return problems

    problems = passes(args, workload, ops, workdir, body, probes)
    probes(args.seconds)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_s.p50": (statistics.median(op_seconds), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = {
        "wall_s": f"median of {len(walls)} passes of {workload.ops_per_pass} ops: "
                  + ", ".join(f"{w:.3f}" for w in walls),
        "op_s.p50": f"{len(op_seconds)} ops",
        "peak_rss_mb": "ru_maxrss of this process after pass 0, before its checks",
        "setup_s": f"median of {len(setups)} fresh processes spread over the run",
    }
    shown = dict(metrics)
    if workload.ops_per_pass >= P90_MIN_OPS:
        # not in BENCHMARK.json: the desk workloads have too few ops per pass
        shown["op_s.p90"] = (statistics.quantiles(op_seconds, n=10)[-1], "s")
        notes["op_s.p90"] = notes["op_s.p50"]
    return report(metrics, shown, notes, len(op_seconds), problems)


def traced_run(args, workload, ops, workdir) -> int:
    from tracing import Tracer, layer_metrics, pass_counts

    tracer = Tracer()
    traced, untraced_walls, traced_walls = [], [], []
    attempted = 0

    def body(k, ops, pdir):
        nonlocal attempted
        wall, _, results = run_pass(ops, pdir / "untraced")
        untraced_walls.append(wall)
        problems = check_pass(ops, results, pdir / "untraced")
        first = len(tracer.spans)
        wall, _, results = run_pass(ops, pdir / "traced", tracer)
        traced_walls.append(wall)
        problems += check_pass(ops, results, pdir / "traced")
        spans = tracer.spans[first:]
        traced.append((spans, pass_counts(spans)))
        attempted += 2 * len(ops)
        shutil.rmtree(pdir, ignore_errors=True)
        return problems

    problems = passes(args, workload, ops, workdir, body)
    metrics = layer_metrics(traced, tracer.missing)
    top = sum(s.duration for spans, _ in traced for s in spans if s.parent_id is None)
    wall_t, wall_u = statistics.median(traced_walls), statistics.median(untraced_walls)
    metrics["trace.wall_s"] = (wall_t, "s")
    metrics["trace.untraced_wall_s"] = (wall_u, "s")
    metrics["trace.overhead_s"] = (wall_t - wall_u, "s")
    metrics["trace.top_span_share"] = (top / sum(traced_walls), "ratio")
    metrics["trace.harness_self_s"] = ((sum(traced_walls) - top) / len(traced), "s")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
    notes = {"trace.wall_s": f"median of {len(traced)} traced passes"}
    for name in tracer.missing:
        print(f"{name:<44} absent: the program no longer has this name")
    return report(metrics, metrics, notes, attempted, problems)


def report(metrics, shown, notes, attempted, problems) -> int:
    """Print `shown` one per line, then `metrics` as the final JSON line."""
    for name, (value, unit) in shown.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"{name:<44} {value:16.6f} {unit}{note}")
    print(f"{'ops_failed':<44} {len(problems) / attempted:16.6f} share   "
          f"({len(problems)} of {attempted} ops)")
    for why in problems[:20]:
        print(f"perfbench: {why}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
