"""Benchmark of stagebound: one workload, one process, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
The run sets up (import, parsing of the corpus sources and, on
oracle-check, the stage trees the check validates), then repeats passes
over the workload's operations for about S seconds, timing every call from
outside and checking every result.  Times are reported in seconds at a
reference host speed (see refclock.py); the raw ones are in the record.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
slowest_op_s, peak_rss_mb).  With --trace 1 one pass runs with the tracer
installed and the metrics are the per-layer ones from its spans; the spans
are written to perfbench/out/.  The line before it is a record of the run:
commit, interpreter and numpy versions, nproc, per-operation times, the
error rate and any failures.  See DESIGN.md for why the workloads and
metrics are what they are.
"""

import time

# Interpreter start-up is CPU-bound: the CPU time used before this line is
# its cost.
STARTUP_CPU_S = time.process_time()

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import refclock
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
# Import and parsing take milliseconds; the median over several repetitions
# keeps setup_s steady.
SETUP_REPS = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the program's sources, to identify the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "stagebound").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def run(args) -> tuple[dict, dict]:
    size = workloads.FULL
    golden = workloads.load_golden()
    name = args.workload
    tracer = tracing.Tracer() if args.trace else None

    def fresh_inputs(traced: bool):
        lib = workloads.import_stagebound()
        if traced:
            tracer.install(lib)
        return lib, workloads.parse_inputs(name, lib, size)

    # Set-up: import stagebound afresh and parse the sources, several times
    # (the median is reported); then, on oracle-check, build the trees.  The
    # first import also loads numpy; it happens once per process, like the
    # interpreter's start-up, so both are recorded but not part of setup_s.
    # A traced run traces the last parse and the trees.
    t0 = perf_counter()
    workloads.import_stagebound()
    first_import_s = perf_counter() - t0
    clock = refclock.RefClock()
    setup_raw, setup_ref = [], []
    for rep in range(SETUP_REPS):
        traced = tracer is not None and rep == SETUP_REPS - 1
        (lib, parsed), raw, ref = clock.call(lambda: fresh_inputs(traced))
        setup_raw.append(raw)
        setup_ref.append(ref)
    trees, trees_raw, trees_ref = None, 0.0, 0.0
    if name == "oracle-check":
        trees = {}
        for pname, (_, p) in parsed.items():
            trees[pname], raw, ref = clock.call(lambda: workloads.build_tree(lib, p))
            trees_raw += raw
            trees_ref += ref
    setup_s = statistics.median(setup_ref) + trees_ref
    if tracer is not None:
        tracer.uninstall()

    # Timed section.  Pass 1 of a traced run is the traced one; it repeats
    # pass 0's inputs so its results must equal pass 0's.
    rng = random.Random(args.seed)
    traced_pass = 1 if args.trace else None
    op_raw: dict[str, list[float]] = {}
    op_ref: dict[str, list[float]] = {}
    pass_raw, traced_ref = [], 0.0
    attempted = failed = interactions = 0
    failures: list[str] = []
    first_outputs: list = []
    start = perf_counter()
    i = 0
    while i == 0 or i == traced_pass or perf_counter() - start < args.seconds:
        pass_seed = rng.getrandbits(32) if i != traced_pass else first_seed
        if i == 0:
            first_seed = pass_seed
        elif name != "oracle-check":
            lib, parsed = fresh_inputs(False)
        ops = workloads.make_ops(name, lib, parsed, trees, size, golden, pass_seed)
        if i == traced_pass:
            tracer.install(lib)
        wall = 0.0
        try:
            for k, op in enumerate(ops):
                raw, ref, out, error = workloads.run_op(op, clock)
                attempted += 1
                if i == 0:
                    first_outputs.append(out)
                elif i == traced_pass and error is None and out != first_outputs[k]:
                    error = "traced result differs from the untraced one"
                if error is not None:
                    failed += 1
                    failures.append(f"pass {i}: {op.name}: {error}")
                if raw is None:
                    continue
                wall += raw
                if i == traced_pass:
                    traced_ref += ref
                else:
                    op_raw.setdefault(op.name, []).append(raw)
                    op_ref.setdefault(op.name, []).append(ref)
                    interactions += out.get("interactions", 0)
        finally:
            if i == traced_pass:
                tracer.uninstall()
        if i != traced_pass:
            pass_raw.append(wall)
        i += 1

    # One pass's time, as the sum of each operation's median: a disturbance
    # that hits one operation in one pass does not move it.
    op_median = {k: statistics.median(v) for k, v in op_ref.items()}
    wall_s = sum(op_median.values())
    interactions_per_s = interactions / sum(pass_raw) if sum(pass_raw) else 0.0
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "passes": len(pass_raw),
        "probe_median_s": statistics.median(clock.means),
        "raw_s": {
            "startup_cpu": STARTUP_CPU_S,
            "first_import": first_import_s,
            "import_and_parse": statistics.median(setup_raw),
            "trees": trees_raw,
            "passes": pass_raw,
            "op_median": {k: statistics.median(v) for k, v in op_raw.items()},
        },
        "ref_s": {"op_median": op_median},
        "interactions": interactions,
        "interactions_per_s": interactions_per_s,
        "error_rate": failed / attempted,
        "failures": failures[:20],
    }
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "slowest_op_s": max(op_median.values(), default=0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        metrics = tracer.metrics(traced_ref - wall_s, interactions_per_s)
        units = {k: per_layer_unit(k) for k in metrics}
        spans = OUT_DIR / f"{name}-seed{args.seed}.spans.jsonl"
        tracer.write(spans, {"workload": name, "seed": args.seed, "traced_pass": traced_pass})
        record["absent"] = tracer.absent
        record["spans_file"] = spans.relative_to(ROOT).as_posix()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stagebound" / "__init__.py").is_file():
        print(f"error: no stagebound sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("STAGEBOUND_THREADS", None)
    # numpy is imported by stagebound; keep its thread pools to one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    record, result = run(args)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
