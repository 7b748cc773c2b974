"""Command-line front end: analyze, simulate, check, bench.

Exit codes follow a scriptable contract: 0 success/certified, 1 input
errors, 2 analysis outcomes that do not certify (non-stable terminals,
condition violations, benchmark diffs), 3 resource limits exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator

from . import bounds as bounds_mod
from . import verify as verify_mod
from .corpus import default_corpus
from .protocol import Configuration, ProtocolError, parse_protocol
from .stagegraph import StageLimitError, build_stage_graph, to_dot, to_json_dict


def _read_protocol(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_protocol(fh.read())
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(1)
    except (OSError, UnicodeDecodeError, ProtocolError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _write_output(path: str, chunks: Iterable[str]) -> None:
    """Write an output file from its chunks of text, each as it comes; an
    unwritable path exits 1 with one line.  A pipe whose reader has gone is
    left to `main`."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except BrokenPipeError:
        raise
    except OSError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _analysis_json(sg, report) -> Iterator[str]:
    """The `analyze --json` text in the chunks that `json.dump` writes, so
    the whole text of a large tree is never held in memory."""
    payload = {"report": report.json_dict(), "stage_tree": to_json_dict(sg)}
    yield from json.JSONEncoder(indent=2).iterencode(payload)
    yield "\n"


def cmd_analyze(args) -> int:
    p = _read_protocol(args.protocol)
    t0 = time.monotonic()
    try:
        sg = build_stage_graph(p, max_stages=args.max_stages, timeout=args.timeout)
    except StageLimitError as exc:
        print(f"analysis aborted: {exc}", file=sys.stderr)
        return 3
    report = bounds_mod.aggregate(sg, time.monotonic() - t0)
    print(report.human())
    if args.dot:
        _write_output(args.dot, [to_dot(sg)])
    if args.json:
        _write_output(args.json, _analysis_json(sg, report))
    if args.csv:
        _write_output(
            args.csv,
            ["protocol,states,transitions,stages,bound,claim,time\n", report.csv_row(), "\n"],
        )
    return 0 if report.certified else 2


def _parse_config(p, spec: str) -> Configuration:
    counts = [0] * len(p.states)
    named: set[str] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ProtocolError(f"bad configuration entry {part!r}")
        name, num = (x.strip() for x in part.split("=", 1))
        if name not in p.states:
            raise ProtocolError(f"unknown state name {name!r}")
        if name in named:
            raise ProtocolError(f"state {name!r} named twice in the configuration")
        named.add(name)
        try:
            k = int(num)
        except ValueError:
            raise ProtocolError(
                f"count in configuration entry {part!r} is not an integer"
            ) from None
        if k < 0:
            raise ProtocolError(f"negative count for state {name!r}")
        counts[p.states.index(name)] = k
    return Configuration(tuple(counts))


def cmd_simulate(args) -> int:
    p = _read_protocol(args.protocol)
    try:
        c0 = _parse_config(p, args.config)
        if args.trials < 0:
            raise ValueError("--trials must not be negative")
        if not 0 <= args.seed < 2**64:
            # trial t draws from a Philox generator keyed by (seed << 64) + t
            raise ValueError(f"--seed: must lie in [0, 2**64), got {args.seed}")
        if args.trials > 0 and c0.size < 2:
            raise ValueError("configuration needs at least two agents")
    except ValueError as exc:  # ProtocolError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = None
    if args.trials > 0:
        try:
            res = verify_mod.simulate(p, c0, args.trials, args.seed)
        except verify_mod.ExplorationLimitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:  # a size whose moves overflow int64
            print(f"error: {exc}", file=sys.stderr)
            return 1
    lines = [
        f"protocol: {p.name}; configuration: {c0.counts}; seed: {args.seed}",
        "trials,mean_interactions,stderr,consensus0,consensus1",
    ]
    rows = []
    if res is not None:
        h0 = sum(1 for x in res.consensus if x == 0)
        h1 = sum(1 for x in res.consensus if x == 1)
        lines.append(f"{res.trials},{res.mean:.4f},{res.stderr:.4f},{h0},{h1}")
        rows = [
            f"{i},{s},{'' if c is None else c}\n"
            for i, (s, c) in enumerate(zip(res.steps, res.consensus))
        ]
    if args.csv:
        _write_output(args.csv, ["trial,interactions,consensus\n", *rows])
    # printed only now, so that a failed run or an unwritable CSV leaves stdout empty
    print("\n".join(lines))
    return 0


def cmd_check(args) -> int:
    p = _read_protocol(args.protocol)
    t0 = time.monotonic()
    try:
        sg = build_stage_graph(p, max_stages=args.max_stages, timeout=args.timeout)
    except StageLimitError as exc:
        print(f"analysis aborted: {exc}", file=sys.stderr)
        return 3
    try:
        violations = verify_mod.check_stage_graph(
            p, sg, args.max_n, timeout=args.timeout - (time.monotonic() - t0)
        )
    except verify_mod.ExplorationLimitError as exc:
        print(f"partial verification: {exc}", file=sys.stderr)
        return 3
    if args.max_n < 2:
        print("0 violations (vacuous)")
        return 0
    if not violations:
        print(f"0 violations (sizes 2..{args.max_n})")
        return 0
    print(f"{len(violations)} violations (sizes 2..{args.max_n})")
    for v in violations:
        print(f"  {v}")
    return 2


def _bench_row(entry, timeout: float):
    p = entry.protocol()
    t0 = time.monotonic()
    try:
        sg = build_stage_graph(p, timeout=timeout)
    except StageLimitError:
        return entry, None, None, time.monotonic() - t0
    dt = time.monotonic() - t0
    report = bounds_mod.aggregate(sg, dt)
    return entry, sg, report, dt


def cmd_bench(args) -> int:
    rows = [_bench_row(e, args.timeout) for e in default_corpus()]

    header = "protocol,states,transitions,stages,bound,claim,time"
    out_lines = [header]
    diff_failures = 0
    for entry, sg, report, dt in rows:
        if report is None:
            out_lines.append(f"{entry.name},,,,T/O,,{dt:.3f}")
            if args.diff:
                diff_failures += 1
                out_lines.append(f"# DIFF {entry.name}: timed out")
            continue
        out_lines.append(report.csv_row())
        if args.diff:
            expect_stages = entry.known_stage_deviation or entry.expected_stages
            bad = []
            if report.overall != entry.expected_bound:
                bad.append(
                    f"bound {report.overall.label} != {entry.expected_bound.label}"
                )
            if report.stage_count != expect_stages:
                bad.append(f"stages {report.stage_count} != {expect_stages}")
            if entry.known_stage_deviation is not None:
                out_lines.append(
                    f"# note: {entry.name} reconstruction yields "
                    f"{entry.known_stage_deviation} stages; reference table says "
                    f"{entry.expected_stages}"
                )
            if bad:
                diff_failures += 1
                out_lines.append(f"# DIFF {entry.name}: " + "; ".join(bad))
    text = "\n".join(out_lines) + "\n"
    print(text, end="")
    if args.csv:
        _write_output(args.csv, [text])
    return 2 if diff_failures else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a malformed command line is an input error
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="stagebound",
        description=(
            "Stage-graph analysis of population protocols: parametric bounds "
            "on the expected number of interactions to stable consensus."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="build the stage tree and report a bound")
    pa.add_argument("protocol")
    pa.add_argument("--dot", metavar="PATH")
    pa.add_argument("--json", metavar="PATH")
    pa.add_argument("--csv", metavar="PATH")
    pa.add_argument("--max-stages", type=int, default=100_000)
    pa.add_argument("--timeout", type=float, default=1000.0)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="Monte Carlo runs to stable consensus")
    ps.add_argument("protocol")
    ps.add_argument("--config", required=True, metavar="SPEC", help="e.g. A=5,B=3")
    ps.add_argument("--trials", type=int, default=1000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--csv", metavar="PATH")
    ps.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("check", help="validate stage conditions on small sizes")
    pc.add_argument("protocol")
    pc.add_argument("--max-n", type=int, default=6)
    pc.add_argument("--max-stages", type=int, default=100_000)
    pc.add_argument("--timeout", type=float, default=1000.0)
    pc.set_defaults(func=cmd_check)

    pb = sub.add_parser("bench", help="run the bundled benchmark corpus")
    pb.add_argument("--csv", metavar="PATH")
    pb.add_argument("--diff", action="store_true")
    pb.add_argument("--timeout", type=float, default=1000.0)
    pb.set_defaults(func=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        for flag in ("max_stages", "timeout", "max_n"):
            if not getattr(args, flag, 0) >= 0:  # also rejects a NaN timeout
                ap.error(f"--{flag.replace('_', '-')} must be a non-negative number")
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except SystemExit as exc:  # --help, or an input error already reported
        return int(exc.code or 0)
    except BrokenPipeError:
        # the reader of stdout has gone (as with `| head -1`): as Python's
        # signal documentation advises, point stdout at devnull so that the
        # flush at exit does not raise again, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
