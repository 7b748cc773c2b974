"""Seeded soundness sweep: build the stage tree of many generated protocols
and check both stage-graph conditions on each with the finite oracle, and
that every child's pi persists.

    PYTHONPATH=src python tests/soundness_sweep.py --seed 11 --states 5-7 \
        --count 1000 --max-n 6

Protocol i of a run is drawn from one `random.Random(seed)` stream: 5-7
states (`--states LO-HI`), 1 to 2|Q| rules whose sides are any pairs of
states, one or two input states and any outputs.  A build over 2,000
stages or 10 s, and an oracle run over its 10 s, is counted and skipped.
The persistence check takes each edge parent -(nu)-> child of the tree:
every reachable configuration of [[parent]] that satisfies nu must satisfy
the child's pi from then on, as the M/N fixpoint claims.  The two oracle
conditions need not notice a pi that claims too much.  The last line is a
summary; each violation prints the protocol's source, which `stagebound
check` reads back.  Exit status 0 when no protocol
violates a condition, 1 when one does, 2 on a malformed flag.

pytest does not collect this file (its name does not start with `test_`);
`test_verify.py::test_soundness_fuzz_generated` is the short sweep of
tier-1, on 2-4 states at n <= 4.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from stagebound import verify
from stagebound.protocol import parse_protocol
from stagebound.stagegraph import StageLimitError, build_stage_graph

MAX_STAGES = 2000
TIMEOUT_S = 10.0


def protocol_source(rng: random.Random, i: int, lo: int, hi: int) -> str:
    """The text of protocol i of a sweep, drawn from `rng`."""
    n = rng.randint(lo, hi)
    states = [f"q{s}" for s in range(n)]
    rules = []
    for _ in range(rng.randint(1, 2 * n)):
        a, b, c, d = (rng.choice(states) for _ in range(4))
        rules.append(f"  {a} {b} -> {c} {d}")
    inputs = "x -> q0, y -> q1" if rng.random() < 0.5 else "x -> q0"
    output1 = " ".join(s for s in states if rng.random() < 0.5)
    return "\n".join(
        [
            f"protocol sweep{i}",
            "states: " + " ".join(states),
            f"inputs: {inputs}",
            f"output1: {output1}",
            "transitions:",
            *rules,
        ]
    ) + "\n"


def pi_violations(p, sg, max_n: int, deadline: float) -> list[str]:
    """The edges whose child's pi does not persist, each with a witness:
    a configuration of size 2..max_n in [[parent]] that satisfies nu, from
    which a reachable configuration falsifies pi.  One `box_set` pass over
    the chain of all initial configurations answers every edge."""
    roots = [c for n in range(2, max_n + 1) for c in verify.initial_configurations(p, n)]
    kids = [s for s in sg.stages if s.parent is not None]
    if not roots or not kids:
        return []
    g = verify.explore(p, roots, deadline=deadline)
    masks, full = g.key_masks, (1 << len(g.key_counts)) - 1

    def holds(valuation) -> int:
        keys = full
        for x in valuation:
            keys &= masks[x] if x > 0 else ~masks[-x]
        return keys & full

    denote = verify.stage_denotation(g, sg.stages, deadline)
    kept = g.box_set(g.node_bits([holds(s.pi) for s in kids]), len(kids), deadline)
    at = g.node_bits([holds(s.analysis.nu) for s in kids])
    parents: dict[int, int] = {}  # denotation bits -> the edges out of those stages
    found = []
    for v, (d, b, m) in enumerate(zip(denote, kept, at)):
        if d not in parents:
            parents[d] = sum(1 << k for k, s in enumerate(kids) if d >> s.parent & 1)
        bad = parents[d] & m & ~b
        if bad:
            s = kids[(bad & -bad).bit_length() - 1]
            found.append(f"S{s.parent} -> S{s.id}: pi fails after {g.counts[v]}")
    return found


def state_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("-")
    try:
        lo_n, hi_n = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO-HI, got {text!r}") from None
    if not 2 <= lo_n <= hi_n:
        raise argparse.ArgumentTypeError(f"need 2 <= LO <= HI, got {text!r}")
    return lo_n, hi_n


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--states", type=state_range, default=(5, 7), metavar="LO-HI")
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args(argv)
    lo, hi = args.states
    rng = random.Random(args.seed)
    start = time.monotonic()
    checked = skipped = bad = 0
    for i in range(args.count):
        src = protocol_source(rng, i, lo, hi)
        p = parse_protocol(src)
        try:
            sg = build_stage_graph(p, max_stages=MAX_STAGES, timeout=TIMEOUT_S)
            violations = verify.check_stage_graph(p, sg, args.max_n, timeout=TIMEOUT_S)
            unkept = pi_violations(p, sg, args.max_n, time.monotonic() + TIMEOUT_S)
        except (StageLimitError, verify.ExplorationLimitError):
            skipped += 1
            continue
        checked += 1
        if violations or unkept:
            bad += 1
            first = violations[0] if violations else unkept[0]
            print(f"# protocol {i}: {len(violations) + len(unkept)} violations, first: {first}")
            print(src)
    print(
        f"seed {args.seed}, states {lo}-{hi}, max_n {args.max_n}: "
        f"{checked} checked, {skipped} over a limit, {bad} with violations "
        f"in {time.monotonic() - start:.1f} s"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
