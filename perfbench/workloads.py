"""The three workloads of the stagebound benchmark.

Each workload drives one user-facing command through the public library
functions that command calls:

- analyze-corpus: `stagebound bench` / `analyze --json` over the corpus,
- oracle-check: `stagebound check --max-n 6` over the corpus, plus the exact
  hitting-time sweep of the acceptance suite,
- simulate-mc: `stagebound simulate` on a setup-heavy and a loop-heavy input.

A workload is a list of operations.  An operation runs the library calls
(the part that is timed) and returns a small observed value; its check
compares that value with the corpus table, with golden values recorded from
stagebound 0.1.0 (golden.json), or with a closed form, and returns an error
message or None.  Every call into stagebound goes through a module
attribute, so the tracer's rebinding sees it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
MODULES = ("protocol", "logic", "stagegraph", "bounds", "verify", "corpus", "cli")

# Input sizes.  TINY uses a subset of the same inputs, so the same golden
# values apply; it exists for the benchmark's own tests.
FULL = {
    "protocols": None,  # every corpus protocol, in corpus order
    "max_n": 6,
    "hitting": (("majority-ex2", (4, 6, 8, 10, 12, 14)), ("majority-ex1", (4, 6, 8, 10))),
    # (protocol, input counts, trials, consensus every trial must reach)
    "sims": (
        ("majority-ex2", {"x": 14, "y": 10}, 200, 0),
        ("broadcast", {"one": 1, "zero": 99}, 200, 1),
    ),
}
TINY = {
    "protocols": ("broadcast", "majority-ex2", "majority-ex1", "remainder-m3"),
    "max_n": 4,
    "hitting": (("majority-ex2", (4, 6)), ("majority-ex1", (4,))),
    "sims": (
        ("majority-ex2", {"x": 4, "y": 2}, 20, 0),
        ("broadcast", {"one": 1, "zero": 19}, 50, 1),
    ),
}

WORKLOADS = ("analyze-corpus", "oracle-check", "simulate-mc")


def import_stagebound() -> dict:
    """Import stagebound afresh and return its modules by short name.

    Modules already imported are dropped first, so state a module keeps
    between calls (such as a cache) does not carry over from an earlier
    pass; a user pays for that state on every command."""
    for name in [m for m in sys.modules if m == "stagebound" or m.startswith("stagebound.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"stagebound.{m}") for m in MODULES}


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], str | None]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def parse_inputs(workload: str, lib: dict, size: dict) -> dict:
    """Corpus entries and parsed protocols a workload needs, by name."""
    if workload == "simulate-mc":
        wanted = {name for name, *_ in size["sims"]}
    else:
        wanted = size["protocols"]
    entries = [e for e in lib["corpus"].default_corpus() if wanted is None or e.name in wanted]
    return {e.name: (e, e.protocol()) for e in entries}


def build_tree(lib: dict, p):
    """The stage tree of one protocol (oracle-check set-up).  A build that
    fails returns its exception, and the check operation that needs the
    tree fails with it."""
    try:
        return lib["stagegraph"].build_stage_graph(p)
    except Exception as exc:
        return exc


def make_ops(workload: str, lib: dict, parsed: dict, trees: dict | None,
             size: dict, golden: dict, pass_seed: int) -> list[Op]:
    if workload == "analyze-corpus":
        return [_analyze_op(lib, e, p, golden) for e, p in parsed.values()]
    if workload == "oracle-check":
        ops = [_check_op(lib, p, trees[name], size["max_n"], name)
               for name, (_, p) in parsed.items()]
        for name, ns in size["hitting"]:
            ops += [hitting_op(lib, parsed[name][1], n, name, golden) for n in ns]
        return ops
    if workload == "simulate-mc":
        rng = random.Random(pass_seed)
        return [_simulate_op(lib, parsed[name][1], counts, trials, want, rng.getrandbits(32))
                for name, counts, trials, want in size["sims"]]
    raise ValueError(f"unknown workload {workload!r}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _analyze_op(lib, entry, p, golden) -> Op:
    """build_stage_graph -> aggregate -> the `analyze --json` payload."""
    stagegraph, bounds = lib["stagegraph"], lib["bounds"]

    def run():
        sg = stagegraph.build_stage_graph(p)
        report = bounds.aggregate(sg)
        payload = {"report": report.json_dict(), "stage_tree": stagegraph.to_json_dict(sg)}
        text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
        return {"bound": report.overall.label, "stages": report.stage_count,
                "sha256": _sha256(text)}

    def check(out):
        want_stages = entry.known_stage_deviation or entry.expected_stages
        if out["bound"] != entry.expected_bound.label:
            return f"bound {out['bound']} != {entry.expected_bound.label}"
        if out["stages"] != want_stages:
            return f"stages {out['stages']} != {want_stages}"
        if out["sha256"] != golden["analyze"][entry.name]:
            return "analyze --json payload differs from the recorded digest"
        return None

    return Op(entry.name, run, check)


def _check_op(lib, p, sg, max_n, name) -> Op:
    verify = lib["verify"]

    def run():
        if isinstance(sg, Exception):
            raise sg
        return {"violations": [str(v) for v in verify.check_stage_graph(p, sg, max_n)]}

    def check(out):
        if out["violations"]:
            return f"{len(out['violations'])} violations, first: {out['violations'][0]}"
        return None

    return Op(f"check {name}", run, check)


def hitting_key(name: str, n: int) -> str:
    return f"{name} n={n}"


def hitting_op(lib, p, n, name, golden) -> Op:
    """Exact expected interactions to the stable set from every node."""
    verify = lib["verify"]
    key = hitting_key(name, n)

    def run():
        g = verify.explore(p, verify.initial_configurations(p, n))
        exact = verify.expected_steps_all(g, verify.stable_set(g))
        return {"roots": [str(exact[i]) for i in g.roots],
                "sha256": _sha256("\n".join(str(x) for x in exact))}

    def check(out):
        want = golden["hitting"][key]
        if out["roots"] != want["roots"]:
            return "hitting times from the initial configurations differ from the recorded values"
        if out["sha256"] != want["sha256"]:
            return "hitting times differ from the recorded digest"
        return None

    return Op(f"hitting {key}", run, check)


def broadcast_mean(n: int) -> Fraction:
    """Expected interactions for one informed agent to inform all n:
    sum over k of n(n-1) / (2k(n-k)) = (n-1) * H_{n-1}."""
    return (n - 1) * sum(Fraction(1, k) for k in range(1, n))


def _simulate_op(lib, p, counts, trials, want, seed) -> Op:
    verify, protocol = lib["verify"], lib["protocol"]
    c0 = protocol.initial_configuration(p, counts)

    def run():
        res = verify.simulate(p, c0, trials, seed)
        return {"steps": list(res.steps), "consensus": list(res.consensus),
                "mean": res.mean, "stderr": res.stderr, "interactions": sum(res.steps)}

    def check(out):
        wrong = sum(1 for x in out["consensus"] if x != want)
        if wrong:
            return f"seed {seed}: {wrong} of {trials} trials did not end in consensus {want}"
        if p.name == "broadcast":
            exact = float(broadcast_mean(c0.size))
            if abs(out["mean"] - exact) > 5 * out["stderr"]:
                return (f"seed {seed}: mean {out['mean']:.1f} is more than 5 standard "
                        f"errors from {exact:.1f}")
        return None

    return Op(f"simulate {p.name} n={c0.size}", run, check)


def run_op(op: Op, clock) -> tuple[float | None, float | None, dict | None, str | None]:
    """Run, time and check one operation; never raises.  Returns the raw
    and reference seconds (None if the operation raised), its output and an
    error message or None."""
    try:
        out, raw, ref = clock.call(op.run)
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, None, None, f"{type(exc).__name__}: {exc}"
    try:
        return raw, ref, out, op.check(out)
    except Exception as exc:
        return raw, ref, out, f"check raised {type(exc).__name__}: {exc}"
