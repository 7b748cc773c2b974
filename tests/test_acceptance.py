"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import hashlib
import json
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest

from stagebound import (
    aggregate,
    build_stage_graph,
    initial_configuration,
    parse_protocol,
    step_distribution,
)
from stagebound import verify as V
from stagebound.cli import main as cli_main
from stagebound.corpus import majority_four_state, majority_five_state
from stagebound.logic import present
from stagebound.protocol import Configuration
from stagebound.stagegraph import (
    build_transformation_graph,
    compute_exp,
    compute_pi_nu,
    mn_fixpoint,
)
from oracle_reference import roots_reach_almost_surely
from test_corpus import corpus_by_name
from step_reference import enabled, fire, transition_probability


def _ok(label: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {label}: PASS {detail}".rstrip())


def test_criterion_1_golden_bounds(corpus, corpus_graphs):
    """Reported bound class equals the reference table exactly, all rows."""
    t0 = time.monotonic()
    for entry in corpus:
        rep = aggregate(corpus_graphs[entry.name])
        assert rep.overall == entry.expected_bound, (
            entry.name,
            rep.overall.label,
            entry.expected_bound.label,
        )
    _ok("1 (golden bounds)", f"14/14 rows in {time.monotonic()-t0:.1f}s")


def test_criterion_2_golden_stage_counts(corpus, corpus_graphs):
    """Stage counts match the reference table; at most 3 deviating rows are
    tolerated and each deviation must keep the bound column intact.

    One row deviates: the threshold protocol.  The deviation is not caused
    by the redundancy-placement choice (both placements produce the same
    25-stage tree, and the tree has no duplicate stages that a merging
    reading would collapse); it stems from the exact rule encoding of that
    protocol family, which its documentation leaves open, even though the
    reconstruction's state and transition counts (12/57) match the
    reference row exactly.
    """
    t0 = time.monotonic()
    deviations = []
    for entry in corpus:
        sg = corpus_graphs[entry.name]
        got = len(sg.stages)
        if got != entry.expected_stages:
            deviations.append((entry.name, got, entry.expected_stages))
            rep = aggregate(sg)
            assert rep.overall == entry.expected_bound, (
                "deviating row must keep its bound",
                entry.name,
            )
            assert got == entry.known_stage_deviation, (
                "only the documented reconstruction deviation is tolerated",
                entry.name,
                got,
            )
    assert len(deviations) <= 3, deviations
    detail = f"{14 - len(deviations)}/14 exact in {time.monotonic()-t0:.1f}s"
    if deviations:
        detail += "; documented deviations: " + ", ".join(
            f"{n} {g} vs {w}" for n, g, w in deviations
        )
    _ok("2 (golden stage counts)", detail)


def test_criterion_3_soundness_oracle(corpus, corpus_graphs):
    """Stage conditions hold for every corpus protocol at sizes 2..6."""
    t0 = time.monotonic()
    for entry in corpus:
        p = corpus_graphs[entry.name].protocol
        violations = V.check_stage_graph(p, corpus_graphs[entry.name], max_n=6)
        assert violations == [], (entry.name, [str(v) for v in violations[:3]])
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"runtime target exceeded: {elapsed:.1f}s"
    _ok("3 (soundness oracle)", f"0 violations, sizes 2..6, {elapsed:.1f}s")


def test_criterion_4_semantics_properties(corpus):
    t0 = time.monotonic()
    rng = random.Random(20260809)
    protocols = [e.protocol() for e in corpus]

    # (i) exactly-one total probability mass on 1000 randomized configurations
    checked = 0
    while checked < 1000:
        p = rng.choice(protocols)
        counts = [0] * len(p.states)
        for _ in range(rng.randint(2, 8)):
            counts[rng.randrange(len(p.states))] += 1
        c = Configuration(tuple(counts))
        dist = step_distribution(p, c)
        assert sum(dist.values()) == Fraction(1)
        # (iii) cross-checks: firing preserves size, enabled rules have
        # positive probability, and rules sharing a head are equiprobable
        for head, rules in p.rules_by_head.items():
            if enabled(c, rules[0]):
                probs = {transition_probability(p, c, t) for t in rules}
                assert len(probs) == 1
                assert fire(c, rules[0]).size == c.size
        checked += 1

    # (ii) Monte Carlo agreement with the exact expectations on 20 chains
    chains = []
    for name in ("majority-ex2", "majority-ex1", "broadcast", "remainder-m3"):
        p = corpus_by_name(name).protocol()
        for counts in (
            {0: 2, 1: 1},
            {0: 1, 1: 2},
            {0: 2, 1: 2},
            {0: 3, 1: 1},
            {0: 1, 1: 3},
        ):
            vec = [0] * len(p.states)
            for s, k in counts.items():
                vec[s] = k
            chains.append((p, Configuration(tuple(vec))))
    assert len(chains) >= 20
    for p, c0 in chains:
        g = V.explore(p, c0)
        stable = V.stable_set(g)
        if not roots_reach_almost_surely(g, stable):
            continue
        exact = float(V.expected_steps_all(g, stable)[g.roots[0]])
        res = V.simulate(p, c0, trials=10_000, seed=424242)
        if res.stderr == 0:
            assert res.mean == exact
        else:
            assert abs(res.mean - exact) <= 5 * res.stderr, (
                p.name,
                c0.counts,
                res.mean,
                exact,
            )
    _ok(
        "4 (semantics properties)",
        f"1000 configs, {len(chains)} chains x 10k trials, "
        f"{time.monotonic()-t0:.1f}s",
    )


def test_criterion_5_worked_example_regressions():
    t0 = time.monotonic()
    p1 = parse_protocol(majority_four_state())
    p2 = parse_protocol(majority_five_state())

    def nu(p, true_states):
        return tuple(
            present(s) if p.states[s] in true_states else -present(s)
            for s in range(len(p.states))
        )

    # persistent-valuation fixed point of the worked example
    m, n = mn_fixpoint(p1, frozenset(), nu(p1, {"A"}))
    assert {p1.states[s] for s in range(len(p1.states)) if m >> s & 1} == {"B", "a", "b"}
    assert n == 0
    assert compute_pi_nu(p1, frozenset(), nu(p1, {"A", "B"})) == ()

    # transformation graphs of the two majority protocols
    g1 = build_transformation_graph(p1, (), frozenset())
    exp1 = {tuple(p1.states[i] for i in h) for h in compute_exp(g1)}
    assert exp1 == {("A", "B")}
    g2 = build_transformation_graph(p2, (), frozenset())
    exp2 = {tuple(p2.states[i] for i in h) for h in compute_exp(g2)}
    assert exp2 == {("A", "B"), ("A", "C"), ("B", "C")}
    _ok("5 (worked-example regressions)", f"{time.monotonic()-t0:.1f}s")


def _lsq_slope(xs, ys):
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def test_criterion_6_scaling_sanity():
    """Exact expectations behave like the reported classes.

    The slope band is the one from the bound-class sanity invariant: over
    the sampled range, the log-log slope of E(n) may exceed the slope of
    the reported class f(n) by at most 0.3 (a fixed 2.3 cutoff would be
    unattainable here: n^2*log n itself has least-squares slope 2.53 over
    n in {4..12}).
    """
    t0 = time.monotonic()
    p2 = corpus_by_name("majority-ex2").protocol()
    ns = [4, 6, 8, 10, 12]
    expectations = []
    for n in ns:
        inits = V.initial_configurations(p2, n)
        g = V.explore(p2, inits)
        exact = V.expected_steps_all(g, V.stable_set(g))
        expectations.append(max(float(exact[i]) for i in g.roots))
    slope = _lsq_slope([math.log(n) for n in ns], [math.log(e) for e in expectations])
    ref_slope = _lsq_slope(
        [math.log(n) for n in ns], [math.log(n * n * math.log(n)) for n in ns]
    )
    assert slope <= ref_slope + 0.3, (slope, ref_slope)

    # Example 1: a tie costs strictly more interactions than the settled
    # input on the same consensus side, at every sampled size; and the
    # near-tied majority input exhibits the super-polynomial blow-up that
    # separates the exponential class
    p1 = corpus_by_name("majority-ex1").protocol()
    tied, near = [], []
    for n in (4, 6, 8):
        g = V.explore(p1, V.initial_configurations(p1, n))
        exact = V.expected_steps_all(g, V.stable_set(g))

        def at(x, y):
            return float(exact[g.counts.index(initial_configuration(p1, {"x": x, "y": y}).counts)])

        tied_e = at(n // 2, n // 2)
        untied_e = at(n // 2 - 1, n // 2 + 1)
        assert tied_e > untied_e, (n, tied_e, untied_e)
        tied.append(tied_e)
        near.append(at(n // 2 + 1, n // 2 - 1))
    # growth ratios of the near-tied family accelerate; the tied family's do not
    assert near[2] / near[1] > near[1] / near[0]
    assert near[2] / near[1] > tied[2] / tied[1]
    _ok(
        "6 (scaling sanity)",
        f"ex2 slope {slope:.2f} <= {ref_slope + 0.3:.2f}; "
        f"ex1 tie/near-tie separation checked, {time.monotonic()-t0:.1f}s",
    )


GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def test_criterion_7_determinism(corpus, tmp_path):
    # both runs agree, and match the digests recorded from stagebound 0.1.0
    golden = json.loads(GOLDEN.read_text())["analyze"]
    t0 = time.monotonic()
    root = tmp_path
    for entry in corpus:
        src = root / f"{entry.name}.pp"
        src.write_text(entry.source + "\n")
        outs = []
        for i in (0, 1):
            js = root / f"{entry.name}.{i}.json"
            code = cli_main(
                ["analyze", str(src), "--json", str(js), "--timeout", "600"]
            )
            assert code in (0, 2), entry.name
            outs.append(js.read_bytes())
        assert outs[0] == outs[1], entry.name
        assert hashlib.sha256(outs[0]).hexdigest() == golden[entry.name], entry.name
    _ok(
        "7 (determinism)",
        f"14 protocols x 2 runs, golden digests, {time.monotonic()-t0:.1f}s",
    )
