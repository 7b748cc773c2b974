"""Edge classification lattice and report aggregation."""

from dataclasses import dataclass

from stagebound import aggregate, build_stage_graph, edge_bound, parse_protocol
from stagebound.bounds import (
    Bound,
    CLAIM_CERTIFIED,
    CLAIM_DEAD,
    CLAIM_EXHAUSTED,
    is_fast,
    is_very_fast,
)
from stagebound.corpus import majority_four_state
from stagebound.stagegraph import (
    build_transformation_graph,
    compute_exp,
    compute_j,
)


@dataclass
class FakeCase:
    stable: int | None = None
    dead: bool = False
    exp: frozenset = frozenset()
    j: frozenset = frozenset()
    fast: bool = False
    very_fast: bool = False


def test_lattice_order():
    assert (
        Bound.ZERO
        < Bound.QUADRATIC
        < Bound.QUASI_QUADRATIC
        < Bound.CUBIC
        < Bound.POLY_UNKNOWN
        < Bound.EXPONENTIAL
    )


def test_edge_bound_cases():
    ab = frozenset({(0, 1)})
    assert edge_bound(FakeCase(stable=1)) == Bound.ZERO
    assert edge_bound(FakeCase(dead=True)) == Bound.ZERO
    assert edge_bound(FakeCase()) == Bound.EXPONENTIAL
    assert edge_bound(FakeCase(exp=ab)) == Bound.POLY_UNKNOWN
    assert edge_bound(FakeCase(exp=ab, j=ab)) == Bound.CUBIC
    assert edge_bound(FakeCase(exp=ab, j=ab, fast=True)) == Bound.QUASI_QUADRATIC
    # the very-fast refinement wins when both flags hold
    assert edge_bound(FakeCase(exp=ab, j=ab, fast=True, very_fast=True)) == Bound.QUADRATIC
    assert edge_bound(FakeCase(exp=ab, j=ab, very_fast=True)) == Bound.QUADRATIC


def test_refinements_never_worsen():
    ab = frozenset({(0, 1)})
    base = edge_bound(FakeCase(exp=ab, j=ab))
    fast = edge_bound(FakeCase(exp=ab, j=ab, fast=True))
    very = edge_bound(FakeCase(exp=ab, j=ab, fast=True, very_fast=True))
    assert very <= fast <= base


def test_fast_vacuous_when_no_draining_states():
    p = parse_protocol(majority_four_state())
    g = build_transformation_graph(p, {}, frozenset())
    assert is_fast(g, compute_exp(g), frozenset())


def test_example1_initial_case_fast_not_very_fast():
    p = parse_protocol(majority_four_state())
    g = build_transformation_graph(p, {}, frozenset())
    exp = compute_exp(g)
    u = frozenset(v for v in g.vertices if g.scc[v] not in g.bottom)
    assert {p.states[s] for s in u} == {"A", "B"}
    assert is_fast(g, exp, u)
    # "A b -> A a" keeps A inside its own component, so the strict
    # cross-component requirement fails
    assert not is_very_fast(g, u)


def test_overall_bounds_and_claims(corpus_graphs):
    rep = aggregate(corpus_graphs["majority-ex2"])
    assert rep.overall == Bound.QUASI_QUADRATIC
    assert rep.claim == CLAIM_CERTIFIED
    rep1 = aggregate(corpus_graphs["majority-ex1"])
    assert rep1.overall == Bound.EXPONENTIAL
    assert rep1.claim == CLAIM_CERTIFIED
    repn = aggregate(corpus_graphs["majority-ex1-no-tiebreak"])
    assert repn.overall == Bound.QUASI_QUADRATIC
    assert repn.claim == CLAIM_DEAD


def test_overall_zero_when_initially_stable():
    p = parse_protocol(
        "protocol t\nstates: A B\ninputs: x -> A, y -> B\noutput1: A B\n"
        "transitions:\n  A B -> A A\n"
    )
    rep = aggregate(build_stage_graph(p))
    assert rep.overall == Bound.ZERO
    assert rep.certified


def test_exhausted_claim():
    # a protocol that can oscillate forever: the analysis gives up on the
    # looping case and reports the uncertain claim
    p = parse_protocol(
        "protocol swap\nstates: A B\ninputs: x -> A, y -> B\noutput1: A\n"
        "transitions:\n  A A -> B B\n  B B -> A A\n"
    )
    rep = aggregate(build_stage_graph(p))
    assert rep.claim == CLAIM_EXHAUSTED


def test_overall_invariant_under_edge_order(corpus_graphs):
    rep = aggregate(corpus_graphs["majority-ex2"])
    assert rep.overall == max(b for _, b in rep.edge_bounds)
    assert rep.overall == max(b for _, b in sorted(rep.edge_bounds, reverse=True))


def test_flock_is_cubic(corpus_graphs):
    rep = aggregate(corpus_graphs["flock-sum-c5"])
    assert rep.overall == Bound.CUBIC
    assert rep.certified


def test_report_rendering(corpus_graphs):
    rep = aggregate(corpus_graphs["majority-ex2"], wall_time=0.25)
    text = rep.human()
    assert "bound: O(n^2*log n); stages: 13; certified" in text
    assert "parallel time" in text
    row = rep.csv_row()
    assert row.startswith("majority-ex2,5,6,13,n^2*log n,certified,")
    js = rep.json_dict()
    assert js["bound"] == "n^2*log n"
    assert "time" not in js and "wall" not in str(js.keys())
