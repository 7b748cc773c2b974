"""Finite-instance oracle: exploration, modal checks, exact expectations,
stage validation, and simulation."""

import math
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stagebound import (
    Configuration,
    StageLimitError,
    aggregate,
    build_stage_graph,
    initial_configuration,
    parse_protocol,
    step_distribution,
)
from stagebound.corpus import broadcast, majority_four_state, majority_five_state
from stagebound.logic import Parts, evaluate, present, single
from stagebound.protocol import PopulationProtocol, StepKernel, decode, encode
from stagebound.stagegraph import Stage, StageGraph, scc_condensation
from stagebound import verify as V
from oracle_reference import (
    edge_rows,
    make_reach_graph,
    reference_almost_sure_reach,
    reference_backward_reach,
    reference_box_set,
    reference_expected_steps_plain,
    reference_explore,
    reference_scc_condensation,
    reference_solve_dense,
    reference_stage_denotation,
    roots_reach_almost_surely,
)
from formula_reference import FF, TT, atom, formula_of
from formula_reference import evaluate as tree_evaluate
from sim_reference import PhiloxDraws, scalar_simulate, step_row
from step_reference import coded, coded_weights
from test_protocol import random_config, reference_step_distribution
from test_protocol import shared_head_protocols as few_head_protocols
from test_logic import stage_formulas
from test_stagegraph import small_protocols

P1 = parse_protocol(majority_four_state())
P2 = parse_protocol(majority_five_state())
TRUE = Parts((), frozenset())
FALSE = Parts((), frozenset(), ())


def literal(x):
    """The stage formula of one literal."""
    return Parts(((x,),), frozenset())


def cfg(p, **counts):
    vec = [0] * len(p.states)
    for name, k in counts.items():
        vec[p.state_index(name)] = k
    return Configuration(tuple(vec))


def test_explore_example1_closure():
    g = V.explore(P1, cfg(P1, A=1, B=1))
    got = {c.counts for c in g.nodes}
    assert got == {(1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 2)}


def test_explore_idle_only_self_loop():
    p = parse_protocol(
        "protocol t\nstates: A B\ninputs: x -> A, y -> B\noutput1: A\n"
        "transitions:\n  A B -> A B\n"
    )
    g = V.explore(p, cfg(p, A=1, B=1))
    assert g.size == 1
    # two ordered pairs out of n^2 - n = 2, both idle
    assert (edge_rows(g), g.den) == ([[(0, 2)]], [2])


def test_explore_at_a_huge_size_makes_one_node():
    # no agent is t, so no interaction changes anything: one node whose
    # self-loop weighs all (n^2 - n) * L, with nothing allocated per agent
    p = parse_protocol(broadcast())
    n = 10**20
    g = V.explore(p, cfg(p, f=n))
    assert (g.counts, g.keys, g.key_counts) == ([(0, n)], [0], [(0, 2)])
    assert (edge_rows(g), g.den) == ([[(0, n * n - n)]], [n * n - n])


def test_reference_explore_at_a_huge_size_matches_explore():
    # the reference clips counts inline, as explore does, not through a
    # table with an entry per agent count
    p = parse_protocol(broadcast())
    g = assert_explore_matches_reference(p, cfg(p, t=0, f=10**20))
    assert g.size == 1


def test_explore_node_count_bound():
    # stars and bars: at most C(n + |Q| - 1, |Q| - 1) configurations
    p = parse_protocol(
        "protocol t\nstates: A B\ninputs: x -> A, y -> B\noutput1: A\n"
        "transitions:\n  A A -> B B\n  B B -> A A\n"
    )
    g = V.explore(p, cfg(p, A=3))
    assert g.size <= 4


def test_explore_rows_sum_to_their_denominators(corpus):
    for entry in corpus:
        p = entry.protocol()
        g = V.explore(p, [c for n in (2, 5) for c in V.initial_configurations(p, n)])
        assert_rows_well_formed(p, g)


def assert_rows_well_formed(p, g):
    """Every row of an explored graph has as many weights as links and no
    self-loop, and its full row, the idle self-loop put back, has positive
    int weights that sum to its denominator (n^2 - n) * L."""
    assert len(g.links) == len(g.weights) == len(g.den) == g.size
    for v, (c, outs, ws, den, row) in enumerate(
        zip(g.nodes, g.links, g.weights, g.den, edge_rows(g))
    ):
        assert den == (c.size**2 - c.size) * p.moves.lcm
        assert len(outs) == len(ws) and v not in outs
        assert all(type(w) is int and w > 0 for _, w in row)
        assert sum(w for _, w in row) == den


def test_explore_cap():
    with pytest.raises(V.ExplorationLimitError):
        V.explore(P2, cfg(P2, A=6, B=6), cap=10)


def test_explore_cap_counts_per_size():
    # the cap bounds each size's closure, not the chain over all sizes
    small, large = (V.initial_configurations(P2, n) for n in (5, 6))
    sizes = [V.explore(P2, roots).size for roots in (small, large)]
    assert max(sizes) < sum(sizes)
    for roots in (small + large, large + small):
        g = V.explore(P2, roots, cap=max(sizes))
        assert g.size == sum(sizes)
        for cap in (min(sizes) - 1, max(sizes) - 1):
            with pytest.raises(V.ExplorationLimitError, match=f"cap {cap} exceeded"):
                V.explore(P2, roots, cap=cap)


def test_holds_box():
    # "box phi" over the closure: every node satisfies phi
    g = V.explore(P1, cfg(P1, a=1, b=1))
    no_caps = Parts(((-present(0), -present(1)),), frozenset())
    assert len(g.sat(no_caps)) == g.size
    assert len(g.sat(TRUE)) == g.size
    g2 = V.explore(P1, cfg(P1, A=1, B=1))
    assert len(g2.sat(literal(present(0)))) < g2.size


def test_sat_clipped_key_matches_counts():
    # counts reach 3 and more here; clipping them at 2 must not change any
    # presence or singleton variable
    g = V.explore(P2, V.initial_configurations(P2, 8))
    assert max(max(c.counts) for c in g.nodes) >= 3
    assert len(g.key_counts) < g.size  # some nodes share a key
    for s in range(len(P2.states)):
        assert g.sat(literal(present(s))) == {
            i for i, c in enumerate(g.nodes) if c.counts[s] > 0
        }
        assert g.sat(literal(single(s))) == {
            i for i, c in enumerate(g.nodes) if c.counts[s] == 1
        }


def reference_stable_set(g):
    """Nodes whose reachable configurations, found by a forward search, all
    have their populated states output one value, the same for all."""
    p = g.protocol
    out = set()
    for v in range(g.size):
        seen = {v}
        todo = [v]
        for u in todo:
            for w in g.links[u]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        outputs = {p.output(s) for u in seen for s, k in enumerate(g.counts[u]) if k}
        if len(outputs) == 1:
            out.add(v)
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_stable_set_matches_forward_reference_generated(data):
    p = data.draw(small_protocols())
    roots = data.draw(st.lists(random_config(len(p.states)), min_size=1, max_size=3))
    g = V.explore(p, roots)
    assert V.stable_set(g) == reference_stable_set(g)


def assert_explore_matches_reference(p, roots):
    """explore builds the graph of `reference_explore`, field by field."""
    got = V.explore(p, roots)
    want = reference_explore(p, roots)
    for name in ("counts", "links", "weights", "den", "keys", "key_counts", "roots"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.nodes == want.nodes
    assert edge_rows(got) == edge_rows(want)
    assert_rows_well_formed(p, got)
    return got


def assert_keys_and_rows(p, g):
    """explore's key of every node is its count vector clipped at 2, keys
    are numbered as first met, and every row is `coded_weights` over the
    whole move table in increasing code order."""
    width = len(p.states)
    base = max(c.size for c in g.nodes) + 1
    heads = coded(p, base)
    assert list(dict.fromkeys(g.keys)) == list(range(len(g.key_counts)))
    codes = [encode(c.counts, base) for c in g.nodes]
    rows = edge_rows(g)
    for v, c in enumerate(g.nodes):
        assert g.key_counts[g.keys[v]] == tuple(min(k, 2) for k in c.counts)
        want = sorted(coded_weights(heads, c.counts, codes[v]).items())
        assert [(codes[u], w) for u, w in rows[v]] == want


def test_explore_keys_and_rows_on_corpus(corpus):
    for entry in corpus:
        p = entry.protocol()
        roots = [c for n in (2, 3, 7) for c in V.initial_configurations(p, n)]
        g = assert_explore_matches_reference(p, roots)
        assert_keys_and_rows(p, g)
        assert g.condensation() == reference_scc_condensation(g.links)


def test_explore_keys_and_rows_at_large_counts():
    # the 5,002-node broadcast chain of the hitting-time test: counts reach
    # 5,001, far past a byte
    p = parse_protocol(broadcast())
    g = V.explore(p, cfg(p, t=1, f=5001))
    assert max(max(c.counts) for c in g.nodes) >= 256
    assert_keys_and_rows(p, g)
    assert g.key_counts == [(1, 2), (2, 2), (2, 1), (2, 0)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_explore_matches_reference_generated(data):
    # roots of mixed sizes, over heads with several rules
    p = data.draw(few_head_protocols())
    roots = data.draw(st.lists(random_config(len(p.states)), min_size=1, max_size=4))
    assert_explore_matches_reference(p, roots)


def test_explore_merges_rules_with_one_successor():
    # A B -> A C and D B -> D C move the code by the same delta: rows with
    # one delta are merged into one successor, and the idle heads, which
    # have no row, leave the self-loop its weight
    p = parse_protocol(
        "protocol t\nstates: A B C D\ninputs: x -> A, y -> B, z -> D\noutput1: C\n"
        "transitions:\n  A B -> A C\n  D B -> D C\n"
    )
    g = assert_explore_matches_reference(p, [cfg(p, A=1, B=1, D=1), cfg(p, A=2, B=2, D=1)])
    # of the 6 ordered pairs of A=1 B=1 D=1, 2 + 2 turn B into C and the
    # 2 on A D are idle
    i = g.counts.index(cfg(p, A=1, C=1, D=1).counts)
    rows = edge_rows(g)
    assert rows[0] == [(i, 4), (0, 2)]
    assert rows[i] == [(i, 6)]
    # of the 20 of A=2 B=2 D=1, 8 + 4 turn B into C, and the 2 on A A,
    # the 2 on B B and the 4 on A D are idle
    j = g.counts.index(cfg(p, A=2, B=1, C=1, D=1).counts)
    assert rows[1] == [(j, 12), (1, 8)]


# The kernel holds only productive rows, and explore and step_distribution
# give each node's self-loop what those rows leave of its denominator.  Both
# are checked against references that read every rule, idle ones included.


def assert_complement_matches_references(p, roots):
    """explore equals `reference_explore` field by field, and
    step_distribution equals the per-rule reference at every node."""
    g = assert_explore_matches_reference(p, roots)
    for c in g.nodes:
        assert step_distribution(p, c) == reference_step_distribution(p, c)
    return g


def test_complement_with_an_explicit_idle_rule_beside_a_productive_one():
    # A B carries two rules, so L = 2: of the 2 * 2 weight of A=1,B=1, the
    # rule A B -> C C takes 2 and the explicit A B -> A B leaves 2 behind
    p = parse_protocol(
        "protocol t\nstates: A B C\ninputs: x -> A, y -> B\noutput1: C\n"
        "transitions:\n  A B -> A B\n  A B -> C C\n"
    )
    assert p.rules_by_head[(0, 1)] == p.transitions[: p.explicit_count]
    g = assert_complement_matches_references(
        p, [cfg(p, A=1, B=1), cfg(p, A=2, B=2), cfg(p, A=1, B=3, C=1)]
    )
    i = g.counts.index((0, 0, 2))
    rows = edge_rows(g)
    assert rows[0] == [(i, 2), (0, 2)]
    assert rows[i] == [(i, 4)]


def test_complement_of_a_swap():
    # A B -> B A is idle, whether alone or beside a productive head
    swap = "protocol t\nstates: A B\ninputs: x -> A, y -> B\noutput1: A\ntransitions:\n"
    alone = parse_protocol(swap + "  A B -> B A\n")
    g = assert_complement_matches_references(alone, [cfg(alone, A=1, B=1), cfg(alone, A=2, B=3)])
    assert edge_rows(g) == [[(0, 2)], [(1, 20)]]
    assert StepKernel(alone, 6).heads == [[], []]
    beside = parse_protocol(swap + "  A B -> B A\n  A A -> B B\n")
    g = assert_complement_matches_references(beside, V.initial_configurations(beside, 5))
    assert all(len(outs) <= 2 for outs in edge_rows(g))


def test_complement_is_absent_when_every_head_is_productive():
    p = parse_protocol(
        "protocol t\nstates: A B\ninputs: x -> A, y -> B\noutput1: A\n"
        "transitions:\n  A A -> A B\n  A B -> B B\n  B B -> A A\n"
    )
    roots = [c for n in range(2, 7) for c in V.initial_configurations(p, n)]
    g = assert_complement_matches_references(p, roots)
    assert g.size > 10
    assert not any(v in outs for v, outs in enumerate(g.links))


def test_complement_sits_between_negative_and_positive_deltas():
    # n = 2 in base 3: from A=1,B=1 the rules on A B move the code by -6
    # (to B=2), 0 and +6 (to A=2), each with weight 2 of 2 * L = 6
    p = parse_protocol(
        "protocol t\nstates: A B C\ninputs: x -> A, y -> B\noutput1: A\n"
        "transitions:\n  A B -> A A\n  A B -> B B\n  A B -> A B\n"
    )
    g = assert_complement_matches_references(p, cfg(p, A=1, B=1))
    assert g.counts == [(1, 1, 0), (0, 2, 0), (2, 0, 0)]
    assert edge_rows(g) == [[(1, 2), (0, 2), (2, 2)], [(1, 6)], [(2, 6)]]
    # the graph stores no self-loop: edge_rows puts each back in code order
    assert (g.links, g.weights) == ([[1, 2], [], []], [[2, 2], [], []])


def test_explore_counts_when_two_rules_share_a_delta():
    # in base 3, B B -> A C and C C -> B B both move the code by
    # 9 + 1 - 2 * 3 = 2 * 3 - 2 * 1 = 4, with different count changes
    p = parse_protocol(
        "protocol t\nstates: A B C\ninputs: x -> A, y -> C\noutput1: A\n"
        "transitions:\n  B B -> A C\n  C C -> B B\n"
    )
    kernel = StepKernel(p, 3)
    assert kernel.change == {(4, 1, 1): (1, -2, 1), (4, 2, 2): (0, 2, -2)}
    g = assert_complement_matches_references(p, cfg(p, C=2))
    assert g.counts == [(0, 0, 2), (0, 2, 0), (1, 0, 1)]


# ---------------------------------------------------------------------------
# ReachGraph.sat evaluates a formula once, bit-parallel over the keys.  The
# references below are the per-key evaluation it replaced: one valuation
# dict per key, and the recursive evaluator over a dict of bools.


def reference_evaluate(f, asg):
    """Truth value of f under a total valuation of its variables, such as
    the valuation of a configuration in the oracle."""
    tag = f[0]
    if tag == "atom":
        return asg[f[1]]
    if tag == "tt":
        return True
    if tag == "ff":
        return False
    if tag == "not":
        return not reference_evaluate(f[1], asg)
    if tag == "and":
        for g in f[1]:
            if not reference_evaluate(g, asg):
                return False
        return True
    if tag == "or":
        for g in f[1]:
            if reference_evaluate(g, asg):
                return True
        return False
    raise ValueError(f"bad formula node {f!r}")


def reference_valuations(g):
    """The key id of every node, and the valuation of every distinct key, a
    dict of bools by variable."""
    ids = {}
    key_of = []
    vals = []
    for c in g.nodes:
        key = tuple(min(k, 2) for k in c.counts)
        if key not in ids:
            ids[key] = len(vals)
            val = {}
            for s, k in enumerate(key):
                val[present(s)] = k > 0
                val[single(s)] = k == 1
            vals.append(val)
        key_of.append(ids[key])
    return key_of, vals


def reference_sat(g, f):
    """The nodes whose key satisfies the formula tree f."""
    key_of, vals = reference_valuations(g)
    holds = [reference_evaluate(f, val) for val in vals]
    return {i for i, k in enumerate(key_of) if holds[k]}


# chains whose keys cover many atom combinations: A, B, a, b of example 2
# at sizes 2..7 (counts 0-2 and above), and the four-state example
SAT_GRAPHS = (
    V.explore(P2, [c for n in range(2, 8) for c in V.initial_configurations(P2, n)]),
    V.explore(P1, V.initial_configurations(P1, 5)),
)


@st.composite
def oracle_formulas(draw, p, depth=3):
    """Formulas with every connective over all the variables the oracle
    knows: presence and singleton of every state.  Built as plain tuples,
    not through conj/disj/neg, so tt and ff stay inside them."""
    atoms = [atom(present(s)) for s in range(len(p.states))]
    atoms += [atom(single(s)) for s in range(len(p.states))]
    if depth == 0:
        return draw(st.sampled_from(atoms + [TT, FF]))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(st.sampled_from(atoms))
    sub = oracle_formulas(p, depth - 1)
    if kind == 1:
        return ("not", draw(sub))
    if kind == 2:  # an implication, !f | g
        return ("or", (("not", draw(sub)), draw(sub)))
    parts = draw(st.lists(sub, min_size=1, max_size=3))
    return ("and", tuple(parts)) if kind == 3 else ("or", tuple(parts))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sat_matches_per_key_reference(data):
    # a stage formula over every variable of the chain, against its tree
    g = data.draw(st.sampled_from(SAT_GRAPHS))
    phi = data.draw(stage_formulas(range(len(g.protocol.states))))
    assert g.sat(phi) == reference_sat(g, formula_of(phi))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_evaluate_one_valuation_matches_reference(data):
    # a single valuation of bools is the one-bit case of logic.evaluate; the
    # tree walker that the stage formula is checked against agrees with the
    # recursive evaluator on trees of any shape
    g = data.draw(st.sampled_from(SAT_GRAPHS))
    phi = data.draw(stage_formulas(range(len(g.protocol.states))))
    f = data.draw(oracle_formulas(g.protocol))
    for val in reference_valuations(g)[1]:
        assert evaluate(phi, val) & 1 == reference_evaluate(formula_of(phi), val)
        assert tree_evaluate(f, val) & 1 == reference_evaluate(f, val)


def test_holds_diamond_as():
    g = V.explore(P1, cfg(P1, A=1, B=1))
    target = g.sat(Parts((), frozenset({(0, 1)})))  # not both A and B
    assert roots_reach_almost_surely(g, target)
    assert roots_reach_almost_surely(g, set(g.roots))  # root already inside
    assert not roots_reach_almost_surely(g, set())


def test_diamond_counts_passing_through_target():
    # the run may leave the target again; hitting it once is enough
    g = V.explore(P1, cfg(P1, A=1, B=1))
    ab_only = g.counts.index(cfg(P1, a=1, b=1).counts)
    assert roots_reach_almost_surely(g, {ab_only})


# ---------------------------------------------------------------------------
# Graph closures against brute-force references on random small digraphs


@st.composite
def digraphs_with_sets(draw):
    """Successor lists over 1..8 nodes, plus two node sets."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    succ = [[] for _ in range(n)]
    for x, y in draw(st.lists(st.tuples(node, node), max_size=3 * n)):
        succ[x].append(y)
    return succ, draw(st.sets(node)), draw(st.sets(node))


def forward(succ, v):
    seen = {v}
    todo = [v]
    while todo:
        for u in succ[todo.pop()]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return seen


def fraction_chain(succ):
    """A ReachGraph over placeholder nodes, root 0, whose rows are given as
    (node, probability) pairs: each row becomes integer weights over the
    lcm of its denominators."""
    den = [math.lcm(*(prob.denominator for _, prob in outs)) for outs in succ]
    rows = [
        [(u, prob.numerator * (d // prob.denominator)) for u, prob in outs]
        for outs, d in zip(succ, den)
    ]
    return make_reach_graph(None, [(v,) for v in range(len(succ))], rows, den, [0])


def reach_graph(succ):
    return fraction_chain([[(u, Fraction(1, len(outs))) for u in outs] for outs in succ])


@settings(max_examples=300, deadline=None)
@given(digraphs_with_sets())
def test_scc_condensation_matches_mutual_reachability(case):
    succ, _, _ = case
    n = len(succ)
    comp, members = scc_condensation(succ)
    assert (comp, members) == reference_scc_condensation(succ)
    reach = [forward(succ, v) for v in range(n)]
    for u in range(n):
        for v in range(n):
            assert (comp[u] == comp[v]) == (v in reach[u] and u in reach[v])
    assert sorted(v for group in members for v in group) == list(range(n))
    assert all(comp[v] == cid for cid, group in enumerate(members) for v in group)
    # reverse topological order, which the hitting-time solve relies on
    for u, outs in enumerate(succ):
        for v in outs:
            assert comp[u] >= comp[v]


@pytest.mark.parametrize("cycle", [False, True])
def test_scc_condensation_on_a_long_path(cycle):
    # 50,000 nodes in one search, far deeper than the recursion limit
    n = 50_000
    succ = [[v + 1] for v in range(n - 1)] + [[0] if cycle else []]
    comp, members = scc_condensation(succ)
    assert (comp, members) == reference_scc_condensation(succ)
    if cycle:
        assert members == [list(range(n - 1, -1, -1))]
    else:
        assert members == [[v] for v in range(n - 1, -1, -1)]


def reaches(succ, v, seed, blocked):
    """Whether a path from v reaches the seed set through nodes outside
    `blocked`, the seed node itself excepted."""
    seen = {v}
    todo = [v]
    while todo:
        x = todo.pop()
        if x in seed:
            return True
        if x in blocked:
            continue
        for u in succ[x]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return False


def as_bits(n, sets):
    """Per node, bit q set iff the node is in sets[q]."""
    return [sum(1 << q for q, s in enumerate(sets) if v in s) for v in range(n)]


def of_bit(bits, q):
    return {v for v, b in enumerate(bits) if b >> q & 1}


@st.composite
def digraphs_with_queries(draw):
    """A digraph and 0..5 batched queries, each a pair of node sets.  The
    draws give empty and overlapping sets; one more query, when the graph
    has a component of several nodes, takes one node of it as its set and
    the rest of it as its second set, so it splits that component."""
    succ, _, _ = draw(digraphs_with_sets())
    node = st.integers(0, len(succ) - 1)
    queries = draw(st.lists(st.tuples(st.sets(node), st.sets(node)), max_size=5))
    big = max(scc_condensation(succ)[1], key=len)
    if len(big) > 1:
        queries.append(({big[0]}, set(big[1:])))
    return succ, queries


@settings(max_examples=300, deadline=None)
@given(digraphs_with_queries())
def test_batched_closures_match_definitions(case):
    succ, queries = case
    n = len(succ)
    k = len(queries)
    g = reach_graph(succ)
    firsts = [a for a, _ in queries]
    seconds = [b for _, b in queries]
    reach = g.backward_reach(as_bits(n, firsts), as_bits(n, seconds))
    box = g.box_set(as_bits(n, firsts), k)
    good = g.almost_sure_reach(as_bits(n, firsts), k)
    for q, (a, b) in enumerate(queries):
        want = {v for v in range(n) if reaches(succ, v, a, b)}
        assert of_bit(reach, q) == want == reference_backward_reach(g, a, b)
        want = {v for v in range(n) if forward(succ, v) <= a}
        assert of_bit(box, q) == want == reference_box_set(g, a)
        # the target is absorbing: every node reachable on the cut chain
        # must still be able to reach it
        cut = [[] if v in a else outs for v, outs in enumerate(succ)]
        fwd = [forward(cut, v) for v in range(n)]
        want = {v for v in range(n) if all(fwd[w] & a for w in fwd[v])}
        assert of_bit(good, q) == want == reference_almost_sure_reach(g, a)
    assert all(b < 1 << k for b in reach + box + good)


def test_stable_set_example1():
    g = V.explore(P1, cfg(P1, A=1, B=1, a=1))
    st = V.stable_set(g)
    stable_cfgs = {g.nodes[i].counts for i in st}
    assert cfg(P1, b=3).counts in stable_cfgs
    assert cfg(P1, a=1, b=2).counts not in stable_cfgs
    # stability is forward closed
    for i in st:
        for j in g.links[i]:
            assert j in st


def test_expected_steps_root_in_target():
    g = V.explore(P1, cfg(P1, A=1, B=1))
    assert V.expected_steps_all(g, set(range(g.size)))[g.roots[0]] == 0


def test_expected_steps_geometric():
    # two outcomes from (A:1,B:1): the idle swap keeps the pair in place,
    # the productive rule leaves; expectation is 1/q for success chance q
    p = parse_protocol(
        "protocol t\nstates: A B C\ninputs: x -> A, y -> B\noutput1: C\n"
        "transitions:\n  A B -> A B\n  A B -> C C\n"
    )
    g = V.explore(p, cfg(p, A=1, B=1))
    target = g.sat(literal(present(2)))
    assert V.expected_steps_all(g, target)[g.roots[0]] == Fraction(2)


def test_expected_steps_example1_regression():
    # frozen from the exact linear solve: (A:1,B:1) cancels in one step and
    # the a,b pair converts in one more
    g = V.explore(P1, cfg(P1, A=1, B=1))
    assert V.expected_steps_all(g, V.stable_set(g))[g.roots[0]] == Fraction(2)
    # larger instance: frozen from the first oracle run and confirmed by a
    # hand solve of the five-node system
    g2 = V.explore(P1, cfg(P1, A=2, B=1))
    val = V.expected_steps_all(g2, V.stable_set(g2))[g2.roots[0]]
    assert val == Fraction(6)


def test_expected_steps_floating_point_path():
    # a chain of more than 5000 nodes, where the solve once switched to
    # floats, is solved exactly too: broadcast from one informed agent
    # takes (n-1) H_(n-1) interactions
    p = parse_protocol(broadcast())
    n = 5002
    g = V.explore(p, cfg(p, t=1, f=n - 1))
    assert g.size == n
    got = V.expected_steps_all(g, V.stable_set(g))[g.roots[0]]
    assert type(got) is Fraction
    assert got == (n - 1) * sum(Fraction(1, k) for k in range(1, n))


def test_expected_steps_broadcast_closed_form():
    # from k informed agents, a step informs one more with probability
    # 2k(n-k) / (n(n-1)): the expectation is a sum of geometric waits, exact
    # at every node of the chain
    p = parse_protocol(broadcast())
    n = 200
    g = V.explore(p, cfg(p, t=1, f=n - 1))
    assert g.size == n
    got = V.expected_steps_all(g, V.stable_set(g))
    for c, e in zip(g.nodes, got):
        k = c.counts[p.state_index("t")]
        assert type(e) is Fraction
        assert e == sum(Fraction(n * (n - 1), 2 * j * (n - j)) for j in range(k, n))


def test_expected_steps_diverges():
    p = parse_protocol(
        "protocol t\nstates: A B\ninputs: x -> A, y -> B\noutput1: A\n"
        "transitions:\n  A B -> A B\n"
    )
    g = V.explore(p, cfg(p, A=1, B=1))
    unreachable = g.sat(FALSE)
    with pytest.raises(ValueError):
        V.expected_steps_all(g, unreachable)


def test_expected_steps_diverging_nodes_are_none():
    # 0 -> {0, 1} with probability 1/2 each, 1 -> 2, 2 -> 2, target {1}:
    # node 2 never reaches the target, so its expectation diverges
    half = Fraction(1, 2)
    succ = [[(0, half), (1, half)], [(2, Fraction(1))], [(2, Fraction(1))]]
    g = fraction_chain(succ)
    assert V.expected_steps_all(g, {1}) == [Fraction(2), Fraction(0), None]
    assert V.expected_steps_all(g, {1})[g.roots[0]] == 2


def test_sparse_solve_solves_and_rejects_a_zero_pivot():
    # 2x + y = 5, x + 3y = 10: det 5, x = 1, y = 3; eliminated, the second
    # row is 5y = 15, its pivot the determinant, and it leaves the row
    rows, rhs = [{0: 2, 1: 1}, {0: 1, 1: 3}], [5, 10]
    assert V._solve_sparse(rows, rhs, 1) == [1, 3]
    assert (rows, rhs) == ([{1: 1}, {}], [5, 15])
    # the same system with its right-hand side over q = 4
    assert V._solve_sparse([{0: 2, 1: 1}, {0: 1, 1: 3}], [20, 40], 4) == [1, 3]
    with pytest.raises(ValueError, match="singular"):
        V._solve_sparse([{1: 1}, {0: 1}], [1, 1], 1)


# ---------------------------------------------------------------------------
# expected_steps_all solves each block fraction-free in integers.  The
# reference is the Gauss-Jordan over Fractions it replaced.


def reference_expected_steps_all(g, target):
    """First-hitting expectations for every node; the target is absorbing.

    Solved exactly over the rationals.  Nodes from which the target is not
    almost surely reached make the expectation diverge, which is reported
    as an error."""
    tgt = set(target)
    good = reference_almost_sure_reach(g, tgt)
    if not all(r in good for r in g.roots):
        raise ValueError("target not almost surely reachable; expectation diverges")
    zero, one = Fraction(0), Fraction(1)
    n = g.size
    rows = edge_rows(g)
    expect = [None] * n
    for v in tgt:
        expect[v] = zero
    for v in range(n):
        if v not in good and v not in tgt:
            expect[v] = zero  # outside the almost-sure region; never read
    plain = [[] if v in tgt or v not in good else outs for v, outs in enumerate(g.links)]
    _, members = scc_condensation(plain)
    # members[] is produced in reverse topological order already
    for group in members:
        todo = [v for v in group if expect[v] is None]
        if not todo:
            continue
        pos = {v: i for i, v in enumerate(todo)}
        k = len(todo)
        # rows: E[v] - sum_{u in block} P(v,u) E[u] = 1 + sum_{u solved} P(v,u) E[u]
        mat = [[zero] * k for _ in range(k)]
        rhs = [one] * k
        for v in todo:
            i = pos[v]
            mat[i][i] = one
            for u, w in rows[v]:
                prob = Fraction(w, g.den[v])
                if u in pos:
                    mat[i][pos[u]] -= prob
                else:
                    rhs[i] += prob * expect[u]
        sol = reference_solve_dense(mat, rhs)
        for v in todo:
            expect[v] = sol[pos[v]]
    return [e if e is not None else zero for e in expect]


def assert_same_expectations(g, target):
    """expected_steps_all equals the reference on every node of the
    almost-sure region and is None elsewhere (the reference wrote 0 there);
    both raise alike when a root diverges.  Returns the expectations."""
    try:
        want = reference_expected_steps_all(g, target)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            V.expected_steps_all(g, target)
        return None
    got = V.expected_steps_all(g, target)
    good = reference_almost_sure_reach(g, target)
    assert got == [w if v in good else None for v, w in enumerate(want)]
    assert got == reference_expected_steps_plain(g, target)
    assert all(type(x) is Fraction for x in got if x is not None)
    return got


def test_expected_steps_match_reference_on_corpus(corpus):
    solved = 0
    for entry in corpus:
        p = entry.protocol()
        for n in range(2, 7):
            inits = V.initial_configurations(p, n)
            if inits:
                g = V.explore(p, inits)
                solved += assert_same_expectations(g, V.stable_set(g)) is not None
    assert solved > 50


def test_expected_steps_match_reference_on_majority_ex2(corpus):
    p = next(e for e in corpus if e.name == "majority-ex2").protocol()
    for n in range(2, 15):
        g = V.explore(p, V.initial_configurations(p, n))
        assert assert_same_expectations(g, V.stable_set(g)) is not None


@st.composite
def weighted_chains(draw):
    """Chains over 1..8 nodes whose rows have 1..4 successors with integer
    weights 1..12, so the rows' denominators differ; cycles among the
    non-target nodes make blocks of several nodes.  Node 0 is the root."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    succ = []
    for _ in range(n):
        weights = draw(st.dictionaries(node, st.integers(1, 12), min_size=1, max_size=4))
        total = sum(weights.values())
        succ.append([(u, Fraction(w, total)) for u, w in sorted(weights.items())])
    return succ, draw(st.sets(node, min_size=1))


@settings(max_examples=400, deadline=None)
@given(weighted_chains())
def test_expected_steps_match_reference_on_generated_chains(case):
    succ, target = case
    g = fraction_chain(succ)
    assert_same_expectations(g, target)


def test_expected_steps_match_plain_reference_on_split_components(corpus):
    # the models of one atom are not forward closed, so with the stable set
    # added, which every root reaches, they make targets that split
    # components of the chain; the solve condenses those again
    split = 0
    for entry in corpus:
        p = entry.protocol()
        g = V.explore(p, [c for n in (4, 5) for c in V.initial_configurations(p, n)])
        comp = g.condensation()[0]
        stable = V.stable_set(g)
        for s in range(len(p.states)):
            for v in (present(s), single(s)):
                target = g.sat(literal(v)) | stable
                split += any(
                    comp[u] == comp[v] and (u in target) != (v in target)
                    for v, outs in enumerate(g.links)
                    for u in outs
                )
                assert V.expected_steps_all(g, target) == reference_expected_steps_plain(g, target)
    assert split > 20


@st.composite
def dense_chains(draw):
    """A dense block: k = 2..12 nodes, each linked to every node of the
    block, itself included, with weights 1..12, and to an absorbing node k
    with weight 0..3 (no link at 0).  The target is a random set of the
    k + 1 nodes, so it may split the block or leave it without a way out,
    when a root diverges; node 0 is the only root."""
    k = draw(st.integers(2, 12))
    weights = st.integers(1, 12)
    succ = []
    for _ in range(k):
        row = {u: draw(weights) for u in range(k)}
        out = draw(st.integers(0, 3))
        if out:
            row[k] = out
        total = sum(row.values())
        succ.append([(u, Fraction(w, total)) for u, w in row.items()])
    succ.append([(k, Fraction(1))])
    return succ, draw(st.sets(st.integers(0, k), max_size=k))


@settings(max_examples=150, deadline=None)
@given(dense_chains())
def test_expected_steps_match_reference_on_dense_blocks(case):
    succ, target = case
    assert_same_expectations(fraction_chain(succ), target)


def test_expected_steps_dense_block_cases():
    # one example each of what dense_chains draws: the whole block solved,
    # a block split by its target, and a root that diverges
    k = 12
    succ = [
        [(u, Fraction(1, k + 1)) for u in range(k)] + [(k, Fraction(1, k + 1))]
        for _ in range(k)
    ] + [[(k, Fraction(1))]]
    g = fraction_chain(succ)
    # every node leaves for k with probability 1/13 per step
    assert assert_same_expectations(g, {k})[:k] == [Fraction(k + 1)] * k
    comp = g.condensation()[0]
    assert len({comp[v] for v in range(k)}) == 1
    # the even nodes and k split the block: the six odd nodes left are one
    # block, which a step leaves with probability 7/13
    got = assert_same_expectations(g, {*range(0, k, 2), k})
    assert [got[v] for v in range(1, k, 2)] == [Fraction(k + 1, 7)] * 6
    # without k in the target, the odd nodes reach k, whence the target is
    # never reached: they diverge, but the root 0 is in the target
    got = assert_same_expectations(g, set(range(0, k, 2)))
    assert got[0] == 0 and all(got[v] is None for v in [*range(1, k, 2), k])
    # the block, closed once k is unreachable from it, diverges at node 0
    succ = [[(u, Fraction(1, k)) for u in range(k)] for _ in range(k)] + [[(k, Fraction(1))]]
    with pytest.raises(ValueError, match="diverges"):
        V.expected_steps_all(fraction_chain(succ), {k})


def determinant(mat):
    """The determinant of an integer matrix, by elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det)


@st.composite
def dominant_systems(draw):
    """Integer systems of 1..9 rows, strictly diagonally dominant, so every
    leading principal minor is nonzero, and dense or sparse by a drawn
    chance of each entry; the off-diagonal entries have either sign."""
    k = draw(st.integers(1, 9))
    fill = draw(st.sampled_from([0.3, 0.7, 1.0]))
    mat = []
    for i in range(k):
        row = [
            draw(st.integers(-9, 9)) if j != i and draw(st.floats(0, 1)) < fill else 0
            for j in range(k)
        ]
        row[i] = sum(map(abs, row)) + draw(st.integers(1, 9))
        mat.append(row)
    return mat, draw(st.lists(st.integers(-99, 99), min_size=k, max_size=k))


@settings(max_examples=150, deadline=None)
@given(dominant_systems())
# row 3's one real update cancels its column 1, which must then count as an
# update, so that the row is divided by its content
@example(([[9, 7, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [9, 7, 0, 17]], [0, 0, 0, 1]))
def test_sparse_solve_keeps_rows_no_larger_than_bareiss(case):
    # by Cramer's rule x_i = det(M with column i replaced by b) / det(M);
    # and each eliminated row, with its right-hand side, is Bareiss's row r
    # (the minors of rows 0..r on columns 0..r-1 and one more column)
    # divided by a whole number, so no entry outgrows Bareiss's
    mat, b = case
    k = len(mat)
    rows = [{j: a for j, a in enumerate(row) if a} for row in mat]
    rhs = list(b)
    det = determinant(mat)
    want = [
        Fraction(determinant([row[:i] + [y] + row[i + 1:] for row, y in zip(mat, b)]), det)
        for i in range(k)
    ]
    assert V._solve_sparse(rows, rhs, 1) == want
    aug = [row + [y] for row, y in zip(mat, b)]
    for r in range(k):
        ours = {**rows[r], k: rhs[r]}
        assert all(c > r for c in rows[r])
        ratios = set()
        for c in [*range(r + 1, k), k]:
            minor = determinant([[row[j] for j in [*range(r), c]] for row in aug[:r + 1]])
            if ours.get(c, 0):
                ratios.add(Fraction(minor, ours[c]))
            else:
                assert minor == 0
        assert len(ratios) <= 1 and all(x.denominator == 1 for x in ratios)


def test_expected_steps_hand_solved_block():
    # one block of three nodes with row denominators 3, 4 and 5
    succ = [
        [(1, Fraction(1, 3)), (2, Fraction(2, 3))],
        [(0, Fraction(1, 4)), (1, Fraction(1, 2)), (3, Fraction(1, 4))],
        [(0, Fraction(3, 5)), (3, Fraction(2, 5))],
        [(3, Fraction(1))],
    ]
    g = fraction_chain(succ)
    got = assert_same_expectations(g, {3})
    # E0 = 1 + E1/3 + 2E2/3, E1 = 1 + E0/4 + E1/2, E2 = 1 + 3E0/5
    assert got == [Fraction(70, 13), Fraction(61, 13), Fraction(55, 13), 0]


def test_initial_configurations_enumeration():
    got = {c.counts for c in V.initial_configurations(P1, 3)}
    assert got == {(3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 3, 0, 0)}
    assert V.initial_configurations(P1, 0) == [Configuration((0, 0, 0, 0))]


def test_check_stage_graph_clean(corpus_graphs):
    sg = corpus_graphs["majority-ex2"]
    assert V.check_stage_graph(P2, sg, max_n=5) == []


def test_check_stage_graph_detects_corruption(corpus_graphs):
    sg = corpus_graphs["majority-ex2"]
    # fault injection: strengthen one child's formula to false
    broken = [
        Stage(
            id=s.id,
            phi=(FALSE if s.id == sg.stages[0].children[0] else s.phi),
            pi=s.pi,
            disabled=s.disabled,
            parent=s.parent,
            kind=s.kind,
            analysis=s.analysis,
        )
        for s in sg.stages
    ]
    for s, orig in zip(broken, sg.stages):
        s.children = list(orig.children)
    from stagebound.stagegraph import StageGraph

    bad = StageGraph(protocol=P2, stages=broken)
    viol = V.check_stage_graph(P2, bad, max_n=4)
    assert viol
    assert {v.condition for v in viol} == {"progress"}


# ---------------------------------------------------------------------------
# check_stage_graph denotes each distinct stage triple once and runs the
# progress check once per (triple, children's triples).  The reference
# below denotes and checks every stage on its own.


def reference_check_stage_graph(p, sg, max_n):
    violations = []
    for n in range(2, max_n + 1):
        inits = V.initial_configurations(p, n)
        if not inits:
            continue
        g = V.explore(p, inits)
        denote = {s.id: reference_stage_denotation(g, s) for s in sg.stages}
        root_den = denote[0]
        for i in g.roots:
            if i not in root_den:
                violations.append(
                    V.Violation(n, "initial-membership", 0, g.nodes[i])
                )
        for s in sg.stages:
            if not s.children:
                continue
            target = set()
            for cid in s.children:
                target |= denote[cid]
            good = reference_almost_sure_reach(g, target)
            for i in sorted(denote[s.id]):
                if i not in good:
                    violations.append(V.Violation(n, "progress", s.id, g.nodes[i]))
    return violations


def test_stage_denotation_matches_reference_on_corpus(corpus_graphs):
    # one batched pass over every stage of a tree, against one closure per
    # stage
    for sg in corpus_graphs.values():
        p = sg.protocol
        g = V.explore(p, [c for n in range(2, 6) for c in V.initial_configurations(p, n)])
        got = V.stage_denotation(g, sg.stages)
        for i, s in enumerate(sg.stages):
            assert of_bit(got, i) == reference_stage_denotation(g, s)


def test_check_stage_graph_matches_reference_on_corpus(corpus_graphs):
    for name, sg in corpus_graphs.items():
        p = sg.protocol
        got = V.check_stage_graph(p, sg, max_n=5)
        assert got == reference_check_stage_graph(p, sg, max_n=5), name


def with_change(sg, sid, **change):
    """A copy of the tree in which stage `sid` has the given fields."""
    stages = [replace(s, children=list(s.children)) for s in sg.stages]
    stages[sid] = replace(stages[sid], **change)
    return StageGraph(protocol=sg.protocol, stages=stages)


def test_check_stage_graph_matches_reference_on_faulty_trees(corpus_graphs):
    # remainder-m5 has 225 stages but 29 distinct triples.  Each fault hits
    # a stage whose triple other stages share, so a memo keyed too coarsely
    # would hand the faulty stage its twins' answer, or the reverse.  Stage
    # 16 has one child; 17 is a stable terminal.
    sg = corpus_graphs["remainder-m5"]
    p = sg.protocol
    count = Counter(V.stage_triple(s) for s in sg.stages)
    for sid in (1, 8, 16, 17, 86, 150):
        assert count[V.stage_triple(sg.stages[sid])] > 1, sid
    mutants = [with_change(sg, sid, phi=FALSE) for sid in (1, 17, 86, 150)]
    mutants += [
        with_change(sg, sid, children=sg.stages[sid].children[1:])
        for sid in (1, 8, 16)
    ]
    # T alone changes: only a memo keyed on the whole triple tells it apart
    every_head = frozenset(p.rules_by_head)
    mutants += [with_change(sg, sid, disabled=every_head) for sid in (17, 86, 150)]
    # faults at the root, stage 8 and stage 150 together: both conditions
    # fail at every size and progress at two stages, so the chain over all
    # sizes must order them by size, then condition, then stage
    mixed = with_change(sg, 0, phi=FALSE)
    mixed = with_change(mixed, 8, children=sg.stages[8].children[1:])
    mutants.append(with_change(mixed, 150, phi=FALSE))
    found = []
    for bad in mutants:
        got = V.check_stage_graph(p, bad, max_n=4)
        assert got == reference_check_stage_graph(p, bad, max_n=4)
        found.append(bool(got))
    assert found == [False, False, True, True, False, True, False, False, True, True, True]
    assert len({(v.size, v.condition, v.stage) for v in got}) == 9


def test_check_stage_graph_explores_one_chain(corpus_graphs, monkeypatch):
    sg = corpus_graphs["majority-ex2"]
    calls = []
    real = V.explore

    def counted(p, roots, **limits):
        calls.append(sorted({c.size for c in roots}))
        return real(p, roots, **limits)

    monkeypatch.setattr(V, "explore", counted)
    assert V.check_stage_graph(P2, sg, max_n=5) == []
    assert calls == [[2, 3, 4, 5]]


def test_check_stage_graph_spent_timeout(corpus_graphs, monkeypatch):
    # a deadline already passed stops the exploration at its first node,
    # and, when the exploration is not bounded, the denotation pass at its
    # first component; no timeout means no bound
    sg = corpus_graphs["majority-ex2"]
    with pytest.raises(V.ExplorationLimitError, match="timeout exceeded"):
        V.explore(P2, V.initial_configurations(P2, 4), deadline=time.monotonic())
    for timeout in (0, -1):
        with pytest.raises(V.ExplorationLimitError, match="timeout exceeded"):
            V.check_stage_graph(P2, sg, 4, timeout=timeout)
    real = V.explore
    monkeypatch.setattr(V, "explore", lambda p, roots, deadline: real(p, roots))
    with pytest.raises(V.ExplorationLimitError, match="timeout exceeded"):
        V.check_stage_graph(P2, sg, 4, timeout=0)
    assert V.check_stage_graph(P2, sg, 4, timeout=None) == []


def test_check_stage_graph_spent_timeout_while_listing_roots(corpus_graphs, monkeypatch):
    # the deadline is tested before each size's initial configurations are
    # listed, so a huge max_n with a spent timeout lists at most one size
    sg = corpus_graphs["majority-ex2"]
    listed = []
    real = V.initial_configurations

    def counted(p, n):
        listed.append(n)
        assert len(listed) == 1, "a second size listed past the deadline"
        return real(p, n)

    monkeypatch.setattr(V, "initial_configurations", counted)
    with pytest.raises(V.ExplorationLimitError, match="timeout exceeded"):
        V.check_stage_graph(P2, sg, 10**9, timeout=0)


def test_condensation_honours_a_spent_deadline():
    # the condensation tests its deadline at its first node, and the first
    # pass on a graph builds it under the pass's deadline; a build that
    # fails leaves nothing behind
    g = V.explore(P2, V.initial_configurations(P2, 5))
    spent = time.monotonic()
    for run in (
        lambda: scc_condensation(g.links, spent),
        lambda: g.condensation(spent),
        lambda: g.backward_reach([1] * g.size, None, spent),
    ):
        with pytest.raises(V.ExplorationLimitError, match="timeout exceeded"):
            run()
    assert g.condensation() == reference_scc_condensation(g.links)


def test_closure_passes_honour_a_spent_deadline():
    # every batched pass tests its deadline at its first component
    g = V.explore(P2, V.initial_configurations(P2, 5))
    g.condensation()
    spent = time.monotonic()
    ones = [1] * g.size
    for run in (
        lambda: g.backward_reach(ones, None, spent),
        lambda: g.box_set(ones, 1, spent),
        lambda: g.almost_sure_reach(ones, 1, spent),
        lambda: V.stage_denotation(g, build_stage_graph(P2).stages, spent),
    ):
        with pytest.raises(V.ExplorationLimitError, match="timeout exceeded"):
            run()
    assert g.box_set(ones, 1, spent + 3600) == ones


def test_check_stage_graph_vacuous():
    sg = build_stage_graph(P1)
    assert V.check_stage_graph(P1, sg, max_n=1) == []


def test_simulate_deterministic():
    c0 = cfg(P2, A=2, B=1)
    r1 = V.simulate(P2, c0, trials=40, seed=7)
    r2 = V.simulate(P2, c0, trials=40, seed=7)
    assert r1 == r2
    r3 = V.simulate(P2, c0, trials=40, seed=8)
    assert r1.steps != r3.steps


def test_simulate_consensus_direction():
    # A-majority: every trial must settle on output 0
    res = V.simulate(P2, cfg(P2, A=2, B=1), trials=200, seed=3)
    assert all(c == 0 for c in res.consensus)


def test_simulate_zero_trials():
    res = V.simulate(P2, cfg(P2, A=2, B=1), trials=0, seed=1)
    assert res.steps == ()
    assert res.consensus == ()


def test_simulate_counts_idle_interactions():
    # with one productive pair among three agents, idle steps must appear in
    # the counts; the mean exceeds the path length 2
    res = V.simulate(P1, cfg(P1, A=1, B=1, a=1), trials=400, seed=11)
    assert res.mean > 2.0


def test_simulate_step_cap():
    # A A -> B B and B B -> A A flip the pair for ever: every interaction
    # is productive, neither configuration is stable, and the cap ends the
    # run.  (A B -> A B from A=1,B=1 is stuck instead, with its own error.)
    p = parse_protocol(
        "protocol t\nstates: A B\ninputs: x -> A, y -> B\noutput1: A\n"
        "transitions:\n  A A -> B B\n  B B -> A A\n"
    )
    with pytest.raises(RuntimeError, match="trial 0 exceeded 500 interactions"):
        V.simulate(p, cfg(p, A=2), trials=1, seed=0, max_steps=500)


def test_simulate_against_exact_expectation():
    c0 = cfg(P2, A=2, B=2)
    g = V.explore(P2, c0)
    exact = float(V.expected_steps_all(g, V.stable_set(g))[g.roots[0]])
    res = V.simulate(P2, c0, trials=4000, seed=123)
    assert abs(res.mean - exact) <= 5 * res.stderr


# ---------------------------------------------------------------------------
# simulate against plain references: the same sampler written out, and the
# per-interaction loop whose law it must keep


def _consensus_value(p, c):
    """The consensus helper of the references, which read a Configuration."""
    outs = {p.output(s) for s, k in enumerate(c.counts) if k > 0}
    if len(outs) == 1:
        return outs.pop()
    return None


def _step_cap_error(t, max_steps):
    return RuntimeError(
        f"trial {t} exceeded {max_steps} interactions; target "
        f"may not be almost surely reachable"
    )


def _stuck_error(t, counts, steps):
    return RuntimeError(
        f"trial {t} stuck at {tuple(counts)} after {steps} interactions: "
        f"it is not stable, and no interaction changes it"
    )


def reference_simulate(
    p,
    c0,
    trials,
    seed,
    max_steps=1_000_000,
):
    """simulate written plainly: scalar Generator.random/integers calls and a
    fresh walk over the present heads' rules at each productive step.  The
    interactions up to the next productive one are one geometric draw, and
    the move is drawn by its integer weight among the productive ones."""
    n = c0.size
    if n < 2:
        raise ValueError("simulation needs at least two agents")
    space = V.explore(p, c0, cap=10_000_000)
    members = frozenset(space.nodes[i] for i in V.stable_set(space))

    steps_out = []
    consensus = []
    big = math.lcm(*(len(rules) for rules in p.rules_by_head.values()))
    total = n * (n - 1) * big
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) + t))
        c = list(c0.counts)
        steps = 0
        cfg = Configuration(tuple(c))
        while cfg not in members:
            moves = []
            present = [s for s in range(len(c)) if c[s] > 0]
            for ai, a in enumerate(present):
                for b in present[ai:]:
                    pairs = c[a] * (c[a] - 1) if a == b else 2 * c[a] * c[b]
                    rules = p.rules_by_head[(a, b)]
                    for rule in rules:
                        nxt = list(c)
                        nxt[rule.lhs[0]] -= 1
                        nxt[rule.lhs[1]] -= 1
                        nxt[rule.rhs[0]] += 1
                        nxt[rule.rhs[1]] += 1
                        if pairs and nxt != c:
                            moves.append((pairs * big // len(rules), nxt))
            w = sum(weight for weight, _ in moves)
            if w == 0:
                raise _stuck_error(t, c, steps)
            if w < total:
                gap = math.log(1 - rng.random()) / math.log1p(-w / total)
                steps += 1 + math.floor(gap)
            else:
                steps += 1
            if steps > max_steps:
                raise _step_cap_error(t, max_steps)
            if len(moves) == 1:
                c = moves[0][1]
            else:
                r = int(rng.integers(0, w))
                for weight, nxt in moves:
                    if r < weight:
                        c = nxt
                        break
                    r -= weight
            cfg = Configuration(tuple(c))
        steps_out.append(steps)
        consensus.append(_consensus_value(p, cfg))
    return V.SimResult(trials, tuple(steps_out), seed, tuple(consensus))


def per_interaction_simulate(p, c0, trials, seed, max_steps=1_000_000):
    """simulate as it was before idle interactions were skipped: one draw
    of an ordered agent pair per interaction, productive or not, and one of
    the rule when its head has several.  Its numbers differ from simulate's;
    its law must not."""
    n = c0.size
    space = V.explore(p, c0, cap=10_000_000)
    members = frozenset(space.nodes[i] for i in V.stable_set(space))

    steps_out = []
    consensus = []
    total_pairs = n * (n - 1)
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) + t))
        c = list(c0.counts)
        steps = 0
        cfg = Configuration(tuple(c))
        while cfg not in members:
            if steps >= max_steps:
                raise _step_cap_error(t, max_steps)
            r = int(rng.integers(0, total_pairs))
            acc = 0
            head = None
            present = [s for s in range(len(c)) if c[s] > 0]
            for ai, a in enumerate(present):
                for b in present[ai:]:
                    w = c[a] * (c[a] - 1) if a == b else 2 * c[a] * c[b]
                    acc += w
                    if r < acc:
                        head = (a, b)
                        break
                if head is not None:
                    break
            rules = p.rules_by_head[head]
            rule = rules[0] if len(rules) == 1 else rules[int(rng.integers(0, len(rules)))]
            c[rule.lhs[0]] -= 1
            c[rule.lhs[1]] -= 1
            c[rule.rhs[0]] += 1
            c[rule.rhs[1]] += 1
            steps += 1
            cfg = Configuration(tuple(c))
        steps_out.append(steps)
        consensus.append(_consensus_value(p, cfg))
    return V.SimResult(trials, tuple(steps_out), seed, tuple(consensus))


def sim_outcome(fn, *args, **kwargs):
    """The SimResult, or the message of the step-cap error."""
    try:
        return fn(*args, **kwargs)
    except RuntimeError as exc:
        return str(exc)


def assert_same_runs(p, c0, trials, seed, max_steps=1_000_000):
    """simulate against both references: the plain loop and the one-run
    scalar loop that simulate replaced, which draws through PhiloxDraws."""
    got = sim_outcome(V.simulate, p, c0, trials, seed, max_steps)
    assert got == sim_outcome(reference_simulate, p, c0, trials, seed, max_steps)
    assert got == sim_outcome(scalar_simulate, p, c0, trials, seed, max_steps)
    return got


@pytest.mark.parametrize(
    "name,counts",
    [("majority-ex2", {"x": 14, "y": 10}), ("broadcast", {"one": 1, "zero": 99})],
)
@pytest.mark.parametrize("seed", [1, 2, 2**64 - 1])
def test_simulate_matches_reference_on_benchmark_inputs(corpus, name, counts, seed):
    p = next(e for e in corpus if e.name == name).protocol()
    c0 = initial_configuration(p, counts)
    assert isinstance(assert_same_runs(p, c0, 30, seed), V.SimResult)


def test_simulate_matches_reference_on_corpus(corpus):
    for entry in corpus:
        p = entry.protocol()
        for c0 in V.initial_configurations(p, 5):
            assert_same_runs(p, c0, 5, 17, max_steps=5000)


class CountingStreams(V.PhiloxStreams):
    """PhiloxStreams that counts its draws by kind, one per stream drawn
    from: "random", or the bound; "words", the words taken; and "passes",
    the calls of `randoms`, one per pass over forced stretches, which takes
    one word per value.  A call with idx None draws from every stream kept."""

    calls = Counter()

    def _word(self, idx=None):
        if k := len(self._taken) if idx is None else len(idx):
            self.calls["words"] += k
        return super()._word(idx)

    def random(self, idx=None):
        self.calls["random"] += len(self._taken) if idx is None else len(idx)
        return super().random(idx)

    def randoms(self, most):
        take, u = super().randoms(most)
        self.calls["passes"] += 1
        self.calls["random"] += u.size
        self.calls["words"] += u.size
        return take, u

    def integers(self, idx, bound):
        self.calls.update(bound.tolist())
        return super().integers(idx, bound)


@pytest.fixture
def counting_draws(monkeypatch):
    CountingStreams.calls = Counter()
    monkeypatch.setattr(V, "PhiloxStreams", CountingStreams)
    return CountingStreams.calls


def test_simulate_matches_reference_with_shared_heads(shared_heads, counting_draws):
    p = shared_heads
    for seed in range(3):
        res = assert_same_runs(p, cfg(p, A=5, B=4), 40, seed)
        assert set(res.consensus) == {1}
    # (A,B) has three productive rules: a step there draws among several
    # moves of equal weight; the swap A C -> C A is idle and weighs nothing
    assert counting_draws["random"] > 0
    assert sum(k for bound, k in counting_draws.items() if isinstance(bound, int)) > 0

    def row(c):
        # the moves simulate builds for c, the closure's node 0, and the
        # reference's step row
        g = V.explore(p, c)
        moves = V._Moves(g, set())
        count, w = int(moves.count[0]), int(moves.total[0])
        cum = tuple(moves.key[:count].tolist())
        nexts = tuple(g.counts[u] for u in moves.succ[:count].tolist())
        ref_w, _, ref_cum, ref_nexts = step_row(
            StepKernel(p, 3), c.counts, encode(c.counts, 3), 2 * p.moves.lcm
        )
        assert (ref_w, ref_cum, tuple(decode(s, 3, 3) for s in ref_nexts)) == (w, cum, nexts)
        return w, cum, nexts

    assert row(cfg(p, A=1, B=1)) == (12, (4, 8, 12), ((0, 0, 2), (1, 0, 1), (0, 1, 1)))
    assert row(cfg(p, A=1, C=1)) == (6, (6,), ((0, 0, 2),))


@st.composite
def shared_head_protocols(draw):
    """2-3 states, up to 8 rules on few heads, and a start of 2-6 agents."""
    n = draw(st.integers(2, 3))
    heads = [(i, j) for i in range(n) for j in range(i, n)]
    lhs = st.sampled_from(heads[: draw(st.integers(1, len(heads)))])
    rules = draw(st.lists(st.tuples(lhs, st.sampled_from(heads)), max_size=8))
    output1 = frozenset(draw(st.sets(st.integers(0, n - 1))))
    p = PopulationProtocol("gen", tuple("ABC"[:n]), rules, {"x": 0}, output1)
    counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    counts[0] += 2
    return p, Configuration(tuple(counts))


@settings(max_examples=60, deadline=None)
@given(case=shared_head_protocols(), seed=st.integers(0, 2**64 - 1))
def test_simulate_matches_reference_generated(case, seed):
    p, c0 = case
    assert_same_runs(p, c0, 4, seed, max_steps=300)


def test_simulate_spans_blocks(corpus):
    # more trials than a block: the second block's streams carry on the
    # trial numbers, and it is still the lowest failing trial that raises
    p = next(e for e in corpus if e.name == "majority-ex2").protocol()
    c0 = initial_configuration(p, {"x": 3, "y": 2})
    assert len(assert_same_runs(p, c0, V._BLOCK + 3, 5).steps) == V._BLOCK + 3
    trials = 2 * V._BLOCK
    # a seed whose longest run is in the second block, so a cap that the
    # whole first block stays under fails some run of the second
    seed, free = next(
        (seed, res)
        for seed in range(100)
        if max((res := V.simulate(p, c0, trials, seed)).steps[V._BLOCK :])
        > max(res.steps[: V._BLOCK])
    )
    cap = max(free.steps[: V._BLOCK])
    late = next(t for t, k in enumerate(free.steps) if k > cap)
    assert late >= V._BLOCK
    msg = sim_outcome(reference_simulate, p, c0, trials, seed, max_steps=cap)
    assert msg.startswith(f"trial {late} exceeded {cap} interactions")
    assert sim_outcome(V.simulate, p, c0, trials, seed, max_steps=cap) == msg


# Forced stretches: a run on a node with one move and some idle interaction
# draws one uniform per step and nothing else; when every unfinished run of
# a block stands on one, the runs take their stretches in one pass, each as
# far as its buffer of `_WORDS` words goes.


@pytest.mark.parametrize("n,passes", [(151, 2), (301, 3)])
def test_simulate_stretches_cross_buffer_refills(counting_draws, n, passes):
    # broadcast's n - 1 steps are all forced: one pass per buffer of words
    p = parse_protocol(broadcast())
    res = assert_same_runs(p, cfg(p, t=1, f=n - 1), 6, 4)
    assert set(res.consensus) == {1}
    assert counting_draws["passes"] == passes
    assert counting_draws["random"] == counting_draws["words"] == 6 * (n - 1)


def test_simulate_step_cap_inside_a_stretch(counting_draws):
    p = parse_protocol(broadcast())
    c0 = cfg(p, t=1, f=150)
    free = reference_simulate(p, c0, 20, 2)
    # a cap that the first runs stay under and a later run passes in the
    # middle of its path, where it takes its steps in a pass
    cap = max(free.steps[:3]) + 1
    late = next(t for t, k in enumerate(free.steps) if k > cap)
    assert late >= 3
    msg = assert_same_runs(p, c0, 20, 2, max_steps=cap)
    assert msg.startswith(f"trial {late} exceeded {cap} interactions")
    assert counting_draws["passes"] > 0 and counting_draws["random"] == counting_draws["words"]
    # a run fails exactly when its count passes the cap, at its last step
    top = max(free.steps)
    assert V.simulate(p, c0, 20, 2, max_steps=top) == free
    msg = sim_outcome(V.simulate, p, c0, 20, 2, max_steps=top - 1)
    assert msg.startswith(f"trial {free.steps.index(top)} exceeded {top - 1} interactions")


# A A -> B C, B B -> C A and C C -> A B turn (2,1,0) into (0,2,1), (1,0,2)
# and back: every node has one move and idle interactions, none is stable,
# and the runs go round a forced cycle until the cap ends them
FORCED_CYCLE = (
    "protocol cycle\nstates: A B C\ninputs: x -> A, y -> B\noutput1: A\n"
    "transitions:\n  A A -> B C\n  B B -> C A\n  C C -> A B\n"
)


def test_simulate_forced_cycle_meets_the_cap(counting_draws):
    p = parse_protocol(FORCED_CYCLE)
    c0 = cfg(p, A=2, B=1)
    moves = V._Moves(V.explore(p, c0), set())
    assert moves.count.tolist() == [1, 1, 1] and (moves.logq < 0).all()
    for cap in (1, 7, 300, 5000):
        msg = assert_same_runs(p, c0, 5, 9, max_steps=cap)
        assert msg == f"trial 0 exceeded {cap} interactions; target may not be almost surely reachable"
    assert counting_draws["passes"] > 0


# a single move is not forced when every interaction makes it (logq = 0): it
# draws nothing.  A B -> C D takes the agents from the forced (A,B) through
# (C,D), whose one rule always fires, to the forced (E,F) and the stable
# (F,F); the idle swaps give (A,B) and (E,F) their idle interactions
UNDRAWN_STEP = (
    "protocol undrawn\nstates: A B C D E F\ninputs: x -> A, y -> B\noutput1: F\n"
    "transitions:\n  A B -> C D\n  A B -> B A\n  C D -> E F\n  E F -> F F\n  E F -> F E\n"
)


def test_simulate_single_moves_without_idle_interactions_draw_nothing(counting_draws):
    p = parse_protocol(UNDRAWN_STEP)
    res = assert_same_runs(p, cfg(p, A=1, B=1), 30, 6)
    # two passes, one word each per run; the step from (C,D) counts 1
    assert counting_draws == {"passes": 2, "random": 60, "words": 60}
    assert min(res.steps) >= 3 and set(res.consensus) == {1}
    # A A -> B B from A=4: all interactions make the one move, then (A,B)
    # = (2,2) is forced, and B=4 is stable
    counting_draws.clear()
    q = parse_protocol(
        "protocol pairs\nstates: A B\ninputs: x -> A, y -> B\noutput1: B\n"
        "transitions:\n  A A -> B B\n"
    )
    res = assert_same_runs(q, cfg(q, A=4), 30, 6)
    assert counting_draws == {"passes": 1, "random": 30, "words": 30}
    assert min(res.steps) >= 2 and set(res.consensus) == {1}


def test_simulate_stretches_over_three_blocks(counting_draws):
    p = parse_protocol(broadcast())
    res = assert_same_runs(p, cfg(p, t=1, f=39), 600, 3)
    assert len(res.steps) == 600 and set(res.consensus) == {1}
    # one pass per block: 256, 256 and 88 runs of 39 forced steps
    assert counting_draws["passes"] == 3 and counting_draws["words"] == 600 * 39


# S meets U: it becomes I, whose epidemic I U -> I I is forced all the way,
# or J, which takes one more step with two moves to a stable L-configuration
MIXED = (
    "protocol mixed\nstates: S I J L U\ninputs: s -> S, u -> U\noutput1: I J\n"
    "transitions:\n  S U -> I U\n  S U -> J U\n  I U -> I I\n  J U -> L U\n  J U -> L L\n"
)


def test_simulate_block_with_some_runs_forced(counting_draws, monkeypatch):
    # the second step finds the I-runs forced and the J-runs not, so the
    # block steps together; once the J-runs stop, the I-runs take the rest
    # in passes, now kept at other places than their trials.  Their buffers
    # are part-used by then, so the first pass stops short of `_WORDS` steps
    p = parse_protocol(MIXED)
    c0 = cfg(p, S=1, U=150)
    forced = []
    real = V._Forced.advance

    def advance(self, draws, rank, steps, limit):
        forced.append(len(rank))
        return real(self, draws, rank, steps, limit)

    monkeypatch.setattr(V._Forced, "advance", advance)
    res = assert_same_runs(p, c0, 40, 1)
    i_runs = res.consensus.count(1)
    assert 0 < i_runs < 40 and forced == [i_runs, i_runs]
    assert counting_draws["passes"] == 2 and counting_draws["words"] > 149 * i_runs


def assert_forced_paths(p, roots):
    """The jumps and depths of every forced node of the closure of `roots`
    against its path, walked move by move."""
    g = V.explore(p, roots)
    moves = V._Moves(g, V.stable_set(g))
    forced = V._Forced(moves)
    nodes = forced.rank.tolist()
    f = forced.succ.size
    for v, r in enumerate(nodes):
        if r < 0:
            assert moves.count[v] != 1 or moves.logq[v] == 0
            continue
        path = [v]
        while len(path) <= V._WORDS and nodes[path[-1]] >= 0:
            path.append(int(moves.succ[moves.first[path[-1]]]))
        ranks = [nodes[u] if nodes[u] >= 0 else f for u in path]
        ranks += [f] * (V._WORDS + 1 - len(ranks))
        assert forced.succ[r] == path[1] and forced.logq[r] == moves.logq[v]
        assert forced.depth[r] == (ranks.index(f) if f in ranks else V._WORDS)
        for b, jump in enumerate(forced.jump):
            assert jump[r] == ranks[1 << b]
    return forced


def test_forced_paths_match_a_walk(corpus):
    for entry in corpus:
        p = entry.protocol()
        assert_forced_paths(p, V.initial_configurations(p, 8))
    # broadcast's paths are longer than a buffer of words; the cycle's are
    # endless; both stop at `_WORDS`
    p = parse_protocol(broadcast())
    assert assert_forced_paths(p, [cfg(p, t=1, f=199)]).depth.max() == V._WORDS
    p = parse_protocol(FORCED_CYCLE)
    assert assert_forced_paths(p, [cfg(p, A=2, B=1)]).depth.tolist() == [V._WORDS] * 3
    p = parse_protocol(MIXED)
    assert assert_forced_paths(p, [cfg(p, S=1, U=150)]).succ.size == 150


def test_simulate_refuses_closures_whose_moves_overflow(shared_heads, monkeypatch):
    # blocks of 3 runs pass the refusal before exploring; then moves that
    # weigh _SPAN in all are refused with the same message, and with one
    # more unit of room the runs are the reference's
    p = shared_heads
    c0 = cfg(p, A=5, B=4)
    want = reference_simulate(p, c0, 30, 3)
    g = V.explore(p, c0)
    span = int(V._Moves(g, V.stable_set(g)).total.sum())
    monkeypatch.setattr(V, "_BLOCK", 3)
    assert 3 * g.den[0] < span
    monkeypatch.setattr(V, "_SPAN", span)
    with pytest.raises(ValueError, match="9 agents are too many to simulate"):
        V.simulate(p, c0, 30, 3)
    monkeypatch.setattr(V, "_SPAN", span + 1)
    assert V.simulate(p, c0, 30, 3) == want


@settings(max_examples=150, deadline=None)
@given(case=shared_head_protocols())
def test_moves_match_step_row_on_every_node(case):
    # every node of the closure, in the graph's numbering: its count, total
    # and log, its cumulative weights less its offset and its successors'
    # counts are the reference's step row; stop nodes have no moves
    p, c0 = case
    g = V.explore(p, c0)
    stop = V.stable_set(g)
    moves = V._Moves(g, stop)
    base, full = c0.size + 1, g.den[0]
    kernel = StepKernel(p, base)
    key, succ, at, offset = moves.key.tolist(), moves.succ.tolist(), 0, 0
    for v, c in enumerate(g.counts):
        if v in stop:
            assert moves.count[v] == -2
            continue
        w, logq, cum, nexts = step_row(kernel, c, encode(c, base), full)
        count = int(moves.count[v])
        assert (count, int(moves.total[v]), int(moves.offset[v])) == (len(cum), w, offset)
        assert moves.logq[v] == (logq if 0 < w < full else 0)
        assert tuple(x - offset for x in key[at : at + count]) == cum
        assert [g.counts[u] for u in succ[at : at + count]] == [decode(s, base, len(c)) for s in nexts]
        at, offset = at + count, offset + w
    assert at == len(key) == len(succ)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_moves_do_not_depend_on_the_chunk(corpus, monkeypatch, chunk):
    # the 725 nodes of majority-ex2 at n=24, built a few nodes at a time
    p = next(e for e in corpus if e.name == "majority-ex2").protocol()
    g = V.explore(p, initial_configuration(p, {"x": 14, "y": 10}))
    stop = V.stable_set(g)
    want = V._Moves(g, stop)
    monkeypatch.setattr(V, "_CHUNK", chunk)
    got = V._Moves(g, stop)
    for name in ("count", "total", "offset", "logq", "key", "succ"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name


def test_simulate_refuses_sizes_whose_moves_overflow(monkeypatch):
    # a block of _BLOCK nodes, each of weight up to (n^2 - n) L, must stay
    # below _SPAN = 2**63; the size is refused before anything is explored
    p = parse_protocol(broadcast())
    with pytest.raises(ValueError, match="too many to simulate"):
        V.simulate(p, cfg(p, t=1, f=10**20), trials=1, seed=0)
    c0 = cfg(p, t=1, f=9)
    monkeypatch.setattr(V, "_SPAN", V._BLOCK * 90 * p.moves.lcm)
    with pytest.raises(ValueError, match="10 agents are too many"):
        V.simulate(p, c0, trials=1, seed=0)
    monkeypatch.setattr(V, "_SPAN", V._SPAN + 1)
    assert V.simulate(p, c0, trials=1, seed=0).consensus == (1,)


def test_simulate_step_cap_raises_at_the_same_trial(corpus):
    p = next(e for e in corpus if e.name == "majority-ex2").protocol()
    c0 = initial_configuration(p, {"x": 5, "y": 4})
    free = reference_simulate(p, c0, 40, 1)
    # a cap that the first runs stay under but a later one reaches
    cap = max(free.steps[:3]) + 1
    late = next(t for t, k in enumerate(free.steps) if k > cap)
    assert late >= 3
    msg = assert_same_runs(p, c0, 40, 1, max_steps=cap)
    assert msg.startswith(f"trial {late} exceeded {cap} interactions")
    # a run fails exactly when its count exceeds the cap
    top = max(free.steps)
    assert V.simulate(p, c0, 40, 1, max_steps=top) == free
    msg = sim_outcome(V.simulate, p, c0, 40, 1, max_steps=top - 1)
    assert msg.startswith(f"trial {free.steps.index(top)} exceeded {top - 1} interactions")


SWAP_ONLY = (
    "protocol swap\nstates: A B C\ninputs: x -> A, y -> B\noutput1: A C\n"
    "transitions:\n  A B -> B A\n"
)


def test_simulate_stuck_start_raises_without_drawing(counting_draws):
    # the swap changes no count: A=1,B=1,C=1 has no productive move and is
    # not stable, so the run is stuck and must fail before any draw.  The
    # constructor sorts the sides it is given, as the parser does, so both
    # write the swap as A B -> A B
    kept = PopulationProtocol("swap", tuple("ABC"), [((0, 1), (1, 0))], {"x": 0}, {0, 2})
    assert kept.moves.heads[1][3] == ((0, 1, 0, 1),)
    for p in (parse_protocol(SWAP_ONLY), kept):
        for sim in (V.simulate, reference_simulate):
            with pytest.raises(RuntimeError) as err:
                sim(p, cfg(p, A=1, B=1, C=1), trials=3, seed=0)
            assert str(err.value) == (
                "trial 0 stuck at (1, 1, 1) after 0 interactions: "
                "it is not stable, and no interaction changes it"
            )
    assert not counting_draws


# one productive pair (A,B) among n agents: from A=1,B=1 the single
# productive step ends the run, so its count is one geometric gap
GAP = (
    "protocol gap\nstates: A B Z\ninputs: x -> A, y -> B, z -> Z\n"
    "output1: A Z\ntransitions:\n  A B -> A A\n"
)


def test_simulate_gap_is_geometric(counting_draws):
    # the gap's success probability is p = 2 / (n^2 - n)
    p = parse_protocol(GAP)
    # at n = 2 every interaction is productive and there is one move:
    # neither the gap nor the move is drawn
    assert V.simulate(p, cfg(p, A=1, B=1), trials=5, seed=5).steps == (1,) * 5
    assert not counting_draws
    n = 10
    prob = 2 / (n * n - n)
    res = V.simulate(p, cfg(p, A=1, B=1, Z=n - 2), trials=4000, seed=5)
    assert set(res.consensus) == {1}
    steps = np.array(res.steps, dtype=float)
    mean = 1 / prob
    var = (1 - prob) / prob**2
    assert abs(steps.mean() - mean) <= 5 * res.stderr
    # the standard error of a sample variance: sqrt((m4 - s^4) / k)
    m4 = ((steps - steps.mean()) ** 4).mean()
    se_var = math.sqrt((m4 - res.variance**2) / len(steps))
    assert abs(res.variance - var) <= 5 * se_var


# The gap's quotient log(u) / logq comes from numpy's log, which may differ
# from math.log in the last bit; `_gaps` takes math.log where the quotient
# is near an integer, so its floor and its order against every integer are
# math.log's.  No benchmark input comes that near, so these tests build
# quotients that are an integer or one ulp either side of one.


def math_quotients(u, logq):
    """math.log(u) / logq, divided by numpy as `_gaps` divides."""
    return np.array([math.log(x) for x in np.asarray(u).tolist()]) / logq


def nudged(x, k):
    """x moved by k ulps, up if k > 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def integer_side(q):
    """(m, side) if q is an integer m > 0 (side 0) or the float next to one,
    below (-1) or above (1); else None."""
    m = round(q)
    sides = {math.nextafter(m, 0): -1, m: 0, math.nextafter(m, math.inf): 1}
    return (m, sides[q]) if m > 0 and q in sides else None


@pytest.fixture
def counting_log(monkeypatch):
    calls = Counter()

    def log(x):
        calls["log"] += 1
        return math.log(x)

    monkeypatch.setattr(V, "log", log)
    return calls


def test_gaps_take_math_log_at_integer_quotients(counting_log):
    # pairs whose quotient is m, or an ulp from it: logq = log(u) / m, nudged.
    # Half the u are ones where numpy's log differs from math.log, if this
    # host's numpy has any, so that numpy's own quotient misses the floor
    rng = np.random.default_rng(26)
    u = 1.0 - rng.random(20000)
    differs = u[np.log(u) != math_quotients(u, 1.0)]
    us = np.concatenate([differs[:40], u[:40]])
    pairs = [
        (x, lq, m, hit[1])
        for x in us.tolist()
        for m in (1, 2, 3, 7, 40, 1000, 10**6, 2**40 + 1)
        for lq in (nudged(math.log(x) / m, k) for k in range(-2, 3))
        if (hit := integer_side(math.log(x) / lq)) and hit[0] == m
    ]
    u, lq, m, side = (np.array(col) for col in zip(*pairs))
    assert set(side.tolist()) == {-1, 0, 1}
    want = math_quotients(u, lq)
    got = V._gaps(u, lq)
    # every one of them is near an integer: all are taken again by math.log
    assert counting_log["log"] == len(pairs)
    assert got.tolist() == want.tolist()
    for k in (m - 1, m, m + 1):
        assert ((got >= k) == (want >= k)).all()
    assert (got.astype(np.int64) == np.floor(want)).all()
    if differs.size:
        # without the fallback, numpy's quotient would move some floor
        own = np.log(u) / lq
        assert (np.floor(own) != np.floor(want)).any()


# GAP with a second move at (A,B), A B -> A Z, of the same weight: the
# productive weight and so the gap are GAP's, but the start is not forced
GAP_TWO_MOVES = GAP + "  A B -> A Z\n"


def test_simulate_counts_and_caps_integer_quotients_as_math_log(monkeypatch, counting_log):
    # the runs' one step is forced, so they take it in a pass
    assert_integer_quotients_as_math_log(monkeypatch, counting_log, GAP, True)


def test_simulate_counts_and_caps_integer_quotients_in_lockstep(monkeypatch, counting_log):
    assert_integer_quotients_as_math_log(monkeypatch, counting_log, GAP_TWO_MOVES, False)


def assert_integer_quotients_as_math_log(monkeypatch, counting_log, src, forced):
    """Each run's one productive step takes 1 + floor(log(u) / logq)
    interactions; u is fed so that the quotient is an integer or an ulp
    either side, and the counts and the step-cap errors are math.log's."""
    p = parse_protocol(src)
    c0 = cfg(p, A=1, B=1, Z=8)
    lq = float(V._Moves(V.explore(p, c0), set()).logq[0])
    assert lq == math.log1p(-2 / 90)
    # u = exp(m logq) >= 1/2, so the stream's 1 - u gives back u exactly
    near = {nudged(math.exp(m * lq), k) for m in range(1, 31) for k in range(-12, 13)}
    # in the order of their quotients, so that the first trial at or over
    # each cap is the one an ulp from it
    fed = [(x, hit) for x in sorted(near, reverse=True) if (hit := integer_side(math.log(x) / lq))]
    u = np.array([x for x, _ in fed])
    assert (u >= 0.5).all() and {side for _, (m, side) in fed} == {-1, 0, 1}
    assert len(u) <= V._BLOCK
    # the word whose random() is 1 - u: a multiple of 2**-53 below 1/2
    words = ((1.0 - u) * 2**53).astype(np.uint64) << np.uint64(11)
    assert (1.0 - V._unit(words)).tolist() == u.tolist()
    passes = []

    class FedStreams(V.PhiloxStreams):
        # the first word of each trial's stream is fed; the trials fill one
        # block, so a stream's buffer row is its trial
        def _fill(self, empty):
            super()._fill(empty)
            rows = self._row[empty]
            self._buf[rows, 0] = words[rows]

        def randoms(self, most):
            take, u = super().randoms(most)
            passes.append(take.tolist())
            return take, u

    monkeypatch.setattr(V, "PhiloxStreams", FedStreams)
    want = math_quotients(u, lq)
    steps = tuple(int(k) for k in np.floor(want) + 1)
    res = V.simulate(p, c0, len(u), 0)
    assert res.steps == steps and set(res.consensus) == {1}
    assert counting_log["log"] >= len(u)
    # under GAP, A=1,B=1,Z=8 is forced: every run takes its one step in one pass
    assert passes == ([[1] * len(u)] if forced else [])
    for cap in sorted({m for _, (m, side) in fed}):
        late = [t for t, q in enumerate(want.tolist()) if q >= cap]
        got = sim_outcome(V.simulate, p, c0, len(u), 0, max_steps=cap)
        if late:
            assert got.startswith(f"trial {late[0]} exceeded {cap} interactions")
        else:
            assert got == res


def test_gaps_match_math_log_in_bulk(corpus):
    # 10^6 draws against the logq of every row that the benchmark's inputs
    # build: the floors and the orders against integers are math.log's
    lqs = []
    for name, counts in (("majority-ex2", {"x": 14, "y": 10}), ("broadcast", {"one": 1, "zero": 99})):
        p = next(e for e in corpus if e.name == name).protocol()
        c0 = initial_configuration(p, counts)
        logq = V._Moves(V.explore(p, c0), set()).logq
        lqs.append(logq[logq < 0])
    rng = np.random.default_rng(2026)
    lq = rng.choice(np.concatenate(lqs), 10**6)
    u = 1.0 - rng.random(10**6)
    want = math_quotients(u, lq)
    got = V._gaps(u, lq)
    floor = np.floor(want)
    assert (got.astype(np.int64) == floor).all()
    for k in (floor, floor + 1):
        assert ((got >= k) == (want >= k)).all()


# A meets B: both become A or both become B, with equal weight, or they
# swap, an idle rule; the run ends in an A- or a B-consensus
SHARED_SPLIT = (
    "protocol split\nstates: A B\ninputs: x -> A, y -> B\noutput1: A\n"
    "transitions:\n  A B -> A A\n  A B -> B B\n  A B -> B A\n"
)


def test_simulate_law_matches_per_interaction_loop(corpus):
    # different numbers, same law: the mean count and the consensus split
    # agree within 5 standard errors of their difference
    majority = next(e for e in corpus if e.name == "majority-ex2").protocol()
    split = parse_protocol(SHARED_SPLIT)
    for p, c0 in (
        (majority, initial_configuration(majority, {"x": 3, "y": 2})),
        (split, cfg(split, A=3, B=3)),
    ):
        k = 1500
        new = V.simulate(p, c0, k, 11)
        old = per_interaction_simulate(p, c0, k, 12)
        assert abs(new.mean - old.mean) <= 5 * math.hypot(new.stderr, old.stderr)
        f_new = new.consensus.count(1) / k
        f_old = old.consensus.count(1) / k
        se = math.sqrt((f_new * (1 - f_new) + f_old * (1 - f_old)) / k)
        assert abs(f_new - f_old) <= 5 * se
    # the split's runs end either way, so its consensus split is a real test
    assert 0.05 < f_old < 0.95


DRAW_BOUNDS = (2, 3, 9900, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 5, 2**40 + 3, 2**62 + 7)


def draw_calls(order, k):
    """k draws, each a bound from DRAW_BOUNDS or None for a random() call."""
    kinds = DRAW_BOUNDS + (None,)
    return [kinds[i] for i in order.integers(0, len(kinds), k)]


def make_draws(draws, calls):
    return [draws.random() if b is None else draws.integers(b) for b in calls]


@pytest.mark.parametrize("seed", range(20))
def test_philox_draws_match_generator_integers(seed):
    # integers and random calls interleaved; the first three leave a kept
    # 32-bit half across a random() call, which takes a whole word
    calls = [9900, None, 9900] + draw_calls(np.random.default_rng(seed), 200)
    key = (seed << 64) + 5
    rng = np.random.Generator(np.random.Philox(key=key))
    want = [float(rng.random()) if b is None else int(rng.integers(0, b)) for b in calls]
    # three words a batch: refills fall between and inside draws
    assert make_draws(PhiloxDraws(key, batch=3), calls) == want


def test_philox_draws_rekeyed_generator_matches_a_new_one():
    # the scalar loop re-keys one generator per trial; a generator left part-way
    # through a buffer and a kept half must give a new one's numbers
    bits = np.random.Philox(0)
    bits.random_raw(3)
    # bound 2**32 returns each 32-bit half as it is, and no value is
    # rejected, so the first draws show the raw words
    calls = [2**32] * 10 + draw_calls(np.random.default_rng(99), 200)
    for key in (0, 5, 2**64, (7 << 64) + 3, 2**128 - 1):
        want = PhiloxDraws(key, batch=3)
        draws = PhiloxDraws(key, batch=3, bits=bits)
        assert make_draws(draws, calls) == make_draws(want, calls)
        draws.integers(9900)  # leave a kept half behind


# PhiloxStreams, the draws of all the runs of a block, against numpy's own
# Generator calls

STREAM_BOUNDS = (2, 3, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 3 * 2**61 + 1, 2**63)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_philox_streams_match_generator_calls(seed):
    # streams keyed as simulate keys its trials.  On each call a random
    # subset of the streams draws, each a random() or one of the bounds, so
    # a kept 32-bit half is carried across random() calls and across whole
    # words for bounds over 2**32; 2**31 + 1 and 3 * 2**61 + 1 reject about
    # one value in two and one in four, and the sequences refill the words
    keys = [(seed << 64) + t for t in range(10)]
    rngs = [np.random.Generator(np.random.Philox(key=k)) for k in keys]
    draws = V.PhiloxStreams(keys)
    order = np.random.default_rng(seed % 97)
    kinds = STREAM_BOUNDS + (None,)
    for _ in range(400):
        streams = np.flatnonzero(order.random(len(keys)) < 0.7)
        picks = [kinds[i] for i in order.integers(0, len(kinds), len(streams))]
        want = [
            float(rngs[i].random()) if b is None else int(rngs[i].integers(0, b))
            for i, b in zip(streams.tolist(), picks)
        ]
        got = [None] * len(picks)
        floats = [j for j, b in enumerate(picks) if b is None]
        ints = [j for j, b in enumerate(picks) if b is not None]
        for j, x in zip(floats, draws.random(streams[floats]).tolist()):
            got[j] = x
        bounds = np.array([picks[j] for j in ints], np.uint64)
        for j, x in zip(ints, draws.integers(streams[ints], bounds).tolist()):
            got[j] = x
        assert got == want
    assert (draws._taken > V._WORDS).all()


def test_philox_streams_draw_from_every_kept_stream():
    # random() with idx None draws from every stream kept, in place, and
    # `randoms` takes several values per stream, up to its buffer's end;
    # `keep` drops streams, and the others go on with their own words and
    # kept halves
    keys = [(3 << 64) + t for t in range(12)]
    rngs = [np.random.Generator(np.random.Philox(key=k)) for k in keys]
    draws = V.PhiloxStreams(keys)
    order = np.random.default_rng(5)
    alive = list(range(len(keys)))
    short = 0
    for step in range(400):
        if step % 60 == 59:
            kept = order.random(len(alive)) < 0.9
            draws.keep(kept)
            alive = [t for t, k in zip(alive, kept.tolist()) if k]
        kind = order.integers(0, 3)
        if kind == 0:
            want = [float(rngs[t].random()) for t in alive]
            assert draws.random().tolist() == want
        elif kind == 1:
            bounds = [STREAM_BOUNDS[i] for i in order.integers(0, len(STREAM_BOUNDS), len(alive))]
            want = [int(rngs[t].integers(0, b)) for t, b in zip(alive, bounds)]
            streams = np.arange(len(alive))
            assert draws.integers(streams, np.array(bounds, np.uint64)).tolist() == want
        else:
            most = order.integers(1, 40, len(alive))
            take, u = draws.randoms(most)
            # a stream takes fewer than asked only when its buffer runs out
            ended = draws._taken % V._WORDS == 0
            assert ((1 <= take) & (take <= most) & ((take == most) | ended)).all()
            short += int((take < most).sum())
            want = [float(rngs[t].random()) for t, k in zip(alive, take.tolist()) for _ in range(k)]
            assert u.tolist() == want
    assert 0 < len(alive) < len(keys) and short > 0
    assert (draws._taken > 2 * V._WORDS).all()


def test_philox_streams_keep_a_half_per_stream():
    # two streams draw 32-bit values on alternate calls: each keeps its own
    # half, and a stream that draws nothing takes no word
    keys = [7, 8, 9]
    rngs = [np.random.Generator(np.random.Philox(key=k)) for k in keys]
    draws = V.PhiloxStreams(keys)
    for step in range(300):
        i = step % 2
        b = np.array([9900], np.uint64)
        assert draws.integers(np.array([i]), b).tolist() == [int(rngs[i].integers(0, 9900))]
    assert draws._taken.tolist()[2] == 0


# regression protocols found by randomized soundness fuzzing: both once made
# the drain-set analysis claim progress that the chain cannot deliver

FUZZ_SELF_PARTNER = """
protocol fuzz-self-partner
states: A B C
inputs: i0 -> B
output1: A
transitions:
  A C -> B C
  B C -> A B
  B B -> A B
  A A -> B B
"""

# a pair rule on a single state (B B -> A B) stops firing at one B left, so
# B never fully drains; treating B's self-edge as stable claimed it would

FUZZ_UNSTABLE_EXIT = """
protocol fuzz-unstable-exit
states: A B C D E
inputs: i0 -> C, i1 -> E, i2 -> D, i3 -> A
output1: A C E
transitions:
  B B -> A E
  B C -> C E
  C C -> B C
  A E -> C E
  B E -> B B
  B E -> A A
  C D -> B C
"""

# the step that removes the last draining-state agent may be any rule that
# consumes it (here B E -> A A), not only a stable-edge witness; the
# successor formula must cover those exits too


@settings(max_examples=600, deadline=None)
@given(p=small_protocols(min_rules=1))
def test_soundness_fuzz_generated(p):
    # the oracle finds no violation of a built stage tree, and a certified
    # protocol reaches its stable set almost surely from every initial
    # configuration; builds past the stage limit are skipped
    try:
        sg = build_stage_graph(p, max_stages=2000)
    except StageLimitError:
        return
    assert V.check_stage_graph(p, sg, 4) == []
    if aggregate(sg).certified:
        g = V.explore(p, [c for n in (2, 3, 4) for c in V.initial_configurations(p, n)])
        assert roots_reach_almost_surely(g, V.stable_set(g))


@pytest.mark.parametrize("src", [FUZZ_SELF_PARTNER, FUZZ_UNSTABLE_EXIT])
def test_fuzz_found_soundness_regressions(src):
    p = parse_protocol(src)
    sg = build_stage_graph(p)
    assert V.check_stage_graph(p, sg, max_n=4) == []
