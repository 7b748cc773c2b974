"""Stage-tree construction: the fixed points, case analysis, and the tree
shapes of the worked examples."""

import itertools
import json
import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpll_reference as dpll
import formula_reference as tree
from dpll_reference import clause_formula, implies, premise_formula
from formula_reference import (
    atom,
    conj,
    disj,
    evaluation_domain,
    formula_of,
    heads_formula,
    literal_formula,
    neg,
    valuation_formula,
    xi,
)
from stagebound import (
    Configuration,
    aggregate,
    bounds,
    build_stage_graph,
    logic,
    parse_protocol,
    stagegraph,
    to_json_dict,
)
from stagebound.corpus import (
    avg_and_conquer,
    broadcast,
    majority_four_state,
    majority_five_state,
    remainder,
)
from stagebound.logic import (
    Parts,
    Premise,
    enumerate_satisfying_valuations,
    is_tautology,
    literal_names,
    not_xi,
    present,
    single,
    xi_clause,
)
from stagebound.protocol import PopulationProtocol
from stagebound.stagegraph import (
    INTERNAL,
    TERMINAL_DEAD,
    TERMINAL_EXHAUSTED,
    TERMINAL_STABLE,
    Stage,
    StageGraph,
    StageLimitError,
    build_child,
    build_transformation_graph,
    case_analysis,
    classify_nu_mode,
    compute_exp,
    compute_i_and_l,
    compute_j,
    compute_k,
    compute_pi_nu,
    initial_stage,
    is_dead,
    is_stable,
    mn_fixpoint,
    pretty,
    rule_rows,
)
from step_reference import enabled

P1 = parse_protocol(majority_four_state())
P2 = parse_protocol(majority_five_state())


def nu_of(p, true_states, domain=None):
    dom = domain if domain is not None else range(len(p.states))
    return tuple(present(s) if p.states[s] in true_states else -present(s) for s in dom)


def names(p, heads):
    return {tuple(p.states[i] for i in h) for h in heads}


def tree_of(s):
    """The formula tree of stage s, as the build made it: the root (stage
    0) writes its disjunction first."""
    return formula_of(s.phi, s.id == 0)


def test_initial_stage_formulas():
    s1 = initial_stage(P1)
    assert pretty(s1.phi, literal_names(P1.states), root=True) == "(A | B) & !a & !b"
    s2 = initial_stage(P2)
    assert pretty(s2.phi, literal_names(P2.states), root=True) == "(A | B) & !C & !a & !b"
    assert tree.pretty(tree_of(s2), P2.states) == "(A | B) & !C & !a & !b"
    # protocol whose inputs cover all states has no negative conjuncts
    p = parse_protocol(
        "protocol t\nstates: A B\ninputs: x -> A, y -> B\noutput1: A\n"
        "transitions:\n  A B -> A A\n"
    )
    assert pretty(initial_stage(p).phi, literal_names(p.states), root=True) == "A | B"


def states_of(mask):
    """The states of a bitmask over states, as a set."""
    return {s for s in range(mask.bit_length()) if mask >> s & 1}


def test_mn_fixpoint_appendix_example():
    # nu_A keeps {B, a, b} permanently empty; nu_AB pins nothing
    m, n = map(states_of, mn_fixpoint(P1, frozenset(), nu_of(P1, {"A"})))
    assert names(P1, [(x, x) for x in m]) == {("B", "B"), ("a", "a"), ("b", "b")}
    assert n == set()
    m, n = map(states_of, mn_fixpoint(P1, frozenset(), nu_of(P1, {"A", "B"})))
    assert m == set() and n == set()


def test_compute_pi_nu_domains():
    pi_a = compute_pi_nu(P1, frozenset(), nu_of(P1, {"A"}))
    assert pi_a == (present(0), -present(1), -present(2), -present(3))
    pi_ab = compute_pi_nu(P1, frozenset(), nu_of(P1, {"A", "B"}))
    assert pi_ab == ()


def test_all_true_valuation_has_empty_m():
    p = parse_protocol(
        "protocol t\nstates: A B\ninputs: x -> A, y -> B\noutput1: A\n"
        "transitions:\n  A B -> A A\n"
    )
    m, n = map(states_of, mn_fixpoint(p, frozenset(), nu_of(p, {"A", "B"})))
    assert m == set()


def graph(p, pi):
    return build_transformation_graph(p, pi, frozenset())


def child_for(p, nu):
    """The successor build_child derives for nu from a bare parent stage."""
    true = Parts((), frozenset())
    parent = Stage(id=0, phi=true, pi=(), disabled=frozenset(), parent=None)
    return build_child(p, StageGraph(p, [parent]), parent, nu, {}, {true: [()]})


def test_is_stable_example1():
    pi = compute_pi_nu(P1, frozenset(), nu_of(P1, {"A"}))
    assert is_stable(graph(P1, pi)) == 0
    assert is_stable(graph(P1, ())) is None


def test_is_stable_single_state_protocol():
    p = parse_protocol(
        "protocol one\nstates: q\ninputs: x -> q\noutput1: q\ntransitions:\n"
    )
    assert is_stable(graph(p, ())) == 1


def test_is_dead():
    # with every state forbidden, example 1 cannot fire anything
    pi = tuple(-present(s) for s in range(4))
    assert not graph(P1, pi).gen_edges
    assert is_stable(graph(P1, pi)) == 0  # stable (vacuously), not dead
    assert not is_dead(graph(P1, pi), 0)
    child = child_for(P1, nu_of(P1, set()))
    assert child.kind == TERMINAL_STABLE and not child.analysis.dead
    nu2 = nu_of(P1, {"a", "b"}, domain=range(4))
    pi2 = compute_pi_nu(P1, frozenset(), nu2)
    # a,b populated, capitals gone: only "b a -> b b" remains, not dead
    g2 = graph(P1, pi2)
    assert names(P1, [t.lhs for t in g2.gen_edges]) == {("a", "b")}
    assert is_stable(g2) is None
    assert not is_dead(g2, None)
    child2 = child_for(P1, nu2)
    assert child2.kind == INTERNAL and not child2.analysis.dead


def test_dead_requires_not_stable():
    p = parse_protocol(
        "protocol t\nstates: A B C\ninputs: x -> A, y -> B\noutput1: B\n"
        "transitions:\n  A B -> C C\n"
    )
    pi = (-present(0),)  # no A ever again
    # the only rule needs A; B (output 1) and C (output 0) may both linger
    g = graph(p, pi)
    assert is_stable(g) is None and not g.gen_edges
    assert is_dead(g, None)
    child = child_for(p, nu_of(p, {"B", "C"}))
    assert child.kind == TERMINAL_DEAD and child.analysis.dead
    assert child.analysis.stable is None
    # but a state set with a single surviving output is stable, hence not dead
    pi_b = (-present(0), -present(2))
    assert is_stable(graph(p, pi_b)) == 1
    assert not is_dead(graph(p, pi_b), 1)
    child_b = child_for(p, nu_of(p, {"B"}))
    assert child_b.kind == TERMINAL_STABLE and not child_b.analysis.dead
    assert child_b.analysis.stable == 1


def graph_edges(g):
    """The edges of a transformation graph: those of its rules."""
    return {e for es in g.gen_edges.values() for e in es}


def test_transformation_graph_fig_left():
    g = build_transformation_graph(P1, (), frozenset())
    edges = names(P1, graph_edges(g))
    assert edges == {
        ("A", "a"), ("A", "b"), ("B", "a"), ("B", "b"), ("a", "b"), ("b", "a"),
    }
    assert compute_exp(g) == frozenset({(0, 1)})  # {A,B}


def test_transformation_graph_fig_right():
    g = build_transformation_graph(P2, (), frozenset())
    edges = names(P2, graph_edges(g))
    assert edges == {
        ("A", "C"), ("A", "b"), ("B", "C"), ("B", "b"),
        ("C", "a"), ("C", "b"), ("a", "b"), ("b", "a"),
    }
    exp = compute_exp(g)
    assert names(P2, exp) == {("A", "B"), ("A", "C"), ("B", "C")}


def test_transformation_graph_all_disabled():
    pi = (-present(0), -present(1), -present(2))  # no capitals, no a either
    g = build_transformation_graph(P1, pi, frozenset())
    assert g.gen_edges == {}
    assert len(set(g.scc.values())) == len(g.vertices)


def test_compute_j_examples():
    g1 = build_transformation_graph(P1, (), frozenset())
    exp1 = compute_exp(g1)
    assert compute_j(g1, exp1) == exp1  # {AB}
    g2 = build_transformation_graph(P2, (), frozenset())
    exp2 = compute_exp(g2)
    assert compute_j(g2, exp2) == exp2  # {AB, AC, BC}
    assert compute_j(g1, frozenset()) == frozenset()


def test_graph_query_decided_by_a_head_clause():
    # s is present and {x,s} is disabled, so x is absent and "x y" cannot
    # fire; only the xi clause of {x,s} in the graph's premise says so
    p = parse_protocol(
        "protocol h\nstates: x y s z\ninputs: i -> x, j -> y\noutput1: z\n"
        "transitions:\n  x y -> z z\n  x s -> z z\n"
    )
    x, s = p.states.index("x"), p.states.index("s")
    g = build_transformation_graph(p, (present(s),), frozenset({(x, s)}))
    assert g.gen_edges == {}


def test_j_query_decided_by_a_head_clause():
    # s is present, and the only rule "u z -> x z" produces x, which
    # re-enables {x,y} when y is present.  Disabling {u,s}, a head of the
    # round, keeps u absent, so the rule cannot fire and both heads stay in
    # J; only the xi clause of {u,s} in the round's premise says so
    p = parse_protocol(
        "protocol j\nstates: x y u s z\ninputs: i -> u, j -> z\noutput1: x\n"
        "transitions:\n  u z -> x z\n"
    )
    x, y, u, s = (p.states.index(q) for q in "xyus")
    pi = (present(s),)
    g = build_transformation_graph(p, pi, frozenset())
    exp = frozenset({(x, y), (u, s)})
    assert compute_j(g, exp) == exp
    assert reference_compute_j(p, pi, frozenset(), exp) == exp


def test_classify_nu_mode():
    j = frozenset({(0, 1)})  # {A,B}
    assert classify_nu_mode(nu_of(P1, {"A", "B"}), j) == "nu-enabled"
    assert classify_nu_mode(nu_of(P1, {"B"}), j) == "nu-disabled"
    assert classify_nu_mode(nu_of(P1, {"A", "B"}), frozenset()) == "neither"


def test_compute_k_examples():
    g1 = build_transformation_graph(P1, (), frozenset())
    k1 = compute_k(g1, compute_j(g1, compute_exp(g1)))
    assert names(P1, k1) == {("a", "b")}
    g2 = build_transformation_graph(P2, (), frozenset())
    k2 = compute_k(g2, compute_j(g2, compute_exp(g2)))
    assert names(P2, k2) == {("C", "b"), ("A", "a"), ("B", "b")}


def test_compute_i_and_l_edgeless():
    pi = tuple(-present(s) for s in (0, 1, 2))
    g = build_transformation_graph(P1, pi, frozenset())
    i_states, l = compute_i_and_l(g)
    assert i_states == frozenset() and l == frozenset()


def test_compute_i_and_l_single_stable_edge():
    # inside example 1 after the first split: A persists, so the edge b -> a
    # from "A b -> A a" is stable and b must drain
    pi = compute_pi_nu(
        P1, frozenset({(0, 1)}), nu_of(P1, {"A", "a", "b"})
    )
    g = build_transformation_graph(P1, pi, frozenset({(0, 1)}))
    i_states, l = compute_i_and_l(g)
    assert {P1.states[s] for s in i_states} == {"b"}
    assert names(P1, l) == {("A", "a")}


def test_compute_i_and_l_cycle_is_bottom():
    # with nothing persistent there are no stable edges at all
    g = build_transformation_graph(P1, (), frozenset())
    i_states, l = compute_i_and_l(g)
    assert i_states == frozenset()


def splits_of(sg):
    """The split of every stage formula of a tree, by formula."""
    return {s.phi: enumerate_satisfying_valuations(sg.protocol, s.phi) for s in sg.stages}


def test_build_child_stable_and_redundant():
    sg_partial = build_stage_graph(P1, max_stages=1000)
    splits = splits_of(sg_partial)
    root = sg_partial.stages[0]
    child = build_child(P1, sg_partial, root, nu_of(P1, {"A"}), {}, splits)
    assert child is not None and child.kind == TERMINAL_STABLE
    # redundancy: re-deriving the same successor from an identical stage is
    # suppressed (S' = S case)
    s1 = sg_partial.stages[root.children[0]]
    kids = [build_child(P1, sg_partial, s1, nu, {}, splits) for nu in splits[s1.phi]]
    survivors = [k for k in kids if k is not None]
    assert len(survivors) == len(s1.children)


def test_stage_counts_worked_examples(corpus_graphs):
    assert len(corpus_graphs["broadcast"].stages) == 5
    assert len(corpus_graphs["majority-ex1"].stages) == 11
    assert len(corpus_graphs["majority-ex2"].stages) == 13
    assert len(corpus_graphs["majority-ex1-no-tiebreak"].stages) == 9


def test_tie_free_variant_has_dead_terminal(corpus_graphs):
    kinds = {s.kind for s in corpus_graphs["majority-ex1-no-tiebreak"].stages}
    assert TERMINAL_DEAD in kinds


def test_stage_invariants(corpus_graphs):
    for name in ("broadcast", "majority-ex1", "majority-ex2", "remainder-m3"):
        sg = corpus_graphs[name]
        p = sg.protocol
        for s in sg.stages:
            base = conj([valuation_formula(s.pi), heads_formula(s.disabled)])
            assert dpll.tautology(implies(tree_of(s), base)), (name, s.id)
            if s.parent is not None:
                parent = sg.stages[s.parent]
                assert s.disabled >= parent.disabled
                assert set(s.pi) >= set(parent.pi)
            if s.analysis is not None:
                assert s.analysis.j <= s.analysis.exp


def test_no_root_path_repeats(corpus_graphs):
    # the redundancy rule guarantees no two stages on one root path share
    # (pi, T) with implied formulas
    for sg in corpus_graphs.values():
        for s in sg.stages:
            if s.kind != "internal":
                continue
            for anc in sg.path_to_root(s.id)[1:]:
                if anc.pi == s.pi and anc.disabled == s.disabled:
                    assert not dpll.tautology(implies(tree_of(anc), tree_of(s)))


def test_determinism_identical_json():
    p = parse_protocol(majority_five_state())
    j1 = json.dumps(to_json_dict(build_stage_graph(p)), sort_keys=True)
    j2 = json.dumps(to_json_dict(build_stage_graph(p)), sort_keys=True)
    assert j1 == j2


def partial_tree(exc):
    """The tree a build had made when it raised `exc`, a StageLimitError:
    the `sg` of the frame that raised it."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_locals["sg"]


def test_stage_limit_error():
    with pytest.raises(StageLimitError, match="stage limit 3 exceeded") as exc:
        build_stage_graph(parse_protocol(majority_five_state()), max_stages=3)
    assert len(partial_tree(exc.value).stages) == 3


def test_broadcast_tree_shape(corpus_graphs):
    sg = corpus_graphs["broadcast"]
    root = sg.stages[0]
    assert len(root.children) == 3
    kinds = sorted(sg.stages[c].kind for c in root.children)
    assert kinds.count(TERMINAL_STABLE) == 2


# ---------------------------------------------------------------------------
# The transformation graph decides which rules can still fire; stable, dead
# and J read that decision.  The references below ask the plain per-rule
# entailment instead, under the premise pi_nu & T built here.


def reference_gen_edges(p, pi_nu, disabled):
    base = conj([valuation_formula(pi_nu), heads_formula(disabled)])
    return {t for t in p.non_idle if not dpll.tautology(implies(base, xi(t.lhs)))}


def reference_is_stable(p, pi_nu, disabled):
    base = conj([valuation_formula(pi_nu), heads_formula(disabled)])
    allowed = [s for s in range(len(p.states)) if -present(s) not in pi_nu]
    for x in (0, 1):
        if any(p.output(s) != x for s in allowed):
            continue
        if all(
            {p.output(s) for s in t.rhs} == {x}
            or dpll.tautology(implies(base, xi(t.lhs)))
            for t in p.non_idle
        ):
            return x
    return None


def reference_compute_j(p, pi_nu, disabled, exp):
    """compute_j checking every non-idle rule, each by its own query."""

    def blocked(guard, lhs):
        return dpll.tautology(implies(guard, xi(lhs)))

    def head_ok(ef, m):
        e, f = ef
        base = conj([valuation_formula(pi_nu), heads_formula(disabled), heads_formula(m)])
        for t in p.non_idle:
            if t.rhs == ef:
                if not blocked(base, t.lhs):
                    return False
                continue
            for prod, partner in ((e, f), (f, e)) if e != f else ((e, f),):
                if prod not in t.rhs:
                    continue
                if e != f:
                    guard = conj(
                        [neg(atom(present(prod))), atom(present(partner)), base]
                    )
                    if not blocked(guard, t.lhs):
                        return False
                elif e not in t.lhs and not blocked(
                    conj([atom(single(e)), base]), t.lhs
                ):
                    return False
        return True

    m = set(exp)
    while True:
        keep = {ef for ef in m if head_ok(ef, m)}
        if keep == m:
            return frozenset(m)
        m = keep


def reference_classify_nu_mode(p, nu, j):
    """classify_nu_mode by the clause DPLL, under the premise of nu."""
    if not j:
        return "neither"
    nu_p = dpll.ClausePremise(valuation_formula(nu))
    if all(dpll.entails(xi(h), nu_p) for h in j):
        return "nu-disabled"
    if any(dpll.entails(neg(xi(h)), nu_p) for h in j):
        return "nu-enabled"
    return "neither"


def test_graph_reads_match_per_rule_entailment_on_corpus(corpus_graphs):
    # every stage, not one per distinct (T, nu): stages share an analysis
    for name, sg in corpus_graphs.items():
        p = sg.protocol
        for s in sg.stages:
            ca = s.analysis
            if ca is None:
                continue
            args = (p, s.pi, sg.stages[s.parent].disabled)
            g = build_transformation_graph(*args)  # as build_child built it
            assert set(g.gen_edges) == reference_gen_edges(*args), (name, s.id)
            assert_products_are_vertices(g)
            assert ca.stable == reference_is_stable(*args), (name, s.id)
            if ca.stable is None and not ca.dead:
                assert ca.j == reference_compute_j(*args, ca.exp), (name, s.id)
                expect = reference_classify_nu_mode(p, ca.nu, ca.j)
                assert classify_nu_mode(ca.nu, ca.j) == expect, (name, s.id)


def assert_products_are_vertices(g):
    # a rule that can still fire produces no state of M (is_very_fast
    # reads the SCC of both products without a guard)
    for t in g.gen_edges:
        assert set(t.rhs) <= set(g.vertices), t


def all_heads(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


@st.composite
def small_protocols(draw, min_rules=0):
    """A protocol of 2-4 states and at most 6 rules, with one or two
    input states.  Rule sides come unsorted, as the constructor takes
    them."""
    n = draw(st.integers(2, 4))
    side = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    rule = st.tuples(side, side)
    rules = draw(st.lists(rule, min_size=min_rules, max_size=6))
    output1 = frozenset(draw(st.sets(st.integers(0, n - 1))))
    inputs = {"x": 0, "y": 1} if draw(st.booleans()) else {"x": 0}
    return PopulationProtocol("gen", tuple("ABCD"[:n]), rules, inputs, output1)


@settings(max_examples=60, deadline=None)
@given(p=small_protocols())
def test_head_semantics_has_one_owner(p):
    # xi, the xi clause of the premises, classify_nu_mode's reading and
    # not_xi agree with "a rule of the head can fire" on every consistent
    # total valuation: each state absent, with exactly one agent, or more
    n = len(p.states)
    heads = all_heads(n)
    for counts in itertools.product(range(3), repeat=n):
        c = Configuration(counts)
        nu = []
        for s, k in enumerate(counts):
            nu.append(present(s) if k > 0 else -present(s))
            nu.append(single(s) if k == 1 else -single(s))
        nu = tuple(nu)
        held = set(nu)
        fires = {}
        for h in heads:
            x, y = h
            fires[h] = counts[x] >= 2 if x == y else counts[x] > 0 and counts[y] > 0
            assert all(enabled(c, t) == fires[h] for t in p.rules_by_head.get(h, ()))
            bits = {abs(x): int(x > 0) for x in nu}
            assert (logic.evaluate(Parts((), frozenset({h})), bits) & 1) == (not fires[h])
            assert (tree.evaluate(xi(h), bits) & 1) == (not fires[h])
            assert any(lit in held for lit in xi_clause(h)) == (not fires[h])
            assert (set(not_xi(h)) <= held) == fires[h]
            assert (Premise.horn(p, held, frozenset({h})).base is None) == fires[h]
            mode = classify_nu_mode(nu, frozenset({h}))
            assert mode == ("nu-enabled" if fires[h] else "nu-disabled")
        mode = classify_nu_mode(nu, frozenset(heads))
        assert mode == ("nu-enabled" if any(fires.values()) else "nu-disabled")


@st.composite
def small_cases(draw):
    """A small protocol with a consistent persistent valuation, disabled
    heads T and a head set for J."""
    p = draw(small_protocols())
    n = len(p.states)
    heads = all_heads(n)
    pi = []
    for s in range(n):
        here = draw(st.sampled_from([None, False, True]))
        # a singleton atom may be true only where presence is not false
        one = draw(st.sampled_from([None, False] + [True] * (here is not False)))
        if here is not None:
            pi.append(present(s) if here else -present(s))
        if one is not None:
            pi.append(single(s) if one else -single(s))
    heads_st = st.frozensets(st.sampled_from(heads))
    return p, tuple(pi), draw(heads_st), draw(heads_st)


@settings(max_examples=300, deadline=None)
@given(case=small_cases())
def test_graph_reads_match_per_rule_entailment_generated(case):
    p, pi, disabled, exp = case
    g = build_transformation_graph(p, pi, disabled)
    assert set(g.gen_edges) == reference_gen_edges(p, pi, disabled)
    assert is_stable(g) == reference_is_stable(p, pi, disabled)
    assert compute_j(g, exp) == reference_compute_j(p, pi, disabled, exp)
    # classify_nu_mode reads the valuations of a split, which are
    # consistent and fix A wherever they fix A!
    split = enumerate_satisfying_valuations(p, Parts((pi,), frozenset()))
    for nu in split[:8]:
        expect = reference_classify_nu_mode(p, nu, exp)
        assert classify_nu_mode(nu, exp) == expect
    # the stage-tree build only hands the graph a pi_nu that is closed
    # under the M/N fixpoint; a random pi need not be
    pi_nu = compute_pi_nu(p, disabled, pi)
    g = build_transformation_graph(p, pi_nu, disabled)
    assert_products_are_vertices(g)
    # J from the Exp of the graph, as the build asks it: heads drop out
    # over several rounds more often than from a random head set
    exp = compute_exp(g)
    assert compute_j(g, exp) == reference_compute_j(p, pi_nu, disabled, exp)


# ---------------------------------------------------------------------------
# The transformation graph keeps its edges once, per rule, in `gen_edges`.
# The references below are the earlier edge-indexed forms: each edge mapped
# to the rules generating it, the SCCs taken over that index's keys, and
# the stable edges and L read off it.


def reference_edge_index(g):
    """Each edge of the graph mapped to the rules generating it, in the
    order the rules come."""
    edges = {}
    for t, es in g.gen_edges.items():
        for e in es:
            edges.setdefault(e, []).append(t)
    return edges


def reference_compute_i_and_l(p, g):
    edges = reference_edge_index(g)
    pi_nu = g.premise.units
    stable_edges = set()
    for (x, y), ts in edges.items():
        for t in ts:
            a, b = t.lhs
            partner = b if a == x else a
            if partner != x and present(partner) in pi_nu:
                stable_edges.add((x, y))
                break
    scc, bottom = stagegraph._scc_and_bottom(p, g.vertices, stable_edges)
    i_states = frozenset(v for v in g.vertices if scc[v] not in bottom)
    l = set()
    for (x, y), ts in edges.items():
        if x in i_states and y not in i_states:
            for t in ts:
                l.add(t.rhs)
    return i_states, frozenset(l)


def partition(scc, bottom):
    """The components of an SCC map as sets of vertices, and those of the
    bottom ids: the same for any numbering of the components."""
    members = {}
    for v, c in scc.items():
        members.setdefault(c, set()).add(v)
    parts = {c: frozenset(vs) for c, vs in members.items()}
    return set(parts.values()), {parts[c] for c in bottom}


def assert_edge_reads_match_index(p, g):
    scc, bottom = stagegraph._scc_and_bottom(p, g.vertices, reference_edge_index(g))
    assert partition(g.scc, g.bottom) == partition(scc, bottom)
    got = compute_i_and_l(g)
    assert got == reference_compute_i_and_l(p, g)
    return got


def test_edge_reads_match_edge_index_on_corpus(corpus_graphs):
    # every distinct case analysis, under the graph the build made for it
    count = 0
    for name, sg in corpus_graphs.items():
        p = sg.protocol
        seen = set()
        for s in sg.stages:
            ca = s.analysis
            if ca is None or id(ca) in seen:
                continue
            seen.add(id(ca))
            g = build_transformation_graph(p, s.pi, sg.stages[s.parent].disabled)
            i_states, l = assert_edge_reads_match_index(p, g)
            if ca.stable is None and not ca.dead and not ca.exp:
                assert (ca.i_states, ca.l) == (i_states, l), (name, s.id)
                count += 1
    # the corpus has case analyses without SCC-crossing rules
    assert count


@settings(max_examples=300, deadline=None)
@given(case=small_cases())
def test_edge_reads_match_edge_index_generated(case):
    p, pi, disabled, _ = case
    # a pi_nu closed under the M/N fixpoint, as the build passes, and the
    # drawn pi as it is
    for units in (compute_pi_nu(p, disabled, pi), pi):
        assert_edge_reads_match_index(p, build_transformation_graph(p, units, disabled))


# ---------------------------------------------------------------------------
# build_stage_graph splits each distinct formula once on literal closures,
# derives each distinct (T, nu) case analysis once, and prunes a child by
# evaluating its formula over an ancestor's split.  The reference build
# below splits every stage by the clause DPLL, derives every child afresh,
# and prunes by asking the DPLL whether the ancestor's formula implies the
# child's.


def reference_build_stage_graph(p, max_stages=100_000):
    sg = StageGraph(protocol=p, stages=[initial_stage(p)])
    work = deque([0])
    while work:
        stage = sg.stages[work.popleft()]
        if stage.kind != INTERNAL:
            continue
        for nu in dpll.enumerate_satisfying_valuations(tree_of(stage)):
            if len(sg.stages) >= max_stages:
                raise StageLimitError(f"stage limit {max_stages} exceeded", sg)
            succ = case_analysis(p, stage.disabled, nu)
            child = Stage(
                id=len(sg.stages),
                phi=succ.phi,
                pi=succ.pi,
                disabled=succ.disabled,
                parent=stage.id,
                kind=succ.kind,
                analysis=succ.analysis,
            )
            if child.kind == INTERNAL and any(
                anc.pi == child.pi
                and anc.disabled == child.disabled
                and dpll.tautology(implies(tree_of(anc), tree_of(child)))
                for anc in sg.path_to_root(stage.id)
            ):
                continue
            sg.stages.append(child)
            stage.children.append(child.id)
            if child.kind == INTERNAL:
                work.append(child.id)
        if not stage.children:
            stage.kind = TERMINAL_EXHAUSTED
    return sg


def tree_or_partial(build, p, **limit):
    """The JSON tree of a build, and whether it stopped at the stage limit."""
    try:
        return to_json_dict(build(p, **limit)), False
    except StageLimitError as exc:
        return to_json_dict(partial_tree(exc)), True


def test_build_matches_unmemoised_reference_on_corpus(corpus_graphs):
    for name, sg in corpus_graphs.items():
        ref = reference_build_stage_graph(sg.protocol)
        assert to_json_dict(sg) == to_json_dict(ref), name
        # stopped halfway, both builds give the same partial tree
        half = {"max_stages": len(sg.stages) // 2}
        got = tree_or_partial(build_stage_graph, sg.protocol, **half)
        assert got[1], name
        assert got == tree_or_partial(reference_build_stage_graph, sg.protocol, **half)


@settings(max_examples=300, deadline=None)
@given(p=small_protocols(min_rules=3))
def test_build_matches_unmemoised_reference_generated(p):
    got = tree_or_partial(build_stage_graph, p, max_stages=200)
    assert got == tree_or_partial(reference_build_stage_graph, p, max_stages=200)


def fuzzed_protocols(seed, count):
    """`count` protocols of 2-5 states and 1-10 rules with unsorted sides,
    one or two input states and any outputs, from one seeded stream."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, 5)
        sides = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * rng.randint(1, 10))]
        rules = list(zip(sides[::2], sides[1::2]))
        inputs = {"x": 0, "y": 1} if rng.random() < 0.5 else {"x": 0}
        output1 = frozenset(s for s in range(n) if rng.random() < 0.5)
        yield PopulationProtocol(f"fuzz{i}", tuple("ABCDE"[:n]), rules, inputs, output1)


def test_valuations_are_canonical(corpus_graphs):
    # valuations are compared as tuples: by the (T, nu) memo of the build,
    # by pruning's pi comparison and by the oracle's stage triples.  That is
    # right only if every valuation lists its literals sorted by variable,
    # each variable once
    trees = list(corpus_graphs.values())
    for p in fuzzed_protocols(2, 300):
        try:
            trees.append(build_stage_graph(p, max_stages=200))
        except StageLimitError as exc:
            trees.append(partial_tree(exc))
    for sg in trees:
        for s in sg.stages:
            vals = [s.pi, *s.phi.units]
            if s.analysis is not None:
                vals.append(s.analysis.nu)
            for val in vals:
                variables = [abs(x) for x in val]
                ok = all(a < b for a, b in zip(variables, variables[1:]))
                assert ok, (sg.protocol.name, s.id, val)


def test_pruning_agrees_with_dpll_on_fuzzed_protocols(monkeypatch):
    # every pruning decision of 2,000 builds, asked again of the clause DPLL
    # as "the ancestor's formula implies the child's"; the corpus asks none
    split_of = {}  # id(split) -> the formula it splits
    decisions = []
    split, holds = stagegraph.enumerate_satisfying_valuations, stagegraph.holds_throughout

    def recording_split(p, phi):
        vals = split(p, phi)
        split_of[id(vals)] = phi
        return vals

    def recording_holds(phi, vals):
        got = holds(phi, vals)
        decisions.append((split_of[id(vals)], phi, got))
        return got

    monkeypatch.setattr(stagegraph, "enumerate_satisfying_valuations", recording_split)
    monkeypatch.setattr(stagegraph, "holds_throughout", recording_holds)
    for p in fuzzed_protocols(1, 2000):
        try:
            build_stage_graph(p, max_stages=200)
        except StageLimitError:
            pass
    monkeypatch.undo()
    assert {got for *_, got in decisions} == {True, False}
    extra = 0
    for anc, phi, got in decisions:
        # the root's tree writes its conjuncts in another order, to the
        # same effect
        f, anc_f = formula_of(phi), formula_of(anc)
        assert got == dpll.tautology(implies(anc_f, f)), (anc, phi)
        extra += not set(evaluation_domain(f)) <= set(evaluation_domain(anc_f))
    # some children name atoms outside their ancestor's split
    assert extra


def test_closure_path_matches_dpll_on_remainder_m7(monkeypatch):
    # every entailment query of a 1,351-stage build, compute_j's guarded
    # ones and is_fast's included, asked again of the clause DPLL under the
    # formula of its premise
    queries = []
    inside = []  # the compute_j call under way, if any
    compute_j = stagegraph.compute_j

    def recording(kind):
        def ask(goal, premise):
            queries.append(("compute_j" if inside else kind, goal, premise))
            return logic.is_tautology(goal, premise)

        return ask

    def recording_j(*args):
        inside.append(True)
        try:
            return compute_j(*args)
        finally:
            inside.pop()

    guarded = set()  # ids of the premises compute_j extends with units
    with_units = Premise.with_units

    def recording_with_units(self, extra):
        pr = with_units(self, extra)
        if inside:
            guarded.add(id(pr))
        return pr

    monkeypatch.setattr(stagegraph, "is_tautology", recording("build"))
    monkeypatch.setattr(stagegraph, "compute_j", recording_j)
    monkeypatch.setattr(Premise, "with_units", recording_with_units)
    monkeypatch.setattr(bounds, "is_tautology", recording("is_fast"))
    sg = build_stage_graph(parse_protocol(remainder(7)))
    monkeypatch.undo()
    assert len(sg.stages) == 1351
    assert aggregate(sg).overall.label == "n^2*log n"
    assert len(queries) > 1000
    assert {kind for kind, *_ in queries} == {"build", "compute_j", "is_fast"}
    # J asks some goals under its round's premise with a guard added
    assert any(id(pr) in guarded for kind, _, pr in queries if kind == "compute_j")
    translated = {}
    for kind, goal, premise in queries:
        f = premise_formula(premise)
        ref = translated.get(f)
        if ref is None:
            ref = translated[f] = dpll.ClausePremise(f)
        goal_f = clause_formula(goal)
        assert is_tautology(goal, premise) == dpll.entails(goal_f, ref), (
            kind,
            tree.pretty(goal_f, sg.protocol.states),
        )
    seen = set()
    for s in sg.stages:
        ca = s.analysis
        if ca is not None and ca.exp and id(ca) not in seen:
            seen.add(id(ca))
            mode = classify_nu_mode(ca.nu, ca.j)
            assert mode == reference_classify_nu_mode(sg.protocol, ca.nu, ca.j)


# ---------------------------------------------------------------------------
# The case analysis builds its premises from literals and head sets, reads
# the M/N fixpoint off per-rule state masks and splits is_fast into Horn
# premises.  The references below are the earlier forms: the rule-scanning
# fixpoint over sets of states and is_fast's DPLL query under "some head of
# Exp is enabled".


def head_blocked(lhs, disabled, m, n):
    """Syntactic check that no rule with this head can fire: it needs a
    state of M, is disabled, or needs two agents of a singleton state."""
    x, y = lhs
    if x in m or y in m:
        return True
    if lhs in disabled:
        return True
    return x == y and x in n


def reference_mn_fixpoint(p, disabled, nu):
    """Greatest fixed point (M, N): states provably never populated again /
    forever holding exactly one agent, for configurations satisfying nu with
    the given permanently disabled heads."""
    m = {s for s in range(len(p.states)) if -present(s) in nu}
    n = {s for s in range(len(p.states)) if single(s) in nu}

    def m_ok(a, m, n):
        # every rule putting `a` on its right-hand side must be unfireable
        return all(
            head_blocked(t.lhs, disabled, m, n) for t in p.non_idle if a in t.rhs
        )

    def n_ok(a, m, n):
        for t in p.non_idle:
            x, y = t.lhs
            c, d = t.rhs
            if a in (x, y):
                if x == y:
                    continue  # needs two a-agents; cannot fire with one
                # consuming the unique a-agent is fine only if exactly one
                # a comes back out
                if (c == a) + (d == a) != 1:
                    other = y if x == a else x
                    if other not in m and t.lhs not in disabled:
                        return False
            elif a in (c, d):
                # produces an extra a-agent without consuming one
                if not head_blocked(t.lhs, disabled, m, n):
                    return False
        return True

    while True:
        m2 = {a for a in m if m_ok(a, m, n)}
        n2 = {a for a in n if n_ok(a, m, n)}
        if m2 == m and n2 == n:
            return m, n
        m, n = m2, n2


def reference_compute_pi_nu(p, disabled, nu):
    """Extend the persistent valuation with the permanent part of nu: each
    literal set here overrides the one its variable had."""
    m, n = reference_mn_fixpoint(p, disabled, nu)
    pi = {}
    for a in sorted(m):
        pi[present(a)] = -present(a)
    # E: states with exactly one agent because no still-enabled rule
    # consumes their unique agent without restoring it.
    for a in range(len(p.states)):
        if present(a) not in nu:
            continue
        if all(
            head_blocked(t.lhs, disabled, m, n)
            for t in p.non_idle
            if a in t.lhs and a not in t.rhs
        ):
            pi[present(a)] = present(a)
    for a in sorted(n):
        pi[present(a)] = present(a)
        pi[single(a)] = single(a)
    return tuple(pi[v] for v in sorted(pi))


def reference_is_fast(p, g, exp, u_states):
    """Whenever a draining state is still present and not every crossing rule
    is disabled, some crossing rule on that very state must be enabled."""
    base = dpll.ClausePremise(premise_formula(g.premise)).conj(neg(heads_formula(exp)))
    for a in sorted(u_states):
        exp_a = [h for h in sorted(exp) if a in h]
        cons = disj([neg(xi(h)) for h in exp_a])
        if not dpll.entails(implies(atom(present(a)), cons), base):
            return False
    return True


@st.composite
def valuations(draw, p):
    """Any partial assignment to the presence and singleton variables of
    p, consistent or not, as its literals sorted by variable."""
    nu = []
    for v in range(1, 2 * len(p.states) + 1):
        value = draw(st.sampled_from([None, False, True]))
        if value is not None:
            nu.append(v if value else -v)
    return tuple(nu)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_indexed_fixpoint_matches_reference_generated(data):
    p = data.draw(small_protocols())
    disabled = data.draw(st.frozensets(st.sampled_from(all_heads(len(p.states)))))
    nu = data.draw(valuations(p))
    got = tuple(map(states_of, mn_fixpoint(p, disabled, nu)))
    assert got == reference_mn_fixpoint(p, disabled, nu)
    got = compute_pi_nu(p, disabled, nu)
    expect = reference_compute_pi_nu(p, disabled, nu)
    assert got == expect


def mask(states):
    """The bitmask of a collection of states."""
    return sum(1 << s for s in set(states))


@settings(max_examples=300, deadline=None)
@given(p=small_protocols(), data=st.data())
def test_rule_rows_match_per_rule_recomputation(p, data):
    # the rows the fixpoint, the E test and the transformation graph read,
    # against each rule's masks, edges and xi clause worked out on their own
    disabled = data.draw(st.frozensets(st.sampled_from(all_heads(len(p.states)))))
    rows = rule_rows(p, disabled)
    assert rule_rows(p, disabled) is rows  # once per protocol and T
    live = [t for t in p.non_idle if t.lhs not in disabled]
    masks, rules = [], []
    for t in live:
        (x, y), lhs, rhs = t.lhs, set(t.lhs), set(t.rhs)
        masks.append((mask(lhs), mask([x]) if x == y else 0, mask(rhs), mask(rhs - lhs), mask(lhs - rhs)))
        # the residue: what the rule takes and gives beyond what it keeps
        took = Counter(t.lhs) - Counter(t.rhs)
        gave = Counter(t.rhs) - Counter(t.lhs)
        edges = tuple(sorted({(a, b) for a in took for b in gave if a != b}))
        rules.append((t, mask(lhs), edges, xi_clause(t.lhs)))
    assert rows.masks == masks
    assert rows.rules == rules
    assert rows.xi == {t.lhs: xi_clause(t.lhs) for t in p.non_idle}
    for a in range(len(p.states)):
        partners = [
            b
            for t in live
            for b in t.lhs
            if t.lhs[0] != t.lhs[1] and a in t.lhs and b != a and t.rhs.count(a) != 1
        ]
        assert rows.used[a] == mask(partners), a


def unmemoised_entails(p, units, heads, goal):
    """is_tautology worked out afresh: unit propagation from the units and
    the negated goal over the premise's binary clauses (the xi clause of
    each head and every coupling A! -> A), keeping nothing between calls."""
    clauses = [(-single(s), present(s)) for s in range(len(p.states))]
    clauses += [xi_clause(h) for h in heads]
    succ = {}
    for a, b in clauses:
        succ.setdefault(-a, []).append(b)
        succ.setdefault(-b, []).append(a)
    seen = set(units) | {-lit for lit in goal}
    todo = list(seen)
    for x in todo:
        for y in succ.get(x, ()):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return any(-x in seen for x in seen)


@settings(max_examples=300, deadline=None)
@given(p=small_protocols(), data=st.data())
def test_goal_memo_matches_unmemoised_closure_generated(p, data):
    # is_tautology answers from the goal memo of the premise's graph; each
    # answer is checked against propagation from scratch, asked twice,
    # with the goal's literals in either order, and under premises derived
    # by with_units and with_heads, which share their graph with others
    n = len(p.states)
    lit = st.tuples(st.integers(1, 2 * n), st.booleans()).map(lambda x: x[0] if x[1] else -x[0])
    heads = st.frozensets(st.sampled_from(all_heads(n)), max_size=3)
    clause = st.lists(lit, min_size=1, max_size=3).map(tuple)
    xis = st.sampled_from(all_heads(n)).map(xi_clause)
    goals = data.draw(st.lists(st.one_of(clause, xis), min_size=1, max_size=6))
    units, t, extra, more = (
        data.draw(st.lists(lit, max_size=4)),
        data.draw(heads),
        data.draw(st.lists(lit, max_size=2)),
        data.draw(heads),
    )
    premise = Premise.horn(p, units, t)
    grown = premise.with_units(extra)
    assert grown.graph is premise.graph
    wider = premise.with_heads(more)
    sibling = Premise.horn(p, extra, t | more)
    assert sibling.graph is wider.graph
    cases = [
        (premise, units, t),
        (grown, units + extra, t),
        (wider, units, t | more),
        (sibling, extra, t | more),
    ]
    for _ in range(2):
        for pr, u, h in cases:
            for goal in goals:
                expect = unmemoised_entails(p, u, h, goal)
                assert is_tautology(goal, pr) == expect, (u, sorted(h), goal)
                assert is_tautology(goal[::-1], pr) == expect, (u, sorted(h), goal)
                # a false premise answers without its graph
                assert pr.base is None or goal in pr.graph.goals


def assert_is_fast_matches_reference(sg):
    """is_fast against the reference on every distinct case analysis of a
    tree, under the graph the build made for it; returns how many."""
    p = sg.protocol
    seen = set()
    for s in sg.stages:
        ca = s.analysis
        if ca is None or not ca.exp or id(ca) in seen:
            continue
        seen.add(id(ca))
        g = build_transformation_graph(p, s.pi, sg.stages[s.parent].disabled)
        expect = reference_is_fast(p, g, ca.exp, ca.u_states)
        assert ca.fast == expect, (p.name, s.id)
        assert bounds.is_fast(g, ca.exp, ca.u_states) == expect, (p.name, s.id)
    return len(seen)


def test_is_fast_matches_reference_on_corpus(corpus_graphs):
    assert sum(assert_is_fast_matches_reference(sg) for sg in corpus_graphs.values())


@settings(max_examples=300, deadline=None)
@given(case=small_cases(), data=st.data())
def test_is_fast_matches_reference_generated(case, data):
    p, pi, disabled, exp = case
    pi_nu = compute_pi_nu(p, disabled, pi)
    g = build_transformation_graph(p, pi_nu, disabled)
    # the build's own Exp and draining states, then any head set and states
    u = frozenset(v for v in g.vertices if g.scc[v] not in g.bottom)
    graph_exp = compute_exp(g)
    assert bounds.is_fast(g, graph_exp, u) == reference_is_fast(p, g, graph_exp, u)
    # under a pi_nu, A! is never false; under the drawn pi it may be
    for g in (g, build_transformation_graph(p, pi, disabled)):
        u = data.draw(st.frozensets(st.sampled_from(range(len(p.states)))))
        assert bounds.is_fast(g, exp, u) == reference_is_fast(p, g, exp, u)


def test_direct_premises_match_formula_premises_on_remainder_m7(monkeypatch):
    # every graph, J and is_fast query of a 1,351-stage build, asked again
    # of the clause DPLL under the conjunction of the unit literals and
    # heads_formula(H), with is_fast's literals added, as the build
    # passed them to Premise.horn and Premise.with_units
    formulas = {}  # id(premise) -> (premise, the formula it stands for)
    horn, with_units = Premise.horn.__func__, Premise.with_units

    def recording_horn(cls, p, units, heads):
        units = list(units)
        pr = horn(cls, p, units, heads)
        f = conj([literal_formula(x) for x in units] + [heads_formula(heads)])
        formulas[id(pr)] = (pr, f)
        return pr

    def recording_with_units(self, extra):
        extra = list(extra)
        pr = with_units(self, extra)
        lits = [literal_formula(x) for x in extra]
        formulas[id(pr)] = (pr, conj([formulas[id(self)][1]] + lits))
        return pr

    queries = []

    def recording(kind):
        def ask(goal, premise):
            queries.append((kind, goal, premise))
            return logic.is_tautology(goal, premise)

        return ask

    monkeypatch.setattr(Premise, "horn", classmethod(recording_horn))
    monkeypatch.setattr(Premise, "with_units", recording_with_units)
    monkeypatch.setattr(stagegraph, "is_tautology", recording("build"))
    monkeypatch.setattr(bounds, "is_tautology", recording("is_fast"))
    sg = build_stage_graph(parse_protocol(remainder(7)))
    monkeypatch.undo()
    assert len(sg.stages) == 1351
    kinds = {kind for kind, _, _ in queries}
    assert kinds == {"build", "is_fast"}
    translated = {}
    for kind, goal, premise in queries:
        pr, f = formulas[id(premise)]
        assert pr is premise
        ref = translated.get(f)
        if ref is None:
            ref = translated[f] = dpll.ClausePremise(f)
        goal_f = clause_formula(goal)
        assert is_tautology(goal, premise) == dpll.entails(goal_f, ref), (
            kind,
            tree.pretty(goal_f, sg.protocol.states),
        )
    assert assert_is_fast_matches_reference(sg) > 0


# ---------------------------------------------------------------------------
# A stage formula is a `logic.Parts`; its printer, evaluator, domain and
# pruning's implication test are checked against the walkers of the tree the
# build made for it before (`formula_of`), on every distinct formula of a
# tree.


def every_valuation(domain):
    """Every total valuation of `domain` at once: bit j of the i-th
    variable's mask is bit i of j.  Returns the masks and the mask of all
    2^len(domain) valuations."""
    full = (1 << (1 << len(domain))) - 1
    bits = {}
    for i, v in enumerate(domain):
        half = 1 << i
        # the pattern half zeros, half ones, repeated over the full width
        bits[v] = (((1 << half) - 1) << half) * (full // ((1 << 2 * half) - 1))
    return bits, full


def assert_formulas_match_trees(sg):
    """Every distinct formula of sg printed, evaluated on every valuation of
    its domain and, for every edge, each end's formula tested over the
    other's split, as its tree does; returns the holds_throughout answers."""
    p = sg.protocol
    root = sg.stages[0].phi
    splits = {}
    for phi in dict.fromkeys(s.phi for s in sg.stages):
        f = formula_of(phi, phi is root)
        assert pretty(phi, literal_names(p.states), phi is root) == tree.pretty(f, p.states)
        domain = logic.evaluation_domain(phi)
        assert domain == evaluation_domain(f), tree.pretty(f, p.states)
        bits, full = every_valuation(domain)
        assert logic.evaluate(phi, bits) & full == tree.evaluate(f, bits) & full
        splits[phi] = enumerate_satisfying_valuations(p, phi)
    answers = set()
    edges = {(sg.stages[s.parent].phi, s.phi) for s in sg.stages[1:]}
    for parent, child in edges:
        for a, b in ((parent, child), (child, parent), (child, child)):
            got = logic.holds_throughout(b, splits[a])
            assert got == tree.holds_throughout(formula_of(b), splits[a])
            answers.add(got)
    return answers


def test_formulas_match_trees_on_corpus_and_large_members(corpus_graphs):
    answers = set()
    for sg in corpus_graphs.values():
        answers |= assert_formulas_match_trees(sg)
    for src in (remainder(7), avg_and_conquer(5)):
        answers |= assert_formulas_match_trees(build_stage_graph(parse_protocol(src)))
    assert answers == {True, False}


@settings(max_examples=200, deadline=None)
@given(p=small_protocols(min_rules=1))
def test_formulas_match_trees_generated(p):
    # the generator of test_soundness_fuzz_generated; builds past its stage
    # limit are checked on the tree made so far
    try:
        sg = build_stage_graph(p, max_stages=2000)
    except StageLimitError as exc:
        sg = partial_tree(exc)
    assert_formulas_match_trees(sg)
