"""Formula engine: xi, entailment by literal closures with the singleton
coupling, the split of stage formulas into valuations, pruning's
implication test, configuration-level evaluation (through the oracle's
ReachGraph.sat), and the stage formula's evaluator, domain and printer.

The closure answers and the split are checked against the clause DPLL of
`dpll_reference` and against the earlier searches over the formula tree
(`formula_reference.formula_of`), kept here as references with the
three-valued evaluator they walk with; the DPLL, which takes formulas of
any shape, is checked against those searches too.  The stage formula's own
evaluator, domain and printer are checked against the tree's."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import dpll_reference as dpll
import formula_reference as tree
from dpll_reference import clause_formula, implies, premise_formula
from formula_reference import (
    FF,
    TT,
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
from stagebound import Configuration, bounds, logic, parse_protocol, stagegraph
from stagebound.corpus import default_corpus, majority_four_state
from stagebound.logic import (
    Parts,
    Premise,
    enumerate_satisfying_valuations,
    holds_throughout,
    is_tautology,
    literal_names,
    not_xi,
    present,
    pretty,
    single,
    stage_formula,
    variable_name,
    xi_clause,
)
from stagebound.stagegraph import initial_stage
from oracle_reference import make_reach_graph
from step_reference import enabled

P = parse_protocol(majority_four_state())
A, B, a, b = range(4)
NAMES = literal_names(P.states)
EMPTY = Premise.horn(P, (), frozenset())  # no unit and no head


def head(x, y):
    return (x, y) if x <= y else (y, x)


def valuation(lits):
    """The valuation of some literals, a later literal of a variable winning
    over an earlier one: sorted by variable, each variable once."""
    return tuple(sorted({abs(x): x for x in lits}.values(), key=abs))


def holds_at(c, phi):
    """Whether configuration c satisfies the stage formula phi, by the
    oracle's evaluator."""
    return make_reach_graph(P, [c.counts], [[]], [1], [0]).sat(phi) == {0}


def evaluate(f, asg):
    """Three-valued evaluation under a partial assignment: None while the
    atoms assigned so far leave the value of f open."""
    tag = f[0]
    if tag == "tt":
        return True
    if tag == "ff":
        return False
    if tag == "atom":
        return asg.get(f[1])
    if tag == "not":
        v = evaluate(f[1], asg)
        return None if v is None else not v
    if tag == "and":
        pending = False
        for g in f[1]:
            v = evaluate(g, asg)
            if v is False:
                return False
            if v is None:
                pending = True
        return None if pending else True
    if tag == "or":
        pending = False
        for g in f[1]:
            v = evaluate(g, asg)
            if v is True:
                return True
            if v is None:
                pending = True
        return None if pending else False
    raise ValueError(f"bad formula node {f!r}")


def _consistent_choices(v: int, asg: dict[int, bool]) -> tuple[bool, ...]:
    """Values variable v may take given the singleton->presence coupling.

    tt is tried before ff so enumeration is lexicographic with tt < ff.
    """
    if not v & 1:  # a singleton, whose presence is v - 1
        if asg.get(v - 1) is False:
            return (False,)
    elif asg.get(v + 1) is True:
        return (True,)
    return (True, False)


def reference_enumerate_satisfying_valuations(f):
    """Reference enumerator: backtracking over the evaluation domain,
    re-evaluating f at every search node."""
    domain = evaluation_domain(f)
    results = []

    def walk(i: int, asg: dict[int, bool]) -> None:
        if evaluate(f, asg) is False:
            return
        if i == len(domain):
            if evaluate(f, asg) is True:
                results.append(tuple(v if x else -v for v, x in asg.items()))
            return
        a = domain[i]
        for val in _consistent_choices(a, asg):
            asg[a] = val
            walk(i + 1, asg)
            del asg[a]

    walk(0, {})
    return results


def reference_is_tautology(f):
    """Reference oracle: backtracking search for a consistent countermodel
    over the evaluation domain, re-evaluating f at every search node."""
    domain = evaluation_domain(f)

    def search(i, asg):
        # True if a consistent countermodel exists below this node
        v = evaluate(f, asg)
        if v is True:
            return False
        if v is False:
            return True
        if i == len(domain):
            return False
        a = domain[i]
        for val in _consistent_choices(a, asg):
            asg[a] = val
            if search(i + 1, asg):
                return True
            del asg[a]
        return False

    return not search(0, {})


def test_xi_distinct_states():
    assert xi(head(A, B)) == disj([neg(atom(present(A))), neg(atom(present(B)))])
    assert pretty(Parts((), frozenset({head(A, B)})), NAMES) == "!A | !B"


def test_xi_same_state_uses_singleton():
    got = xi(head(A, A))
    assert got == disj([neg(atom(present(A))), atom(single(A))])
    # heads with only idle rules get the same shape: "at most one b" is the
    # exact disabling condition for a pair rule on a single state, and the
    # formula stays meaningful wherever it is reused
    assert xi(head(b, b)) == disj([neg(atom(present(b))), atom(single(b))])
    assert pretty(Parts((), frozenset({head(b, b)})), NAMES) == "!b | b!"


def test_heads_formula():
    assert heads_formula([]) == TT
    assert heads_formula([head(A, B)]) == xi(head(A, B))
    # heads are sorted canonically before conjunction
    got = heads_formula([head(A, a), head(A, B)])
    assert got == conj([xi(head(A, B)), xi(head(A, a))])
    phi = Parts((), frozenset({head(A, a), head(A, B)}))
    assert formula_of(phi) == got
    assert pretty(phi, NAMES) == "(!A | !B) & (!A | !a)"


def test_valuation_formula():
    nu = (present(A), -present(B))
    assert valuation_formula(nu) == conj([atom(present(A)), neg(atom(present(B)))])
    assert valuation_formula(()) == TT
    assert valuation_formula((single(A),)) == atom(single(A))


def test_stage_formula_empty_disjunction_is_false():
    units = ((present(A),),)
    phi = stage_formula(units, frozenset({head(A, B)}), frozenset())
    assert phi == Parts(units, frozenset({head(A, B)}), ())
    assert formula_of(phi) == FF and pretty(phi, NAMES) == "false"
    assert logic.evaluate(phi, {present(A): -1, present(B): -1}) == 0
    assert logic.evaluation_domain(phi) == []
    # no disjunction at all: one empty member
    phi = stage_formula(units, frozenset())
    assert formula_of(phi) == atom(present(A)) and phi.members == ((),)
    # no unit, no head and no disjunction: true
    assert pretty(Parts((), frozenset()), NAMES) == "true"
    assert logic.evaluate(Parts((), frozenset()), {}) == -1


def test_stage_formula_renders_drained_states_flat():
    # the build once wrote drained states as loose conjuncts: pi, the xi
    # of T, one literal per drained state, then "some head of L is enabled"
    pi = (present(A), single(A))
    heads = frozenset({head(a, b), head(A, b)})
    l = frozenset({head(B, b), head(a, a)})
    some_l = disj([neg(xi(h)) for h in sorted(l)])
    for states in ([B], [B, a, b]):
        drained = tuple(-present(s) for s in states)
        flat = [literal_formula(x) for x in drained]
        for some, tail in ((None, []), (l, [some_l])):
            phi = stage_formula((pi, drained), heads, some)
            old = conj([valuation_formula(pi), heads_formula(heads)] + flat + tail)
            assert pretty(phi, NAMES) == tree.pretty(old, P.states)
            if len(states) == 1:
                assert formula_of(phi) == old
            assert phi.units[0] is pi and phi.units[1] is drained
            assert phi.heads == heads
            members = ((),) if some is None else tuple(not_xi(h) for h in sorted(l))
            assert phi.members == members


def test_is_tautology_consistency_rule():
    # one agent in A implies A populated: the only countermodel is excluded
    f = neg(conj([atom(single(A)), neg(atom(present(A)))]))
    assert is_tautology((-single(A), present(A)), EMPTY)
    assert dpll.tautology(f)


def test_is_tautology_basic():
    pa, pb = present(A), present(B)
    # !A => (!A | !B), and A => (!A | !B), as clauses
    assert is_tautology((pa, -pa, -pb), EMPTY)
    assert not is_tautology((-pa, -pa, -pb), EMPTY)
    assert not is_tautology((), EMPTY)  # the empty clause is false
    assert dpll.tautology(TT) and not dpll.tautology(FF)


def test_literals_number_the_atoms():
    # the presence of state s is 2s + 1 and its singleton 2s + 2, negated by
    # sign; each literal's formula is its variable's atom, and each variable
    # is named after its state
    assert [present(s) for s in range(4)] == [1, 3, 5, 7]
    assert [-single(s) for s in range(4)] == [-2, -4, -6, -8]
    for s in range(4):
        for v, name in ((present(s), P.states[s]), (single(s), P.states[s] + "!")):
            assert literal_formula(v) == atom(v)
            assert literal_formula(-v) == neg(atom(v))
            assert variable_name(v, P.states) == name
    # not_xi and xi_clause: A and B for {A,B}, A and not A! for {A,A}
    assert not_xi(head(A, B)) == (present(A), present(B))
    assert not_xi(head(a, a)) == (present(a), -single(a))
    assert xi_clause(head(a, a)) == (-present(a), single(a))
    assert clause_formula(xi_clause(head(A, b))) == xi(head(A, b))


def test_enumerate_example1_initial_stage():
    pa, pb, paa, pbb = (atom(present(s)) for s in (A, B, a, b))
    s = initial_stage(P)
    assert formula_of(s.phi, root=True) == conj([disj([pa, pb]), neg(paa), neg(pbb)])
    assert pretty(s.phi, NAMES, root=True) == "(A | B) & !a & !b"
    vals = enumerate_satisfying_valuations(P, s.phi)
    assert len(vals) == 3
    # canonical order: tt before ff, variables by state index
    assert vals == [(1, 3, -5, -7), (1, -3, -5, -7), (-1, 3, -5, -7)]


def test_enumerate_unsat_and_singleton():
    assert enumerate_satisfying_valuations(P, Parts((), frozenset(), ())) == []
    one = single(A)
    vals = enumerate_satisfying_valuations(P, Parts(((one,),), frozenset()))
    assert vals == [(present(A), one)]


def test_sat_atoms():
    c = Configuration((2, 0, 0, 0))
    assert holds_at(c, Parts(((present(A), -present(B)),), frozenset()))
    assert holds_at(Configuration((1, 0, 0, 0)), Parts(((single(A),),), frozenset()))
    assert not holds_at(c, Parts(((single(A),),), frozenset()))


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 3), min_size=4, max_size=4),
    x=st.integers(0, 3),
    y=st.integers(0, 3),
)
def test_xi_matches_enabledness(counts, x, y):
    # xi(h) holds exactly when no rule with head h can fire (checked via the
    # step semantics on heads that carry a non-idle rule, which is where the
    # analysis uses it)
    c = Configuration(tuple(counts))
    h = head(x, y)
    rules = [t for t in P.non_idle if t.lhs == h]
    if not rules:
        return
    assert holds_at(c, Parts((), frozenset({h}))) == (not enabled(c, rules[0]))


@st.composite
def formulas(draw, depth=3):
    atoms = [atom(present(s)) for s in range(4)] + [atom(single(A)), atom(single(b))]
    if depth == 0:
        return draw(st.sampled_from(atoms + [TT, FF]))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from(atoms))
    if kind == 1:
        return neg(draw(formulas(depth - 1)))
    parts = draw(st.lists(formulas(depth - 1), min_size=1, max_size=3))
    return conj(parts) if kind == 2 else disj(parts)


# The clause DPLL decides formulas of any shape, so it is checked on
# arbitrary ones; the production answers below are checked on the shapes
# the build asks.


@settings(max_examples=120, deadline=None)
@given(f=formulas())
def test_tautology_agrees_with_enumeration(f):
    assert dpll.tautology(f) == (dpll.enumerate_satisfying_valuations(neg(f)) == [])


@st.composite
def coupled_formulas(draw, num_states, depth=3):
    """Formulas with every connective over the presence and singleton atoms
    of the first `num_states` states, so A! -> A matters."""
    states = range(num_states)
    atoms = [atom(present(s)) for s in states] + [atom(single(s)) for s in states]
    if depth == 0:
        return draw(st.sampled_from(atoms + [TT, FF]))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(st.sampled_from(atoms))
    sub = coupled_formulas(num_states, depth - 1)
    if kind == 1:
        return neg(draw(sub))
    if kind == 2:
        return implies(draw(sub), draw(sub))
    parts = draw(st.lists(sub, min_size=1, max_size=3))
    return conj(parts) if kind == 3 else disj(parts)


@settings(max_examples=300, deadline=None)
@given(f=st.integers(3, 4).flatmap(coupled_formulas))
def test_tautology_agrees_with_reference(f):
    assert dpll.tautology(f) == reference_is_tautology(f)
    assert dpll.tautology(neg(f)) == reference_is_tautology(neg(f))


@settings(max_examples=200, deadline=None)
@given(f=formulas())
def test_enumeration_agrees_with_reference(f):
    got = dpll.enumerate_satisfying_valuations(f)
    assert got == reference_enumerate_satisfying_valuations(f)


@settings(max_examples=300, deadline=None)
@given(f=st.integers(3, 4).flatmap(coupled_formulas))
def test_enumeration_agrees_with_reference_on_coupled_formulas(f):
    got = dpll.enumerate_satisfying_valuations(f)
    assert got == reference_enumerate_satisfying_valuations(f)


def test_enumeration_covers_atoms_of_a_valid_disjunct():
    # the translation drops the disjunct B! once !A | true makes the clause
    # valid, yet B and B! stay in the domain: 2 values of A times the 3
    # consistent ones of (B, B!).  Plain tuples keep the true disjunct in.
    f = ("or", (("or", (neg(atom(present(A))), TT)), atom(single(B))))
    got = dpll.enumerate_satisfying_valuations(f)
    assert len(got) == 6
    assert got == reference_enumerate_satisfying_valuations(f)


def test_enumeration_agrees_with_reference_on_corpus_stages(corpus_graphs):
    for sg in corpus_graphs.values():
        root = sg.stages[0].phi
        for phi in {s.phi: None for s in sg.stages}:
            f = formula_of(phi, phi == root)
            got = enumerate_satisfying_valuations(sg.protocol, phi)
            expect = reference_enumerate_satisfying_valuations(f)
            assert got == expect, pretty(phi, literal_names(sg.protocol.states))
            assert got == dpll.enumerate_satisfying_valuations(f)


@pytest.mark.parametrize("name", ["majority-ex1", "remainder-m3"])
def test_tautology_agrees_with_reference_on_stage_queries(name, monkeypatch):
    # the query shapes the stage-tree build actually asks, each checked as
    # the entailment "premise implies goal"
    queries = []

    def recording(goal, premise):
        queries.append((goal, premise))
        return is_tautology(goal, premise)

    monkeypatch.setattr(stagegraph, "is_tautology", recording)
    monkeypatch.setattr(bounds, "is_tautology", recording)
    entry = next(e for e in default_corpus() if e.name == name)
    stagegraph.build_stage_graph(entry.protocol())
    assert queries
    for goal, premise in queries:
        f = implies(premise_formula(premise), clause_formula(goal))
        expect = reference_is_tautology(f)
        assert is_tautology(goal, premise) == expect, tree.pretty(f, premise.p.states)


@settings(max_examples=200, deadline=None)
@given(premise=formulas(), extra=formulas(), goal=formulas())
def test_premise_agrees_with_reference(premise, extra, goal):
    # a clause premise translated once answers like the implication it
    # stands for
    pr = dpll.ClausePremise(premise)
    assert pr.formula == premise
    alone = reference_is_tautology(implies(premise, goal))
    assert dpll.entails(goal, pr) == alone
    both = pr.conj(extra)
    expect = reference_is_tautology(implies(conj([premise, extra]), goal))
    assert dpll.entails(goal, both) == expect
    # conj leaves the premise it extends as it was
    assert dpll.entails(goal, pr) == alone


def int_literals(states):
    """Int literals over the presence and singleton variables of `states`."""
    variables = [present(s) for s in states] + [single(s) for s in states]
    return st.tuples(st.sampled_from(variables), st.booleans()).map(
        lambda x: x[0] if x[1] else -x[0]
    )


def head_sets(states, max_size):
    pairs = st.tuples(st.sampled_from(states), st.sampled_from(states))
    return st.lists(pairs, max_size=max_size).map(lambda ps: frozenset(head(*x) for x in ps))


@st.composite
def horn_premises(draw):
    """The premise shape of the stage-tree build over the first 2-4 states
    of P: units, as pi gives them, and some heads disabled.  Units may
    contradict each other, directly or through A! -> A, and one premise in
    ten holds a unit and its negation outright."""
    states = range(draw(st.integers(2, 4)))
    units = draw(st.lists(int_literals(states), max_size=5))
    if draw(st.integers(0, 9)) == 0:
        x = draw(int_literals(states))
        units += [x, -x]
    return Premise.horn(P, units, draw(head_sets(states, 4)))


@st.composite
def horn_goals(draw):
    """The goal shapes the closure path answers, as clauses of int
    literals over all four states of P, so a goal may name atoms its
    premise leaves free."""
    x, y = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    h = head(x, y)
    lit = draw(int_literals(range(4)))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return xi_clause(h)
    if kind == 1:  # J's re-enabling guard, negated, and xi
        not_guard = (present(x), -present(y)) if x != y else (-single(x),)
        return not_guard + xi_clause(draw(st.sampled_from(list(P.rules_by_head))))
    if kind == 2:
        return (lit,)
    if kind == 3:  # one atom with both signs
        return (lit, draw(int_literals(range(4))), -lit)
    # kind 4: any clause of one to three literals
    return tuple(draw(st.lists(int_literals(range(4)), min_size=1, max_size=3)))


@settings(max_examples=400, deadline=None)
@given(premise=horn_premises(), goal=horn_goals())
def test_closure_path_agrees_with_reference(premise, goal):
    f = clause_formula(goal)
    expect = reference_is_tautology(implies(premise_formula(premise), f))
    assert dpll.entails(f, dpll.ClausePremise(premise_formula(premise))) == expect
    assert is_tautology(goal, premise) == expect


def test_closure_path_on_false_premises():
    pa, one = present(A), single(A)
    for units in ([pa, -pa], [one, -pa]):
        for heads in (frozenset(), frozenset({head(A, B)})):
            pr = Premise.horn(P, units, heads)
            assert pr.base is None
            for goal in ((present(B),), (-present(B),), xi_clause(head(B, a)), ()):
                assert is_tautology(goal, pr)
    # false only through a head: A and B present, yet {A,B} disabled
    pr = Premise.horn(P, [pa, present(B)], frozenset({head(A, B)}))
    assert pr.base is None and is_tautology((), pr)
    assert not is_tautology((), Premise.horn(P, [pa], frozenset({head(A, B)})))


def test_closure_path_on_unnumbered_atoms():
    # every presence and singleton atom of the protocol is numbered; the
    # atoms that no unit or head names are free
    pr = Premise.horn(P, [present(A)], frozenset())
    # B and B! are free, yet B! still brings B
    assert is_tautology((-single(B), present(B)), pr)  # B! => B
    assert not is_tautology((-present(B), single(B)), pr)  # B => B!
    assert is_tautology((present(B), -present(B)), pr)
    # a free singleton whose presence atom the premise makes false
    pr = Premise.horn(P, [-present(A)], frozenset())
    assert is_tautology((-single(A),), pr)
    assert not is_tautology((-single(B),), pr)


@settings(max_examples=150, deadline=None)
@given(
    premise=horn_premises(),
    goals=st.lists(horn_goals(), min_size=2, max_size=5),
    order=st.randoms(use_true_random=False),
)
def test_premise_answers_do_not_depend_on_query_order(premise, goals, order):
    # the literal closures a premise and its graph memoise for one goal
    # answer the next ones alike, in any order
    f = premise_formula(premise)
    expect = [reference_is_tautology(implies(f, clause_formula(g))) for g in goals]
    assert [is_tautology(g, premise) for g in goals] == expect
    idx = list(range(len(goals)))
    order.shuffle(idx)
    assert [is_tautology(goals[i], premise) for i in idx] == [expect[i] for i in idx]
    fresh = [Premise.horn(P, premise.units, premise.heads) for _ in goals]
    assert [is_tautology(goals[i], fresh[i]) for i in idx] == [expect[i] for i in idx]


def stage_parts(states_range=(2, 4)):
    return st.integers(*states_range).flatmap(lambda k: stage_formulas(range(k)))


@st.composite
def stage_formulas(draw, states):
    """A stage formula of the shape the build makes, over `states` of P:
    units in two valuations, which may contradict each other, directly or
    through A! -> A; the xi of some heads; and a disjunction of single
    literals (as of the initial stage's inputs) or of some not xi (as of K
    or L), or none, or an empty one (false).  With no unit, no head and no
    disjunction it is true."""
    units = tuple(valuation(draw(st.lists(int_literals(states), max_size=3))) for _ in range(2))
    heads = draw(head_sets(states, 3))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        members = ((),)
    elif kind == 1:
        members = ()
    elif kind == 2:
        singles = draw(st.lists(int_literals(states), min_size=1, max_size=3))
        members = tuple((x,) for x in singles)
    else:
        enabled = sorted(draw(head_sets(states, 3).filter(bool)))
        members = tuple(not_xi(h) for h in enabled)
    return Parts(units, heads, members)


@settings(max_examples=300, deadline=None)
@given(phi=stage_parts())
def test_split_agrees_with_references_on_stage_shapes(phi):
    f = formula_of(phi)
    got = enumerate_satisfying_valuations(P, phi)
    assert got == reference_enumerate_satisfying_valuations(f)
    assert got == dpll.enumerate_satisfying_valuations(f)


@settings(max_examples=200, deadline=None)
@given(anc=stage_parts(), child=stage_parts())
def test_holds_throughout_agrees_with_dpll(anc, child):
    # "anc implies child", decided over anc's split, which need not cover
    # the atoms of child
    vals = enumerate_satisfying_valuations(P, anc)
    expect = dpll.tautology(implies(formula_of(anc), formula_of(child)))
    assert holds_throughout(child, vals) == expect


@settings(max_examples=120, deadline=None)
@given(phi=stage_parts())
def test_enumerated_valuations_satisfy_and_are_consistent(phi):
    for nu in enumerate_satisfying_valuations(P, phi):
        for x in nu:
            if x > 0 and not x & 1:  # a true singleton
                assert x - 1 in nu
        # the valuation's own formula entails f on configurations is hard to
        # test directly; instead check the assignment satisfies f
        assert logic.evaluate(phi, {abs(x): int(x > 0) for x in nu}) & 1


@settings(max_examples=80, deadline=None)
@given(
    counts=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    data=st.data(),
)
def test_config_agrees_with_pointwise_valuation(counts, data):
    c = Configuration(tuple(counts))
    nu = []
    for s in range(4):
        if data.draw(st.booleans()):
            nu.append(present(s) if c.counts[s] > 0 else -present(s))
        if data.draw(st.booleans()):
            nu.append(single(s) if c.counts[s] == 1 else -single(s))
    assert holds_at(c, Parts((tuple(nu),), frozenset()))


def test_pretty_printer():
    # the tree printer, which the stage formula's is checked against, on
    # any tree; and the stage formula's on the shapes the build makes
    pa, pb = atom(present(A)), atom(present(B))
    f = conj([disj([neg(pa), neg(pb)]), atom(single(A))])
    assert tree.pretty(f, P.states) == "(!A | !B) & A!"
    assert tree.pretty(TT, P.states) == "true"
    assert tree.pretty(neg(disj([pa, conj([pb, atom(single(b))])])), P.states) == "!(A | (B & b!))"
    phi = Parts(((), (single(A),)), frozenset({head(A, B)}))
    assert formula_of(phi) == f and pretty(phi, NAMES) == "(!A | !B) & A!"
    phi = Parts(((single(A),),), frozenset(), (not_xi(head(A, B)), not_xi(head(a, a))))
    assert pretty(phi, NAMES) == "A! & (!(!A | !B) | !(!a | a!))"
    assert pretty(phi._replace(units=()), NAMES) == "!(!A | !B) | !(!a | a!)"
    assert pretty(phi, NAMES, root=True) == "(!(!A | !B) | !(!a | a!)) & A!"


@settings(max_examples=300, deadline=None)
@given(phi=stage_parts((1, 4)), root=st.booleans(), data=st.data())
def test_stage_formula_agrees_with_its_tree(phi, root, data):
    # the printer, the evaluator and the domain of a stage formula against
    # the tree walkers on the tree the build made for it; every variable
    # gets its own random bits, consistent or not
    f = formula_of(phi, root)
    assert pretty(phi, NAMES, root) == tree.pretty(f, P.states)
    assert logic.evaluation_domain(phi) == evaluation_domain(f)
    bits = {v: data.draw(st.integers(0, (1 << 64) - 1)) for v in range(1, 9)}
    mask = (1 << 64) - 1
    assert logic.evaluate(phi, bits) & mask == tree.evaluate(f, bits) & mask
