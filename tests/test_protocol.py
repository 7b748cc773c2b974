"""Protocol model, parser, and exact step semantics."""

from collections import deque
from fractions import Fraction
from operator import add
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagebound import (
    Configuration,
    ProtocolError,
    initial_configuration,
    parse_protocol,
    step_distribution,
)
from stagebound import verify as V
from stagebound.corpus import majority_four_state, majority_five_state
from stagebound.protocol import PopulationProtocol, StepKernel, decode, encode
from oracle_reference import edge_rows
from step_reference import coded, coded_weights, enabled, fire, transition_probability

EX1 = majority_four_state()
EX2 = majority_five_state()


def rule(p, lhs_names, rhs_names):
    lhs = tuple(sorted(p.state_index(s) for s in lhs_names))
    rhs = tuple(sorted(p.state_index(s) for s in rhs_names))
    for t in p.transitions:
        if t.lhs == lhs and t.rhs == rhs:
            return t
    raise AssertionError(f"no rule {lhs_names} -> {rhs_names}")


def cfg(p, **counts):
    vec = [0] * len(p.states)
    for name, k in counts.items():
        vec[p.state_index(name)] = k
    return Configuration(tuple(vec))


def test_parse_example1_shape():
    p = parse_protocol(EX1)
    assert p.states == ("A", "B", "a", "b")
    non_idle = [t for t in p.transitions if not t.is_idle]
    assert len(non_idle) == 4
    # 10 heads in total over 4 states; 6 have no explicit rule
    implicit = p.transitions[p.explicit_count:]
    assert len(implicit) == 6
    assert all(t.is_idle for t in implicit)
    assert p.output(p.state_index("B")) == 1
    assert p.output(p.state_index("A")) == 0


def test_parse_example2_shape():
    p = parse_protocol(EX2)
    assert len(p.states) == 5
    assert p.explicit_count == 6


def test_parse_symmetric_normalization():
    a = parse_protocol(
        "protocol t\nstates: A B C D\ninputs: x -> A\noutput1: A\n"
        "transitions:\n  A B -> C D\n"
    )
    b = parse_protocol(
        "protocol t\nstates: A B C D\ninputs: x -> A\noutput1: A\n"
        "transitions:\n  B A -> D C\n"
    )
    ta = a.transitions[0]
    tb = b.transitions[0]
    assert (ta.lhs, ta.rhs) == (tb.lhs, tb.rhs)


def test_parse_swap_rule_is_idle():
    p = parse_protocol(
        "protocol t\nstates: A B\ninputs: x -> A\noutput1: A\n"
        "transitions:\n  A B -> B A\n"
    )
    t = p.transitions[0]
    assert t.is_idle


def test_parse_json_encoding():
    src = """{
      "name": "j",
      "states": ["A", "B"],
      "inputs": {"x": "A", "y": "B"},
      "output1": ["B"],
      "transitions": [["A", "B", "B", "B"]]
    }"""
    p = parse_protocol(src)
    assert p.states == ("A", "B")
    assert p.explicit_count == 1


@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("protocol t\nstates: A A\ninputs: x -> A\noutput1: A\n", "duplicate"),
        (
            "protocol t\nstates: A B\ninputs: x -> A\noutput1: A\n"
            "transitions:\n  A C -> A A\n",
            "undeclared",
        ),
        ("protocol t\nstates: A\ninputs:\noutput1: A\n", "input"),
        ("protocol t\nstates: A\ninputs: x -> A\n", "output"),
        ('{"states": ["A", "B"],', "malformed json"),
        ('["A", "B"]', "unrecognized"),
        ('{"states": "AB", "inputs": {"x": "A"}, "output1": [], "transitions": []}', "states"),
        ('{"states": [1, 2], "inputs": {"x": 1}, "output1": [], "transitions": []}', "states"),
        ('{"states": ["A"], "inputs": [], "output1": [], "transitions": []}', "inputs"),
        ('{"states": ["A"], "inputs": {"x": ["A"]}, "output1": [], "transitions": []}', "inputs"),
        ('{"states": ["A"], "inputs": {"x": "A"}, "output1": "A", "transitions": []}', "output1"),
        ('{"states": ["A"], "inputs": {"x": "A"}, "output1": [], "transitions": {}}', "transitions"),
        ('{"states": ["A"], "inputs": {"x": "A"}, "output1": [], "transitions": ["AAAA"]}', "transition"),
        ('{"states": ["A"], "inputs": {"x": "A"}, "output1": [], "transitions": [["A", "A", "A", 1]]}', "state names"),
        ('{"name": 3, "states": ["A"], "inputs": {"x": "A"}, "output1": [], "transitions": []}', "name"),
        # each section appears once: a repeat used to replace the earlier one
        (
            "protocol t\nprotocol u\nstates: A B\ninputs: x -> A\noutput1: B\n",
            "line 2: repeated 'protocol' line",
        ),
        (
            "protocol t\nstates: A B\ninputs: x -> A\ninputs: y -> B\noutput1: B\n",
            "line 4: repeated 'inputs:'",
        ),
        (
            "protocol t\nstates: A B\ninputs: x -> A\noutput1: B\noutput1: A\n",
            "line 5: repeated 'output1:'",
        ),
        (
            "protocol t\nstates: A B\ninputs: x -> A\noutput1: B\n"
            "transitions:\n  A B -> B B\nstates: B A\n",
            "line 7: repeated 'states:'",
        ),
        # rules go on lines of their own: one on the transitions line is not read
        (
            "protocol t\nstates: A B\ninputs: x -> A\noutput1: B\ntransitions: A B -> B B\n",
            "line 5: rules go on the lines after 'transitions:'",
        ),
        (
            '{"states": ["A", "B"], "inputs": {"x": "A"}, "inputs": {"y": "B"},'
            ' "output1": ["B"], "transitions": []}',
            "duplicate key 'inputs'",
        ),
        (
            '{"states": ["A", "B"], "inputs": {"x": "A", "x": "B"},'
            ' "output1": ["B"], "transitions": []}',
            "duplicate key 'x'",
        ),
    ],
)
def test_parse_errors(bad, fragment):
    with pytest.raises(ProtocolError) as exc:
        parse_protocol(bad)
    assert fragment in str(exc.value).lower()


def test_parse_state_named_like_the_header():
    p = parse_protocol(
        "protocol t\nstates: protocolA b\ninputs: x -> protocolA\noutput1: b\n"
        "transitions:\n  protocolA b -> b b\n"
    )
    assert p.name == "t"
    assert p.explicit_count == 1


@pytest.mark.parametrize("header", ["", "protocol t\n"])
def test_parse_rejects_a_state_named_protocol(header):
    # the rule line "protocol A -> A A" would read as the protocol line:
    # without a protocol line of its own the protocol was renamed
    # "A -> A A" and lost its rule, and with one the rule was a repeat
    src = (
        header + "states: protocol A\ninputs: x -> A\noutput1: A\n"
        "transitions:\n  protocol A -> A A\n"
    )
    line = header.count("\n") + 1
    with pytest.raises(ProtocolError, match=f"line {line}: 'protocol' cannot name a state"):
        parse_protocol(src)


def test_parse_error_carries_line_number():
    src = (
        "protocol t\nstates: A B\ninputs: x -> A\noutput1: A\n"
        "transitions:\n  A Z -> A A\n"
    )
    with pytest.raises(ProtocolError, match="line 6"):
        parse_protocol(src)


def test_initial_configuration():
    p = parse_protocol(EX1)
    c = initial_configuration(p, {"x": 3, "y": 2})
    assert c == cfg(p, A=3, B=2)
    assert c.size == 5


def test_initial_configuration_merges_symbols():
    p = parse_protocol(
        "protocol t\nstates: q\ninputs: x -> q, y -> q\noutput1: q\n"
        "transitions:\n  q q -> q q\n"
    )
    c = initial_configuration(p, {"x": 2, "y": 3})
    assert c.counts == (5,)


def test_empty_input_rejected_downstream():
    p = parse_protocol(EX1)
    c = initial_configuration(p, {})
    assert c.size == 0
    with pytest.raises(ValueError):
        step_distribution(p, c)


def test_enabled():
    p = parse_protocol(EX1)
    t = rule(p, "AB", "ab")
    assert enabled(cfg(p, A=1, B=1), t)
    assert not enabled(cfg(p, A=1), t)
    # a same-state head needs two agents
    idle_aa = rule(p, "AA", "AA")
    assert not enabled(cfg(p, A=1), idle_aa)
    assert enabled(cfg(p, A=2), idle_aa)


def test_fire():
    p = parse_protocol(EX1)
    t = rule(p, "AB", "ab")
    out = fire(cfg(p, A=2, B=1), t)
    assert out == cfg(p, A=1, a=1, b=1)
    idle = rule(p, "AA", "AA")
    c = cfg(p, A=2)
    assert fire(c, idle) == c
    with pytest.raises(ValueError):
        fire(cfg(p, A=1), t)


def test_fire_example2():
    p = parse_protocol(EX2)
    t = rule(p, "AB", "bC")
    assert fire(cfg(p, A=1, B=1), t) == cfg(p, b=1, C=1)


def test_transition_probability_values():
    p1 = parse_protocol(EX1)
    # only one pair of agents exists
    assert transition_probability(
        p1, cfg(p1, A=1, B=1), rule(p1, "AB", "ab")
    ) == Fraction(1)
    # idle AA on (A:2, a:1): 2*1 / (9-3) = 1/3
    assert transition_probability(
        p1, cfg(p1, A=2, a=1), rule(p1, "AA", "AA")
    ) == Fraction(1, 3)
    p2 = parse_protocol(EX2)
    assert transition_probability(
        p2, cfg(p2, A=2, B=1), rule(p2, "AB", "bC")
    ) == Fraction(2, 3)


def test_probability_uniform_among_shared_head():
    src = (
        "protocol t\nstates: A B C D\ninputs: x -> A, y -> B\noutput1: A\n"
        "transitions:\n  A B -> C C\n  A B -> D D\n"
    )
    p = parse_protocol(src)
    c = cfg(p, A=1, B=1)
    rules = p.transitions[: p.explicit_count]
    probs = {transition_probability(p, c, t) for t in rules}
    assert probs == {Fraction(1, 2)}


def test_step_distribution_single_pair():
    p = parse_protocol(EX1)
    d = step_distribution(p, cfg(p, A=1, B=1))
    assert d == {cfg(p, a=1, b=1): Fraction(1)}


def test_step_distribution_three_agents():
    # independent oracle: enumerate the three unordered pairs by hand.
    # c = (A:1, B:1, a:1), n = 3, n^2-n = 6.
    # pair {A,B} (2 edges): AB -> ab            => (a:2, b:1) mass 2/6
    # pair {A,a} (2 edges): idle                => c itself   mass 2/6
    # pair {B,a} (2 edges): Ba -> Bb            => (A:1,B:1,b:1) mass 2/6
    p = parse_protocol(EX1)
    c = cfg(p, A=1, B=1, a=1)
    d = step_distribution(p, c)
    assert d == {
        cfg(p, a=2, b=1): Fraction(1, 3),
        c: Fraction(1, 3),
        cfg(p, A=1, B=1, b=1): Fraction(1, 3),
    }


@st.composite
def random_config(draw, num_states, max_total=8):
    counts = draw(
        st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=num_states,
            max_size=num_states,
        )
    )
    if sum(counts) < 2:
        counts[draw(st.integers(0, num_states - 1))] += 2
    return Configuration(tuple(counts))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_step_distribution_sums_to_one(data):
    p = parse_protocol(data.draw(st.sampled_from([EX1, EX2])))
    c = data.draw(random_config(len(p.states)))
    d = step_distribution(p, c)
    assert sum(d.values()) == Fraction(1)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fire_preserves_size(data):
    p = parse_protocol(data.draw(st.sampled_from([EX1, EX2])))
    c = data.draw(random_config(len(p.states)))
    for t in p.transitions:
        if enabled(c, t):
            assert fire(c, t).size == c.size


def test_configuration_is_ordered_and_hashable():
    a = Configuration((1, 2))
    b = Configuration((2, 1))
    assert a < b
    assert len({a, b, Configuration((1, 2))}) == 2


def test_parser_strips_comments_and_blanks():
    src = (
        "# majority, reduced\n"
        "protocol commented\n\n"
        "states: A B   # two states\n"
        "inputs: x -> A, y -> B\n"
        "output1: B    # winners\n"
        "transitions:   # one a line\n"
        "  # the only rule\n"
        "  A B -> B B   # convert\n"
    )
    p = parse_protocol(src)
    assert p.name == "commented"
    assert p.explicit_count == 1


def test_parser_deduplicates_equal_rules():
    src = (
        "protocol dup\nstates: A B C D\ninputs: x -> A\noutput1: A\n"
        "transitions:\n  A B -> C D\n  B A -> D C\n"
    )
    p = parse_protocol(src)
    assert p.explicit_count == 1


def test_duplicate_input_symbol_rejected():
    with pytest.raises(ProtocolError, match="duplicate input"):
        parse_protocol(
            "protocol t\nstates: A\ninputs: x -> A, x -> A\noutput1: A\n"
        )


# ---------------------------------------------------------------------------
# The move table and step_distribution against the per-rule Fraction sum


def reference_step_distribution(p, c):
    """step_distribution as it was before the move table: one Fraction per
    rule, added per successor."""
    n = c.size
    if n < 2:
        raise ValueError("configuration must have at least two agents")
    dist: dict[Configuration, Fraction] = {}
    for head, rules in p.rules_by_head.items():
        a, b = head
        if a == b:
            num = c.counts[a] * (c.counts[a] - 1)
        else:
            num = 2 * c.counts[a] * c.counts[b]
        if num == 0:
            continue
        base = Fraction(num, (n * n - n) * len(rules))
        for t in rules:
            succ = fire(c, t)
            dist[succ] = dist.get(succ, Fraction(0)) + base
    return dist


def test_move_table_is_built_on_first_use(shared_heads):
    p = parse_protocol(EX1)
    assert "moves" not in vars(p)
    assert p.moves is p.moves
    table = shared_heads.moves
    # heads (A,B), (A,C) carry 3 and 2 rules: L = 6
    assert table.lcm == 6
    assert [h[:3] for h in table.heads] == [
        (0, 0, 6),
        (0, 1, 2),
        (0, 2, 3),
        (1, 1, 6),
        (1, 2, 6),
        (2, 2, 6),
    ]
    assert table.heads[1][3] == ((0, 1, 2, 2), (0, 1, 0, 2), (0, 1, 1, 2))


@st.composite
def shared_head_protocols(draw):
    """2-4 states and up to 8 rules drawn from few heads, so heads with
    several rules (and an lcm above 1) are common."""
    n = draw(st.integers(2, 4))
    heads = [(i, j) for i in range(n) for j in range(i, n)]
    lhs = st.sampled_from(heads[: draw(st.integers(1, len(heads)))])
    rules = draw(st.lists(st.tuples(lhs, st.sampled_from(heads)), max_size=8))
    return PopulationProtocol("gen", tuple("ABCD"[:n]), rules, {"x": 0}, frozenset())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_step_distribution_matches_reference_generated(data):
    p = data.draw(shared_head_protocols())
    c = data.draw(random_config(len(p.states)))
    got = step_distribution(p, c)
    assert got == reference_step_distribution(p, c)
    assert sum(got.values()) == Fraction(1)


# ---------------------------------------------------------------------------
# explore's integer BFS against the exploration it replaced


def reference_explore(p, roots, cap=200_000):
    """explore as it was before the integer BFS: Configurations, one
    Fraction per edge and one BFS over all roots, the cap counted over the
    whole chain; the distribution is the per-rule reference above.  Returns
    the nodes, index, rows of (node, probability) and roots."""
    if isinstance(roots, Configuration):
        roots = [roots]
    for c in roots:
        if c.size < 2:
            raise ValueError("configurations need at least two agents")
    nodes = []
    index = {}
    succ = []
    work = deque()
    root_ids = []
    for c in roots:
        if c not in index:
            index[c] = len(nodes)
            nodes.append(c)
            work.append(index[c])
        root_ids.append(index[c])
    while work:
        v = work.popleft()
        while len(succ) <= v:
            succ.append([])
        outs = []
        for succ_cfg, prob in sorted(reference_step_distribution(p, nodes[v]).items()):
            if succ_cfg not in index:
                if len(nodes) >= cap:
                    raise V.ExplorationLimitError(f"exploration cap {cap} exceeded")
                index[succ_cfg] = len(nodes)
                nodes.append(succ_cfg)
                work.append(index[succ_cfg])
            outs.append((index[succ_cfg], prob))
        succ[v] = outs
    while len(succ) < len(nodes):
        succ.append([])
    return SimpleNamespace(nodes=nodes, index=index, succ=succ, roots=root_ids)


def assert_same_exploration(p, roots):
    """explore equals the reference on nodes, node order included, exact
    successor probabilities and roots; its rows are integer weights over
    (n^2 - n) * L."""
    got = V.explore(p, roots)
    want = reference_explore(p, roots)
    assert got.nodes == want.nodes
    assert all(type(w) is int for ws in got.weights for w in ws)
    assert got.den == [(c.size**2 - c.size) * p.moves.lcm for c in got.nodes]
    assert [
        [(u, Fraction(w, d)) for u, w in outs] for outs, d in zip(edge_rows(got), got.den)
    ] == want.succ
    assert got.roots == want.roots
    return got


def test_explore_matches_reference_distribution_on_corpus(corpus):
    for entry in corpus:
        p = entry.protocol()
        by_size = [V.initial_configurations(p, n) for n in range(2, 7)]
        for roots in by_size:
            assert_same_exploration(p, roots)
        # one chain over every size, as check_stage_graph explores it, and
        # the sizes interleaved in reverse with a repeated root
        assert_same_exploration(p, [c for roots in by_size for c in roots])
        mixed = [c for group in zip(*reversed(by_size)) for c in group]
        assert_same_exploration(p, mixed + mixed[:1])


def test_explore_matches_reference_on_majority_ex2_n14(corpus):
    p = next(e for e in corpus if e.name == "majority-ex2").protocol()
    g = assert_same_exploration(p, V.initial_configurations(p, 14))
    assert g.size > 100


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_explore_matches_reference_generated(data):
    # random roots of mixed sizes, over heads with several rules
    p = data.draw(shared_head_protocols())
    roots = data.draw(st.lists(random_config(len(p.states)), min_size=1, max_size=4))
    assert_same_exploration(p, roots)


def test_explore_empty_roots():
    g = V.explore(parse_protocol(EX2), [])
    assert (g.nodes, g.links, g.weights, g.den, g.roots) == ([], [], [], [], [])


def test_explore_sizes_share_one_base(corpus):
    # the base comes from the largest root; the smaller sizes' codes use
    # the same base, and nodes and order match the reference's
    p = next(e for e in corpus if e.name == "majority-ex2").protocol()
    roots = V.initial_configurations(p, 3) + V.initial_configurations(p, 9)
    roots += V.initial_configurations(p, 2)
    g = assert_same_exploration(p, roots)
    assert {c.size for c in g.nodes} == {2, 3, 9}


def test_explore_multi_digit_codes():
    # 12 states at n = 10: the base is 11, so a code has twelve digits and
    # a count of 10 is a digit of its own; agents climb a ladder of states
    states = tuple(f"S{i}" for i in range(12))
    rules = [((i, i), (i, i + 1)) for i in range(11)]
    p = PopulationProtocol("ladder", states, rules, {"x": 0, "y": 5}, frozenset({0}))
    g = assert_same_exploration(p, V.initial_configurations(p, 10))
    assert g.size > 1000
    assert any(c.counts[0] == 10 for c in g.nodes)
    assert any(c.counts[11] for c in g.nodes)


def successor(counts, quad):
    """The count vector after the rule i j -> k l, given as a move-table
    quadruple; an idle rule returns `counts` itself."""
    i, j, k, l = quad
    if i == k and j == l:
        return counts
    out = list(counts)
    out[i] -= 1
    out[j] -= 1
    out[k] += 1
    out[l] += 1
    return tuple(out)


def reference_successor_rows(p, counts):
    """The successor count vectors of `counts` with their integer weights,
    one per rule, computed on tuples: in head order, then rule order."""
    out = []
    for a, b, mult, quads in p.moves.heads:
        w = counts[a] * (counts[a] - 1) if a == b else 2 * counts[a] * counts[b]
        if w:
            out += [(successor(counts, quad), w * mult) for quad in quads]
    return out


def reference_successor_weights(p, counts):
    """The rows of `reference_successor_rows`, the weights of equal
    successors added up, in order of first appearance."""
    nums: dict[tuple[int, ...], int] = {}
    for s, w in reference_successor_rows(p, counts):
        nums[s] = nums.get(s, 0) + w
    return nums


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_coded_weights_match_tuple_reference_generated(data):
    p = data.draw(shared_head_protocols())
    c = data.draw(random_config(len(p.states))).counts
    width = len(c)
    base = data.draw(st.integers(sum(c) + 1, sum(c) + 4))
    code = encode(c, base)
    got = coded_weights(coded(p, base), c, code)
    want = reference_successor_weights(p, c)
    assert [(decode(s, base, width), w) for s, w in got.items()] == list(want.items())
    assert sum(got.values()) == (sum(c) ** 2 - sum(c)) * p.moves.lcm
    # the kernel's rows are the productive rules, unmerged and in order:
    # simulate's cumulative weights, and so its random stream, follow this
    # order.  The idle rules weigh what the rows leave of (n^2 - n) * L
    kernel = StepKernel(p, base)
    rows = kernel.rows(c)
    weights = kernel.weights(rows, c)
    want_rows = reference_successor_rows(p, c)
    assert [(decode(code + row[0], base, width), w) for row, w in zip(rows, weights)] == [
        (s, w) for s, w in want_rows if s != c
    ]
    idle = sum(w for s, w in want_rows if s == c)
    assert (sum(c) ** 2 - sum(c)) * p.moves.lcm - sum(weights) == idle
    # and each row's count change is its successor less c
    assert [tuple(map(add, c, kernel.change[row[:3]])) for row in rows] == [
        s for s, _ in want_rows if s != c
    ]
