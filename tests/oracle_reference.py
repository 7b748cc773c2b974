"""The oracle's closures as they were before they ran in batches over the
chain's condensation, kept as references for the batched passes: one
node-by-node BFS per query over node sets, the stage denotation through
its persist formula, and the hitting-time solve over the condensation of
the chain with the target cut off and the nodes outside the almost-sure
region dropped.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from stagebound import verify as V
from stagebound.logic import conj, heads_formula, valuation_formula
from stagebound.stagegraph import scc_condensation


def reference_backward_reach(g, seed, blocked=frozenset()):
    """Nodes that can reach the seed set (seed included) through nodes
    outside `blocked`; a blocked node is never added."""
    pred = [[] for _ in g.nodes]
    for v, outs in enumerate(g.succ):
        for u, _ in outs:
            pred[u].append(v)
    seen = set(seed)
    work = deque(seed)
    while work:
        v = work.popleft()
        for u in pred[v]:
            if u not in seen and u not in blocked:
                seen.add(u)
                work.append(u)
    return seen


def reference_box_set(g, sat):
    """Nodes from which every reachable node lies in `sat`."""
    bad = set(range(g.size)) - set(sat)
    return set(range(g.size)) - reference_backward_reach(g, bad)


def reference_almost_sure_reach(g, target):
    """Nodes whose runs hit the target with probability one: on the chain
    with the target made absorbing, no reachable node misses it."""
    tgt = set(target)
    everything = set(range(g.size))
    cannot = everything - reference_backward_reach(g, tgt)
    return everything - reference_backward_reach(g, cannot, blocked=tgt)


def reference_persist_formula(p, stage):
    """What a stage requires from now on: pi and the disabled heads."""
    return conj([valuation_formula(stage.pi), heads_formula(p, stage.disabled)])


def reference_stage_denotation(g, stage, p):
    """Nodes in [[S]]: satisfy Phi now, and pi plus the disabled heads from
    now on."""
    return g.sat(stage.phi) & reference_box_set(g, g.sat(reference_persist_formula(p, stage)))


def reference_expected_steps_plain(g, target):
    """First-hitting expectations for every node, solved per strongly
    connected component of the plain graph in which target nodes and nodes
    outside the almost-sure region have no successor; None where the target
    is not reached almost surely."""
    tgt = set(target)
    good = reference_almost_sure_reach(g, tgt)
    if not all(r in good for r in g.roots):
        raise ValueError("target not almost surely reachable; expectation diverges")
    expect = [None] * g.size
    for v in tgt:
        expect[v] = (0, 1)
    plain = [
        [] if v in tgt or v not in good else [u for u, _ in outs]
        for v, outs in enumerate(g.succ)
    ]
    for group in scc_condensation(plain)[1]:
        todo = [v for v in group if v in good and v not in tgt]
        if not todo:
            continue
        if len(todo) == 1:
            solved = [V._exact_node(g, todo[0], expect)]
        else:
            solved = V._exact_block(g, todo, expect)
        for v, e in zip(todo, solved):
            expect[v] = e
    return [None if e is None else Fraction(*e) for e in expect]
