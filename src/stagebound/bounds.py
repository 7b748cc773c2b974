"""Asymptotic classification of stage-tree edges and report aggregation.

Every edge into a successor stage gets a class from the lattice

    0 < n^2 < n^2*log n < n^3 < n^c (unknown c) < 2^O(n)

chosen by the shape of the case analysis: stable/dead successors cost
nothing; an empty set of SCC-crossing rules forces the exponential class;
otherwise the cubic bound applies, sharpened to n^2*log n ("fast") or n^2
("very fast") by two syntactic checks.  The protocol-level bound is the
lattice maximum over edges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .logic import is_tautology, present, xi_clause
from .protocol import Head


class Bound(enum.IntEnum):
    ZERO = 0
    QUADRATIC = 1
    QUASI_QUADRATIC = 2
    CUBIC = 3
    POLY_UNKNOWN = 4
    EXPONENTIAL = 5

    @property
    def label(self) -> str:
        return _LABELS[self]

    @property
    def human(self) -> str:
        return _HUMAN[self]

    @property
    def parallel_time(self) -> str:
        return _PARALLEL[self]


_LABELS = {
    Bound.ZERO: "0",
    Bound.QUADRATIC: "n^2",
    Bound.QUASI_QUADRATIC: "n^2*log n",
    Bound.CUBIC: "n^3",
    Bound.POLY_UNKNOWN: "n^c",
    Bound.EXPONENTIAL: "exp(n)",
}

_HUMAN = {
    Bound.ZERO: "0",
    Bound.QUADRATIC: "O(n^2)",
    Bound.QUASI_QUADRATIC: "O(n^2*log n)",
    Bound.CUBIC: "O(n^3)",
    Bound.POLY_UNKNOWN: "O(n^c) for an unspecified constant c",
    Bound.EXPONENTIAL: "exp(n)",
}

_PARALLEL = {
    Bound.ZERO: "0",
    Bound.QUADRATIC: "O(n)",
    Bound.QUASI_QUADRATIC: "O(n*log n)",
    Bound.CUBIC: "O(n^2)",
    Bound.POLY_UNKNOWN: "O(n^(c-1))",
    Bound.EXPONENTIAL: "exp(n)",
}


def is_fast(g, exp: frozenset[Head], u_states: frozenset[int]) -> bool:
    """Whenever a draining state is still present and not every crossing rule
    is disabled, some crossing rule on that very state must be enabled.

    Put the other way round, for each draining state A: the graph's premise,
    A present and every head of Exp on A disabled must entail that every
    head of Exp is disabled.  Once A holds, a head on A is disabled exactly
    when the other literal of its `not_xi` is false: B for {A,B}, not A!
    for {A,A}.  So that premise is the graph's with A and the negations of
    those literals, and it is Horn.  It is asked the xi clause of each head
    of Exp not on A, the heads on A being disabled by its own literals.
    Each head's xi clause (-l1, -l2) is the goal of its query as it is;
    it is read off the graph's table (`g.xi`), which has every head of a
    non-idle rule."""
    heads = [g.xi.get(h) or xi_clause(h) for h in sorted(exp)]
    for a in sorted(u_states):
        off_a = -present(a)
        lits = [-off_a]
        goals = []
        for goal in heads:
            x1, x2 = goal
            if x1 == off_a:
                lits.append(x2)
            elif x2 == off_a:
                lits.append(x1)
            else:
                goals.append(goal)
        premise = g.premise.with_units(lits)
        for goal in goals:
            if not is_tautology(goal, premise):
                return False
    return True


def is_very_fast(g, u_states: frozenset[int]) -> bool:
    """Every rule of the transformation graph touching a draining state must
    move both of its agents strictly across SCCs of the graph.  Both sides
    of every such rule are vertices: a product outside them would be a state
    of M that a rule which can still fire produces."""
    sc = g.scc
    for t in g.gen_edges:
        a, b = t.lhs
        c, d = t.rhs
        if not ({a, b, c, d} & u_states):
            continue
        if sc[c] != sc[a] != sc[d] and sc[c] != sc[b] != sc[d]:
            continue
        return False
    return True


def edge_bound(ca) -> Bound:
    """Classify the edge into a successor stage from its case analysis."""
    if ca.stable is not None or ca.dead:
        return Bound.ZERO
    if not ca.exp:
        return Bound.EXPONENTIAL
    if not ca.j:
        return Bound.POLY_UNKNOWN
    if ca.very_fast:
        return Bound.QUADRATIC
    if ca.fast:
        return Bound.QUASI_QUADRATIC
    return Bound.CUBIC


CLAIM_CERTIFIED = "certified"
CLAIM_DEAD = "dead-terminal-present"
CLAIM_EXHAUSTED = "exhausted-terminal-present"


@dataclass
class AnalysisReport:
    protocol: str
    num_states: int
    num_declared_transitions: int
    overall: Bound
    edge_bounds: list[tuple[int, Bound]]  # (child stage id, bound)
    stage_count: int
    claim: str
    wall_time: float

    @property
    def certified(self) -> bool:
        return self.claim == CLAIM_CERTIFIED

    def human(self) -> str:
        lines = [
            f"bound: {self.overall.human}; stages: {self.stage_count}; {self.claim}",
            f"  parallel time: {self.overall.parallel_time}"
            f" (interactions divided by n)",
            f"  protocol: {self.protocol}"
            f" (|Q|={self.num_states}, |T|={self.num_declared_transitions})",
        ]
        return "\n".join(lines)

    def json_dict(self) -> dict:
        # no wall time here: analyze --json output must be byte-stable
        return {
            "protocol": self.protocol,
            "states": self.num_states,
            "transitions": self.num_declared_transitions,
            "bound": self.overall.label,
            "bound_human": self.overall.human,
            "stages": self.stage_count,
            "claim": self.claim,
            "edges": [
                {"stage": sid, "bound": b.label} for sid, b in self.edge_bounds
            ],
        }

    def csv_row(self) -> str:
        return (
            f"{self.protocol},{self.num_states},{self.num_declared_transitions},"
            f"{self.stage_count},{self.overall.label},{self.claim},{self.wall_time:.3f}"
        )


def aggregate(sg, wall_time: float = 0.0) -> AnalysisReport:
    """Protocol-level report: lattice max over edges plus the consensus claim
    derived from the terminal kinds."""
    from .stagegraph import TERMINAL_DEAD, TERMINAL_EXHAUSTED

    edge_bounds: list[tuple[int, Bound]] = []
    overall = Bound.ZERO
    claim = CLAIM_CERTIFIED
    has_dead = False
    has_exhausted = False
    for s in sg.stages:
        if s.analysis is not None:
            b = edge_bound(s.analysis)
            edge_bounds.append((s.id, b))
            overall = max(overall, b)
        if s.kind == TERMINAL_DEAD:
            has_dead = True
        if s.kind == TERMINAL_EXHAUSTED:
            has_exhausted = True
    if has_exhausted:
        claim = CLAIM_EXHAUSTED
    elif has_dead:
        claim = CLAIM_DEAD
    p = sg.protocol
    return AnalysisReport(
        protocol=p.name,
        num_states=len(p.states),
        num_declared_transitions=p.explicit_count,
        overall=overall,
        edge_bounds=edge_bounds,
        stage_count=len(sg.stages),
        claim=claim,
        wall_time=wall_time,
    )
