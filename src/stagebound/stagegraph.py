"""Stage-tree construction for population protocols.

A stage is a triple (Phi, pi, T): a propositional constraint on the current
configuration, a persistent valuation (atom values that hold in every
reachable configuration), and a set of permanently disabled transition
heads.  Starting from the stage denoting exactly the initial configurations,
each stage is split into the valuations satisfying its formula; for every
valuation a successor stage is computed by

  1. extending the persistent valuation with a greatest fixed point,
  2. building the transformation graph (which states can still turn into
     which).  It is the one place that decides which rules can still fire;
     every later step reads that decision from the graph,
  3. reading stable / dead successors off the graph: stable when every
     state and every product of a rule that can still fire share one
     output, dead when no rule can fire yet no consensus holds,
  4. otherwise letting the SCC-crossing transitions eventually die out and
     deriving the successor's formula from a case analysis of how they get
     disabled.

Steps 1-4 depend only on the parent's disabled heads T and on nu, so
within one build each distinct (T, nu) case analysis is computed once and
shared, read-only, by every stage it yields; each distinct formula is
likewise split into valuations once.  Successors that a root-path ancestor
already covers are pruned, which guarantees termination; pruning depends on
the root path, so it runs for every child.  An ancestor covers a child with
the same pi and T when the ancestor's formula implies the child's, which
is decided by evaluating the child's formula over the ancestor's split.
A formula is held in one form, `logic.Parts`, which the split walks on
literal closures, the oracle evaluates and the exports render.
Construction is deterministic:
valuations are enumerated in canonical order and stages are numbered
breadth-first.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

from . import bounds as bounds_mod
from .logic import (
    Parts,
    Premise,
    Valuation,
    enumerate_satisfying_valuations,
    holds_throughout,
    is_tautology,
    literal_names,
    not_xi,
    present,
    pretty,
    single,
    stage_formula,
    xi_clause,
)
from .protocol import Head, PopulationProtocol, Transition

INTERNAL = "internal"
TERMINAL_STABLE = "terminal-stable"
TERMINAL_DEAD = "terminal-dead"
TERMINAL_EXHAUSTED = "terminal-exhausted"


@dataclass
class TransformationGraph:
    """States still allowed by pi, with "A can turn into B" edges.

    `premise` is the `Premise.horn` of the valuation pi_nu and the
    disabled heads T the graph was built under, built once for every query
    asked under it; `compute_j` and `bounds.is_fast` extend it, and its
    `units` are pi_nu.  `gen_edges` has one key per non-idle rule that can
    still fire under `premise`, in rule order, mapped to the edges it
    generates; its values are the graph's edges.  `xi` is the protocol's
    table of the xi clause of each head of a non-idle rule (`RuleRows.xi`),
    the goals that `compute_j` and `bounds.is_fast` ask.  `scc` maps every
    vertex to its strongly connected component id; `bottom` marks component
    ids with no edge leaving the component.  Both are computed on first use:
    the graph of a stable or dead successor never needs them.
    """

    vertices: tuple[int, ...]
    gen_edges: dict[Transition, tuple[tuple[int, int], ...]]
    premise: Premise
    xi: dict[Head, tuple[int, int]]

    @cached_property
    def _components(self) -> tuple[dict[int, int], set[int]]:
        edges = [e for es in self.gen_edges.values() for e in es]
        return _scc_and_bottom(self.premise.p, self.vertices, edges)

    @property
    def scc(self) -> dict[int, int]:
        return self._components[0]

    @property
    def bottom(self) -> set[int]:
        return self._components[1]

    def crossing(self, edge: tuple[int, int]) -> bool:
        return self.scc[edge[0]] != self.scc[edge[1]]


@dataclass
class CaseAnalysis:
    """Everything computed while deriving one successor stage; the edge
    (parent, via-valuation) -> child is classified from these fields."""

    nu: Valuation
    stable: int | None = None  # consensus output when stable
    dead: bool = False
    exp: frozenset[Head] = frozenset()
    j: frozenset[Head] = frozenset()
    t_nu: frozenset[Head] = frozenset()
    k: frozenset[Head] = frozenset()
    i_states: frozenset[int] = frozenset()
    l: frozenset[Head] = frozenset()
    u_states: frozenset[int] = frozenset()
    nu_disabled: bool = False
    nu_enabled: bool = False
    fast: bool = False
    very_fast: bool = False


@dataclass
class Stage:
    id: int
    phi: Parts
    pi: Valuation
    disabled: frozenset[Head]  # T: permanently disabled heads
    parent: int | None
    kind: str = INTERNAL
    # how the stage was derived; its nu is the valuation of the parent's
    # formula that leads here.  None at the root
    analysis: CaseAnalysis | None = None
    children: list[int] = field(default_factory=list)


@dataclass
class StageGraph:
    protocol: PopulationProtocol
    stages: list[Stage]  # the root is stage 0

    def path_to_root(self, i: int) -> list[Stage]:
        out = []
        cur: int | None = i
        while cur is not None:
            out.append(self.stages[cur])
            cur = self.stages[cur].parent
        return out


class StageLimitError(RuntimeError):
    """Stage or time budget exceeded."""


def initial_stage(p: PopulationProtocol) -> Stage:
    """Stage denoting exactly the initial configurations: the input states'
    presence disjunction plus absence of every other state."""
    inputs = sorted(p.input_states())
    others = [i for i in range(len(p.states)) if i not in p.input_states()]
    phi = Parts(
        (tuple(-present(i) for i in others),),
        frozenset(),
        tuple((present(i),) for i in inputs),
    )
    return Stage(id=0, phi=phi, pi=(), disabled=frozenset(), parent=None)


# ---------------------------------------------------------------------------
# The persistent-valuation fixed point


class RuleRows:
    """What the case analysis reads of the non-idle rules of a protocol
    whose head is not in a set T of disabled heads, in rule order.  Built
    once per protocol and T on first use (`rule_rows`); the rows of each
    rule are made once per protocol and shared by every T.

    A mask is a set of states, bit s for state s.  `masks` has one row
    (lhs, pair, made, fresh, drain) per rule: the states of its head, the
    state it needs two agents of (0 when its head has two states), the
    states it produces, those it produces without consuming one and those
    it consumes without producing one.  Under (M, N), the states never
    populated again and those forever holding exactly one agent, a rule is
    blocked when lhs & M or pair & N.  `rules` has one row (t, lhs, edges,
    goal) per rule: the rule, the states of its head, the edges it
    generates in a transformation graph (`_residue`, loops dropped) and the
    xi clause of its head, `xi[t.lhs]`; `xi` has every head of a non-idle
    rule, disabled or not.  `used[a]` is the mask of the partners b of the
    rules on a head {a, b}, b != a, that do not give back exactly one a."""

    __slots__ = ("masks", "rules", "xi", "used")

    def __init__(self, width: int, masks: list, rules: list, xi: dict[Head, tuple[int, int]]):
        self.masks = masks
        self.rules = rules
        self.xi = xi
        self.used = [0] * width
        for t, *_ in rules:
            x, y = t.lhs
            if x != y:
                for a, b in ((x, y), (y, x)):
                    if t.rhs.count(a) != 1:
                        self.used[a] |= 1 << b


def rule_rows(p: PopulationProtocol, disabled: frozenset[Head]) -> RuleRows:
    """The `RuleRows` of the rules that the disabled heads leave, built on
    first use and kept on the protocol (`p.rows`)."""
    rows = p.rows.get(disabled)
    if rows is None:
        every = p.rows.get(frozenset())
        if every is None:
            xi = {t.lhs: xi_clause(t.lhs) for t in p.non_idle}
            masks, rules = [], []
            for t in p.non_idle:
                (x, y), (c, d) = t.lhs, t.rhs
                lhs, rhs = 1 << x | 1 << y, 1 << c | 1 << d
                masks.append((lhs, 1 << x if x == y else 0, rhs, rhs & ~lhs, lhs & ~rhs))
                edges = tuple(e for e in _residue(t) if e[0] != e[1])
                rules.append((t, lhs, edges, xi[t.lhs]))
            every = p.rows[frozenset()] = RuleRows(len(p.states), masks, rules, xi)
        keep = [t.lhs not in disabled for t in p.non_idle]
        rows = p.rows[disabled] = RuleRows(
            len(p.states),
            list(compress(every.masks, keep)),
            list(compress(every.rules, keep)),
            every.xi,
        )
    return rows


def mn_fixpoint(
    p: PopulationProtocol, disabled: frozenset[Head], nu: Valuation
) -> tuple[int, int]:
    """Greatest fixed point (M, N), as masks of states: states provably
    never populated again / forever holding exactly one agent, for
    configurations satisfying nu with the given permanently disabled heads.
    A negative odd literal -(2s + 1) of nu puts s in M, a positive even one
    2s + 2 in N.  Each round reads the rules that T leaves (`rule_rows`)
    once: a state leaves M when a rule that is not blocked produces it, and
    leaves N when such a rule produces it without consuming it, or when a
    rule on it and a partner outside M does not give back exactly one."""
    rows = rule_rows(p, disabled)
    m = n = 0
    for lit in nu:
        if lit < 0:
            if lit & 1:
                m |= 1 << (-lit >> 1)
        elif not lit & 1:
            n |= 1 << (lit >> 1) - 1
    masks, used = rows.masks, rows.used
    while True:
        made = fresh = spent = 0
        for lhs, pair, rhs, new, _ in masks:
            if not (lhs & m or pair & n):
                made |= rhs
                fresh |= new
        for a, partners in enumerate(used):
            if partners & ~m:
                spent |= 1 << a
        m2, n2 = m & ~made, n & ~(fresh | spent)
        if m2 == m and n2 == n:
            return m, n
        m, n = m2, n2


def compute_pi_nu(
    p: PopulationProtocol, disabled: frozenset[Head], nu: Valuation
) -> Valuation:
    """Extend the persistent valuation with the permanent part of nu; the
    literals come sorted by variable, as every valuation does."""
    m, n = mn_fixpoint(p, disabled, nu)
    # E: states nu makes present that no rule which is not blocked
    # consumes without restoring, so they keep exactly one agent
    drained = held = 0
    for lhs, pair, _, _, drain in rule_rows(p, disabled).masks:
        if not (lhs & m or pair & n):
            drained |= drain
    for lit in nu:
        if lit > 0 and lit & 1:
            held |= 1 << (lit >> 1)
    e = held & ~drained
    pi: list[int] = []
    for a in range(len(p.states)):
        if n >> a & 1:
            # a state of both M and N, which only an inconsistent nu gives,
            # is present
            pi += (present(a), single(a))
        elif m >> a & 1:
            pi.append(-present(a))
        elif e >> a & 1:
            pi.append(present(a))
    return tuple(pi)


# ---------------------------------------------------------------------------
# Transformation graph and its derived sets


def _residue(t: Transition) -> list[tuple[int, int]]:
    """Edges generated by a non-idle rule: either the four lhs-to-rhs pairs,
    or, when the sides share a state, the single residue edge."""
    a, b = t.lhs
    c, d = t.rhs
    lhs = [a, b]
    rhs = [c, d]
    for s in (a, b):
        if s in rhs:
            l2 = list(lhs)
            r2 = list(rhs)
            l2.remove(s)
            r2.remove(s)
            return [(l2[0], r2[0])]
    return sorted({(x, y) for x in lhs for y in rhs})


def build_transformation_graph(
    p: PopulationProtocol, pi_nu: Valuation, disabled: frozenset[Head]
) -> TransformationGraph:
    """The only place that decides which non-idle rules can still fire: a
    rule can unless pi_nu and the disabled heads entail that its head is
    disabled.  A head lying in T, or needing an absent state, is such a
    clause of the premise itself: the first has no row (`rule_rows`) and
    the second is skipped on its mask, both without a query."""
    rows = rule_rows(p, disabled)
    absent = 0
    for lit in pi_nu:
        if lit < 0 and lit & 1:
            absent |= 1 << (-lit >> 1)
    vertices = tuple(s for s in range(len(p.states)) if not absent >> s & 1)
    premise = Premise.horn(p, pi_nu, disabled)
    gen_edges: dict[Transition, tuple[tuple[int, int], ...]] = {}
    for t, lhs, es, goal in rows.rules:
        if lhs & absent or is_tautology(goal, premise):
            continue
        gen_edges[t] = es
    return TransformationGraph(vertices, gen_edges, premise, rows.xi)


def is_stable(p: PopulationProtocol, g: TransformationGraph) -> int | None:
    """Consensus output if every state still allowed and both products of
    every rule that can still fire share it (0 when no state is allowed),
    else None."""
    outs = {p.output(s) for s in g.vertices}
    for t in g.gen_edges:
        outs.update(p.output(s) for s in t.rhs)
    if len(outs) > 1:
        return None
    return outs.pop() if outs else 0


def is_dead(g: TransformationGraph, stable: int | None) -> bool:
    """True when the child is not stable yet no non-idle rule can fire
    again: every rule that is not blocked generates an entry of
    ``g.gen_edges``, so an empty map means nothing can fire."""
    return stable is None and not g.gen_edges


class ExplorationLimitError(RuntimeError):
    """The oracle's exploration cap or deadline was exceeded."""


def in_time(deadline: float | None) -> None:
    """Raise ExplorationLimitError once `time.monotonic()` has passed the
    deadline; no deadline never expires."""
    if deadline is not None and time.monotonic() >= deadline:
        raise ExplorationLimitError("timeout exceeded")


def scc_condensation(
    succ: list[list[int]], deadline: float | None = None
) -> tuple[list[int], list[list[int]]]:
    """Iterative Tarjan over nodes 0..len(succ)-1; returns (component id per
    node, members per id).  Ids come in reverse topological order: every
    edge between two components goes from the higher id to the lower one.

    Each frame of the search keeps an iterator over its node's successors,
    so a frame resumed after a child scans on from that child.  A numbered
    node without a component is on the stack.  With a `deadline`,
    ExplorationLimitError is raised once it has passed, tested at the first
    node numbered and every 256 after it."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    comp = [-1] * n
    members: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        if deadline is not None and not counter & 255:
            in_time(deadline)
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == -1:
                    if deadline is not None and not counter & 255:
                        in_time(deadline)
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                lv = low[v]
                if lv == index[v]:
                    cid = len(members)
                    group = []
                    while True:
                        w = stack.pop()
                        comp[w] = cid
                        group.append(w)
                        if w == v:
                            break
                    members.append(group)
                elif lv < low[work[-1][0]]:
                    # a node that does not close a component is not a root,
                    # so its parent frame is there
                    low[work[-1][0]] = lv
    return comp, members


def _scc_and_bottom(
    p: PopulationProtocol,
    vertices: tuple[int, ...],
    edges: Collection[tuple[int, int]],
) -> tuple[dict[int, int], set[int]]:
    """SCC id per vertex, and the ids of components no edge leaves."""
    succ: list[list[int]] = [[] for _ in p.states]
    for x, y in edges:
        succ[x].append(y)
    comp, _ = scc_condensation(succ)
    scc = {v: comp[v] for v in vertices}
    bottom = set(scc.values())
    for x, y in edges:
        if comp[x] != comp[y]:
            bottom.discard(comp[x])
    return scc, bottom


def compute_exp(g: TransformationGraph) -> frozenset[Head]:
    """Heads whose rules generate SCC-crossing edges; those rules become
    simultaneously disabled eventually with probability one."""
    out = set()
    for t, es in g.gen_edges.items():
        if any(g.crossing(e) for e in es):
            out.add(t.lhs)
    return frozenset(out)


def compute_j(g: TransformationGraph, exp: frozenset[Head]) -> frozenset[Head]:
    """Largest subset of exp whose disabling is irreversible: once all its
    rules are disabled, no still-enabled rule can re-enable any of them.
    A rule outside the graph is blocked under the graph's premise, hence
    under every stronger one asked here, so only its rules are checked; a
    rule whose head is in the current subset is blocked by a clause of the
    round's premise, so it is skipped without a query."""

    def head_ok(ef: Head, rules: list, base: Premise) -> bool:
        # base: the graph's premise with every head of the round's subset
        # disabled, and rules the (lhs, rhs, goal) of each rule of the
        # graph whose head is not in it, both made once per round.  A rule
        # producing E re-enables {E,F} when E was absent and F present, and
        # {E,E} when E held exactly one agent, so each goal is xi of the
        # rule's head, under the base with that guard added.  A rule that
        # consumes E cannot re-enable {E,E}.  A produced state's guarded
        # premise is built once, when a rule first needs it.
        e, f = ef
        if e == f:
            guards = ((e, (single(e),)),)
        else:
            guards = ((e, (-present(e), present(f))), (f, (-present(f), present(e))))
        guarded: dict[int, Premise] = {}
        for lhs, rhs, goal in rules:
            if rhs == ef:
                if not is_tautology(goal, base):
                    return False
                continue
            for prod, guard in guards:
                if prod not in rhs or (e == f and e in lhs):
                    continue
                premise = guarded.get(prod)
                if premise is None:
                    premise = guarded[prod] = base.with_units(guard)
                if not is_tautology(goal, premise):
                    return False
        return True

    m = set(exp)
    while True:
        base = g.premise.with_heads(m)
        rules = [(t.lhs, t.rhs, g.xi[t.lhs]) for t in g.gen_edges if t.lhs not in m]
        keep = {ef for ef in m if head_ok(ef, rules, base)}
        if keep == m:
            return frozenset(m)
        m = keep


def classify_nu_mode(nu: Valuation, j: frozenset[Head]) -> str:
    """"nu-disabled" / "nu-enabled" / "neither" per the formula of nu.

    nu, a valuation of the split, is consistent and fixes A wherever it
    fixes A!, so its literals with the coupling A! -> A entail xi(h) exactly
    when nu holds the negation of a literal of `not_xi(h)`, and entail not
    xi(h) exactly when nu holds both literals of `not_xi(h)`."""
    if not j:
        return "neither"
    held = set(nu)
    enabling = [not_xi(h) for h in j]
    if all(-l1 in held or -l2 in held for l1, l2 in enabling):
        return "nu-disabled"
    if any(l1 in held and l2 in held for l1, l2 in enabling):
        return "nu-enabled"
    return "neither"


def compute_k(g: TransformationGraph, j: frozenset[Head]) -> frozenset[Head]:
    """Right-hand sides of rules transforming a state that occurs in j."""
    q_nu = {s for h in j for s in h}
    out = set()
    for t, es in g.gen_edges.items():
        if any(x in q_nu for (x, _) in es):
            out.add(t.rhs)
    return frozenset(out)


def compute_i_and_l(
    p: PopulationProtocol, g: TransformationGraph
) -> tuple[frozenset[int], frozenset[Head]]:
    """Stable-edge analysis for the case without SCC-crossing rules.

    An edge of a rule is stable when the rule keeps a partner present in
    pi_nu (`g.premise.units`) on its left-hand side.  The partner must be a
    different state than the edge's source: a rule consuming two agents of
    the source state stops firing at count one and therefore never drains
    the source.  I is the union of non-bottom SCCs of the stable subgraph:
    those states must eventually drain for good, because a stable edge out
    of them stays fireable for as long as they are populated.

    L collects the right-hand side of every still-enabled rule with an edge
    that leaves I.  The step that empties the last I state may be any such
    rule, not only a stable-edge witness, so restricting L to stable edges
    would let that step land outside the successor's formula.
    """
    pi_nu = g.premise.units
    stable_edges = []
    for t, es in g.gen_edges.items():
        a, b = t.lhs
        for x, y in es:
            partner = b if a == x else a
            if partner != x and present(partner) in pi_nu:
                stable_edges.append((x, y))
    scc, bottom = _scc_and_bottom(p, g.vertices, stable_edges)
    i_states = frozenset(v for v in g.vertices if scc[v] not in bottom)
    l = frozenset(
        t.rhs
        for t, es in g.gen_edges.items()
        if any(x in i_states and y not in i_states for x, y in es)
    )
    return i_states, l


# ---------------------------------------------------------------------------
# Successor construction (one valuation)


@dataclass(frozen=True)
class Successor:
    """The stage one valuation nu of a parent's formula leads to, before
    ancestor pruning.  It depends on the parent's disabled heads T and on
    nu alone, so children with the same (T, nu) share one, read-only."""

    kind: str
    phi: Parts
    pi: Valuation
    disabled: frozenset[Head]
    analysis: CaseAnalysis


def case_analysis(
    p: PopulationProtocol, t_parent: frozenset[Head], nu: Valuation
) -> Successor:
    """Derive the successor for valuation nu of a parent with disabled
    heads t_parent."""
    pi_nu = compute_pi_nu(p, t_parent, nu)
    g = build_transformation_graph(p, pi_nu, t_parent)
    ca = CaseAnalysis(nu=nu)
    ca.stable = is_stable(p, g)
    ca.dead = is_dead(g, ca.stable)
    if ca.stable is not None or ca.dead:
        kind = TERMINAL_DEAD if ca.dead else TERMINAL_STABLE
        return Successor(kind, stage_formula((pi_nu,), frozenset()), pi_nu, t_parent, ca)

    ca.u_states = frozenset(v for v in g.vertices if g.scc[v] not in g.bottom)
    exp = compute_exp(g)
    ca.exp = exp
    j = compute_j(g, exp)
    ca.j = j

    units, some = (pi_nu,), None
    if exp:
        t_nu = frozenset(t_parent | (j if j else exp))
        ca.t_nu = t_nu
        mode = classify_nu_mode(nu, j)
        ca.nu_disabled = mode == "nu-disabled"
        ca.nu_enabled = mode == "nu-enabled"
        if ca.nu_disabled:
            units = (pi_nu, nu)
        elif ca.nu_enabled:
            ca.k = some = compute_k(g, j)
        ca.fast = bounds_mod.is_fast(g, exp, ca.u_states)
        ca.very_fast = bounds_mod.is_very_fast(g, ca.u_states)
    else:
        t_nu = t_parent
        ca.t_nu = t_nu
        i_states, l = compute_i_and_l(p, g)
        ca.i_states = i_states
        ca.l = l
        drained = tuple(-present(s) for s in sorted(i_states))
        if any(present(s) in nu for s in i_states):
            units, some = (pi_nu, drained), l
        elif all(-present(s) in nu for s in i_states):
            units = (pi_nu, nu)
        else:
            units = (pi_nu, drained)
    return Successor(INTERNAL, stage_formula(units, t_nu, some), pi_nu, t_nu, ca)


def build_child(
    p: PopulationProtocol,
    sg: StageGraph,
    parent: Stage,
    nu: Valuation,
    analyses: dict,
    splits: dict[Parts, list[Valuation]],
) -> Stage | None:
    """Construct the successor stage for one valuation of the parent's
    formula; returns None when a root-path ancestor already covers it: the
    ancestor has the child's pi and T, and its formula implies the child's
    on every valuation of its split (`splits`, by formula).

    `analyses` memoises `case_analysis` by (T, nu) across one build;
    pruning depends on the root path, so it runs for every child."""
    key = (parent.disabled, nu)
    succ = analyses.get(key)
    if succ is None:
        succ = analyses[key] = case_analysis(p, parent.disabled, nu)
    child = Stage(
        id=-1,
        phi=succ.phi,
        pi=succ.pi,
        disabled=succ.disabled,
        parent=parent.id,
        kind=succ.kind,
        analysis=succ.analysis,
    )
    if child.kind != INTERNAL:
        return child
    for anc in sg.path_to_root(parent.id):
        if (
            anc.pi == child.pi
            and anc.disabled == child.disabled
            and holds_throughout(child.phi, splits[anc.phi])
        ):
            return None
    return child


# ---------------------------------------------------------------------------
# The worklist


def build_stage_graph(
    p: PopulationProtocol,
    max_stages: int = 100_000,
    timeout: float = 1000.0,
) -> StageGraph:
    """Breadth-first construction of the full stage tree.  Each distinct
    formula is split into valuations once, and each distinct (T, nu) case
    analysis is derived once."""
    start = time.monotonic()
    sg = StageGraph(protocol=p, stages=[initial_stage(p)])
    work: deque[int] = deque([0])
    splits: dict[Parts, list[Valuation]] = {}
    analyses: dict[tuple[frozenset[Head], Valuation], Successor] = {}
    while work:
        sid = work.popleft()
        stage = sg.stages[sid]
        if stage.kind != INTERNAL:
            continue
        nus = splits.get(stage.phi)
        if nus is None:
            nus = splits[stage.phi] = enumerate_satisfying_valuations(p, stage.phi)
        for nu in nus:
            if len(sg.stages) >= max_stages:
                raise StageLimitError(f"stage limit {max_stages} exceeded")
            if time.monotonic() - start > timeout:
                raise StageLimitError(f"timeout {timeout}s exceeded")
            child = build_child(p, sg, stage, nu, analyses, splits)
            if child is None:
                continue
            child.id = len(sg.stages)
            sg.stages.append(child)
            stage.children.append(child.id)
            if child.kind == INTERNAL:
                work.append(child.id)
        if not stage.children:
            stage.kind = TERMINAL_EXHAUSTED
    return sg


# ---------------------------------------------------------------------------
# Export


def to_json_dict(sg: StageGraph) -> dict:
    """Full tree with case-analysis fields, suitable for machine diffing.
    Each distinct formula, valuation and case analysis is rendered once, by
    identity, and each distinct head or state set once, by value; the
    stages that share one share its rendering.  Literals and heads are
    named from tables built once per call; a literal's [name, value] pair
    is one list, shared by every valuation that holds it."""
    p = sg.protocol
    root = sg.stages[0].phi  # the root's own object: only stage 0 holds it
    names = literal_names(p.states)
    pairs = {lit: [names[abs(lit)], lit > 0] for lit in names}
    head_names = {h: p.head_name(h) for h in p.rules_by_head}
    head_lists: dict[frozenset[Head], list[str]] = {}
    state_lists: dict[frozenset[int], list[str]] = {}

    def heads_of(heads: frozenset[Head]) -> list[str]:
        if (got := head_lists.get(heads)) is None:
            got = head_lists[heads] = [head_names[h] for h in sorted(heads)]
        return got

    def states_of(states: frozenset[int]) -> list[str]:
        if (got := state_lists.get(states)) is None:
            got = state_lists[states] = [p.states[i] for i in sorted(states)]
        return got

    # renderings by id: every object stays alive while the tree is walked
    phis: dict[int, str] = {}
    vals: dict[int, list] = {id(None): []}
    blocks: dict[int, dict] = {}
    stages = []
    for s in sg.stages:
        if (phi := phis.get(id(s.phi))) is None:
            phi = phis[id(s.phi)] = pretty(s.phi, names, s.phi is root)
        if (pi := vals.get(id(s.pi))) is None:
            pi = vals[id(s.pi)] = [pairs[lit] for lit in s.pi]
        ca = s.analysis
        nu = None if ca is None else ca.nu
        if (via := vals.get(id(nu))) is None:
            via = vals[id(nu)] = [pairs[lit] for lit in nu]
        entry: dict = {
            "id": s.id,
            "parent": s.parent,
            "kind": s.kind,
            "phi": phi,
            "pi": pi,
            "disabled": heads_of(s.disabled),
            "children": list(s.children),
            "via": via,
        }
        if ca is not None:
            if (block := blocks.get(id(ca))) is None:
                block = blocks[id(ca)] = {
                    "stable": ca.stable,
                    "dead": ca.dead,
                    "exp": heads_of(ca.exp),
                    "j": heads_of(ca.j),
                    "t_nu": heads_of(ca.t_nu),
                    "k": heads_of(ca.k),
                    "l": heads_of(ca.l),
                    "i_states": states_of(ca.i_states),
                    "u_states": states_of(ca.u_states),
                    "nu_disabled": ca.nu_disabled,
                    "nu_enabled": ca.nu_enabled,
                    "fast": ca.fast,
                    "very_fast": ca.very_fast,
                    "bound": bounds_mod.edge_bound(ca).label,
                }
            entry["analysis"] = block
        stages.append(entry)
    return {
        "protocol": p.name,
        "states": list(p.states),
        "stages": stages,
    }


def to_dot(sg: StageGraph) -> str:
    """Graphviz rendering: one node per stage, labeled with its triple."""
    p = sg.protocol
    names = literal_names(p.states)
    head_names = {h: p.head_name(h) for h in p.rules_by_head}
    lines = ["digraph stages {", '  node [shape=box, fontname="monospace"];']
    for s in sg.stages:
        pi_s = " ".join(names[lit] for lit in s.pi)
        t_s = " ".join(head_names[h] for h in sorted(s.disabled))
        label = f"S{s.id} [{s.kind}]\\nPhi: {pretty(s.phi, names, s.id == 0)}\\npi: {pi_s or '-'}\\nT: {t_s or '-'}"
        if s.analysis is not None:
            label += f"\\nbound: {bounds_mod.edge_bound(s.analysis).label}"
        label = label.replace('"', '\\"')
        lines.append(f'  s{s.id} [label="{label}"];')
    for s in sg.stages:
        for c in s.children:
            lines.append(f"  s{s.id} -> s{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"
