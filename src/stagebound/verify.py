"""Finite-instance oracle: explicit-state exploration of the induced Markov
chain, probability-one modal checks, exact expected hitting times, stage-tree
validation, and seeded Monte Carlo simulation.

Almost-sure reachability on a finite chain reduces to a graph criterion:
with the target made absorbing, the target must stay reachable from every
configuration reachable along target-avoiding runs.  That is the bridge
used for both the eventually-operator and the stage progress condition.

Every question the oracle asks is thus a backward closure, and the closures
of one chain run in batches: each query owns a bit, each node carries one
int of query bits, and one pass visits the chain's strongly connected
components once, in reverse topological order (`ReachGraph.backward_reach`).
A node set that depends only on a node's key, such as a formula's models,
is an int over the chain's distinct keys and becomes per-node query bits by
one transposition (`ReachGraph.node_bits`).
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, log, log1p
from operator import add, mul

import numpy as np

from .logic import Parts, evaluate, not_xi, present, single
from .protocol import (
    Configuration,
    PopulationProtocol,
    Row,
    StepKernel,
    encode,
    initial_configuration,
    step_distribution,  # noqa: F401  (perfbench/tracing.py wraps it here)
)
from .stagegraph import ExplorationLimitError, Stage, StageGraph, in_time, scc_condensation


def _by_key(rows: list[int], width: int) -> list[int]:
    """The transpose of a bit matrix: bit q of the j-th result is bit j of
    rows[q], for j < width.  A row's set bits are found by searching its
    binary digits, least significant first."""
    out = [0] * width
    for q, row in enumerate(rows):
        bit = 1 << q
        digits = bin(row)[:1:-1]
        j = digits.find("1")
        while j >= 0:
            out[j] |= bit
            j = digits.find("1", j + 1)
    return out


@dataclass
class ReachGraph:
    """Finite chain over the configurations reachable from the roots.

    Node v is the configuration whose count vector is `counts[v]`; the
    Configurations themselves (`nodes`) are made on first use.
    Transitions are integers: `links[v]` lists v's productive successors
    u, never v itself, and `weights[v]` their weights w, in the same order,
    and P(v, u) = w / den[v].  The idle interactions, which leave v as it
    is, weigh what the row leaves of its denominator, den[v] -
    sum(weights[v]); that self-loop is not stored.

    Formulas are evaluated on keys, not on nodes: a node's key is its count
    vector clipped at 2, which fixes every presence and singleton variable.
    `keys[v]` is the number of node v's key and `key_counts[j]` the key
    numbered j, keys being numbered as first met in node order; all three
    are filled by `explore` as it goes.  The graph keeps, per variable, one
    int whose bit j is the variable's value at key j (`key_masks`)."""

    protocol: PopulationProtocol
    counts: list[tuple[int, ...]]
    links: list[list[int]]
    weights: list[list[int]]
    den: list[int]
    roots: list[int]
    keys: list[int]
    key_counts: list[tuple[int, ...]]

    def __post_init__(self) -> None:
        self._components: tuple[list[int], list[list[int]]] | None = None

    @property
    def size(self) -> int:
        return len(self.links)

    @cached_property
    def nodes(self) -> list[Configuration]:
        """The configuration of every node, made on first use."""
        return [Configuration(c) for c in self.counts]

    def condensation(self, deadline: float | None = None) -> tuple[list[int], list[list[int]]]:
        """The chain's strongly connected components, built once per graph:
        the component of every node and the members of every component,
        numbered in reverse topological order (`scc_condensation`).  The
        `deadline` bounds the build, on the call that makes it."""
        if self._components is None:
            self._components = scc_condensation(self.links, deadline)
        return self._components

    @cached_property
    def key_masks(self) -> dict[int, int]:
        """The bit mask of every variable over the distinct keys."""
        masks = dict.fromkeys(range(1, 2 * len(self.protocol.states) + 1), 0)
        for j, key in enumerate(self.key_counts):
            bit = 1 << j
            for s, k in enumerate(key):
                if k:
                    masks[present(s)] |= bit
                    if k == 1:
                        masks[single(s)] |= bit
        return masks

    def key_set(self, phi: Parts) -> int:
        """The keys that satisfy phi, as an int over the keys: phi is
        evaluated once, bit-parallel."""
        return evaluate(phi, self.key_masks) & ((1 << len(self.key_counts)) - 1)

    def sat(self, phi: Parts) -> set[int]:
        """Nodes whose configuration satisfies phi: the nodes of the keys
        of `key_set`."""
        hit = self.key_set(phi)
        return {v for v, j in enumerate(self.keys) if hit >> j & 1}

    def node_bits(self, rows: list[int]) -> list[int]:
        """Per node, the query bits of a batch of key sets: bit q is set at
        node v iff v's key is in rows[q], an int over the keys."""
        per_key = _by_key(rows, len(self.key_counts))
        return [per_key[j] for j in self.keys]

    def backward_reach(
        self, seed: list[int], blocked: list[int] | None = None, deadline: float | None = None
    ) -> list[int]:
        """A batch of backward closures, one per bit.  Bit q of the result
        at v is set iff some path from v, v included, reaches a node with
        bit q of `seed` through nodes without bit q of `blocked` (per-node
        ints; no bit is blocked when it is None): a seed node is always in,
        and a blocked one only as a seed.

        The components are visited once, sinks first, so every successor
        outside a component is final when it is reached.  A component in
        which no node blocks a bit is strongly connected for every bit, so
        all its nodes share one answer: the OR of its seeds and of its
        successors' results.  Only inside a component that some node
        blocks is the closure run node by node.  With a `deadline`,
        ExplorationLimitError is raised once it has passed, tested while the
        condensation is built and at the first component and every 256
        after it."""
        comp, members = self.condensation(deadline)
        links = self.links
        res = [0] * len(links)
        for cid, group in enumerate(members):
            if deadline is not None and not cid & 255:
                in_time(deadline)
            # the nodes of this component still read 0, so successors inside
            # it add nothing
            if len(group) == 1:
                v = group[0]
                acc = 0
                for u in links[v]:
                    acc |= res[u]
                if blocked is not None:
                    acc &= ~blocked[v]
                res[v] = seed[v] | acc
            elif blocked is not None and any(blocked[v] for v in group):
                preds: dict[int, list[int]] = {v: [] for v in group}
                for v in group:
                    acc = 0
                    for u in links[v]:
                        if comp[u] == cid:
                            preds[u].append(v)
                        else:
                            acc |= res[u]
                    res[v] = seed[v] | acc & ~blocked[v]
                work = [v for v in group if res[v]]
                while work:
                    v = work.pop()
                    for u in preds[v]:
                        grown = res[u] | res[v] & ~blocked[u]
                        if grown != res[u]:
                            res[u] = grown
                            work.append(u)
            else:
                acc = 0
                for v in group:
                    acc |= seed[v]
                    for u in links[v]:
                        acc |= res[u]
                for v in group:
                    res[v] = acc
        return res

    def box_set(
        self, sat: list[int], queries: int, deadline: float | None = None
    ) -> list[int]:
        """Per node, bit q set iff every node reachable from it has bit q of
        `sat`, for `queries` bits."""
        full = (1 << queries) - 1
        return _flip(self.backward_reach([full & ~s for s in sat], None, deadline), full)

    def almost_sure_reach(
        self, target: list[int], queries: int, deadline: float | None = None
    ) -> list[int]:
        """Per node, bit q set iff its runs hit the nodes with bit q of
        `target` with probability one, for `queries` bits.

        The target is made absorbing first: a run counts as soon as it
        touches the target, whatever happens afterwards.  On the cut chain
        the criterion is "no reachable node misses the target"."""
        full = (1 << queries) - 1
        cannot = _flip(self.backward_reach(target, None, deadline), full)
        # on the cut chain a target node has no outgoing edge: it only ever
        # seeds the first closure and is never passed through by the second
        return _flip(self.backward_reach(cannot, target, deadline), full)


def _flip(bits: list[int], full: int) -> list[int]:
    """Complement every node's bits within `full`, in place."""
    for v, b in enumerate(bits):
        bits[v] = full ^ b
    return bits


def explore(
    p: PopulationProtocol,
    roots: Configuration | list[Configuration],
    cap: int = 200_000,
    deadline: float | None = None,
) -> ReachGraph:
    """BFS closure of the root configuration(s) under the step relation.

    The roots may have different sizes.  No step changes the size, so the
    chain is the disjoint union of one closure per size, and each size's
    nodes keep the relative order that a BFS from its roots alone gives.
    The cap counts per size: reaching more than `cap` configurations of
    one size raises ExplorationLimitError, however many other sizes hold,
    and so does a `time.monotonic()` past `deadline`, tested every 256
    nodes.

    The BFS runs on codes: a count vector is a big-endian number whose base
    is the largest root size plus one, so codes order as their count
    vectors, and a rule moves a code by a fixed delta.  A node's counts
    are clipped at 2 into its key.  The first time a key is met, its
    `StepKernel` rows, the productive rules, are kept sorted by delta;
    every node of the key reads its successors and weights off them.  So a
    node's successors come in increasing code order, the order of their
    Configurations, and rules with one successor sit next to each other,
    where their weights add up.  What they leave of the node's denominator
    (n^2 - n) * L is its idle weight, which no edge carries.  A node's
    counts are made once, when it is numbered, from its parent's and the
    row's change.  The graph keeps the counts, the keys, the successor
    lists and their weights, all filled as the BFS goes."""
    if isinstance(roots, Configuration):
        roots = [roots]
    if any(c.size < 2 for c in roots):
        raise ValueError("configurations need at least two agents")
    base = max((c.size for c in roots), default=0) + 1
    kernel = StepKernel(p, base)
    change, big = kernel.change, p.lcm
    ids: dict[int, int] = {}
    order: list[int] = []
    counts: list[tuple[int, ...]] = []
    den: list[int] = []
    per_size: dict[int, int] = {}  # nodes per size, keyed by its denominator
    root_ids = []
    for c in roots:
        code = encode(c.counts, base)
        i = ids.get(code)
        if i is None:
            i = ids[code] = len(order)
            order.append(code)
            counts.append(c.counts)
            den.append((c.size**2 - c.size) * big)
            per_size[den[i]] = per_size.get(den[i], 0) + 1
        root_ids.append(i)
    key_ids: dict[tuple[int, ...], int] = {}
    key_rows: list[list[Row]] = []
    keys: list[int] = []
    links: list[list[int]] = []
    weights: list[list[int]] = []
    # nodes are numbered as they are queued, so the BFS visits them by number
    for v, code in enumerate(order):
        if deadline is not None and not v & 255:
            in_time(deadline)
        c = counts[v]
        key = tuple([k if k < 2 else 2 for k in c])
        j = key_ids.get(key)
        if j is None:
            j = key_ids[key] = len(key_rows)
            key_rows.append(sorted(kernel.rows(key)))
        dv, outs, ws, last = den[v], [], [], None
        # StepKernel.weights inlined: a call per node cost 10-20% on 2 vCPUs
        for d, a, b, e, k in key_rows[j]:
            w = c[a] * (c[b] - e) * k
            if d == last:
                ws[-1] += w
                continue
            last = d
            s = code + d
            u = ids.get(s)
            if u is None:
                if per_size[dv] >= cap:
                    raise ExplorationLimitError(f"exploration cap {cap} exceeded")
                per_size[dv] += 1
                u = ids[s] = len(order)
                order.append(s)
                counts.append(tuple(map(add, c, change[d, a, b])))
                den.append(dv)
            outs.append(u)
            ws.append(w)
        keys.append(j)
        links.append(outs)
        weights.append(ws)
    return ReachGraph(p, counts, links, weights, den, root_ids, keys, list(key_ids))


def stable_set(g: ReachGraph) -> set[int]:
    """Nodes from which all reachable configurations agree on one output:
    one pass, whose two queries are "always, every populated state outputs
    0" and the same for 1.  The keys where every populated state outputs x
    are those where no state with the other output is present."""
    p = g.protocol
    masks = g.key_masks
    other = [0, 0]
    for s in range(len(p.states)):
        other[1 - p.output(s)] |= masks[present(s)]
    full = (1 << len(g.key_counts)) - 1
    sat = g.node_bits([full & ~other[0], full & ~other[1]])
    return {v for v, bits in enumerate(g.box_set(sat, 2)) if bits}


# ---------------------------------------------------------------------------
# Exact expected hitting times


def expected_steps_all(g: ReachGraph, target: set[int]) -> list:
    """First-hitting expectations for every node; the target is absorbing.

    E[v] = 1 + sum_u P(v,u) E[u] is solved exactly in one pass over the
    chain's condensation, sinks first.  A component is a block unless the
    target splits it (a forward-closed target such as the stable set never
    does); then it is condensed again without its target nodes.  The pass
    decides the almost-sure region as it goes: a block is in it iff some
    edge leaves it and every edge that does reaches a target or a solved
    node, so that its runs leave it almost surely.  A node outside the
    region gets None, its expectation diverging; a root among them is an
    error.  A one-node block is one division, a larger one is solved by
    `_solve_block`, and each solved node becomes a Fraction at once, whose
    reduced numerator and denominator its predecessors read."""
    links, weights, dens = g.links, g.weights, g.den
    expect: list = [None] * g.size
    pair: list = [None] * g.size  # expect[v] as (numerator, denominator)
    zero = Fraction(0)
    for v in target:
        expect[v], pair[v] = zero, (0, 1)
    slot = [-1] * g.size  # a node's place in the block being solved, else -1
    for group in g.condensation()[1]:  # sinks first
        if len(group) == 1:
            blocks = () if pair[group[0]] else (group,)
        elif len(todo := [v for v in group if pair[v] is None]) == len(group):
            blocks = [todo]
        else:  # the target splits the group, or holds all of it
            for i, v in enumerate(todo):
                slot[v] = i
            inner = [[slot[u] for u in links[v] if slot[u] >= 0] for v in todo]
            for v in todo:
                slot[v] = -1
            blocks = [[todo[i] for i in block] for block in scc_condensation(inner)[1]]
        for block in blocks:
            if len(block) > 1:
                solved = _solve_block(g, block, pair, slot)
            else:
                # (sum w) E[v] = den[v] + sum w E[u], over v's productive moves
                v = block[0]
                num, q, diag = 0, 1, 0
                for u, w in zip(links[v], weights[v]):
                    if (e := pair[u]) is None:
                        diag = 0  # v diverges with u
                        break
                    diag += w
                    if e[1] == q:
                        num += w * e[0]
                    elif e[0]:
                        num = num * e[1] + w * e[0] * q
                        q *= e[1]
                solved = [Fraction(num + dens[v] * q, q * diag)] if diag else ()
            for v, e in zip(block, solved):
                expect[v], pair[v] = e, e.as_integer_ratio()
    if not all(pair[r] is not None for r in g.roots):
        raise ValueError("target not almost surely reachable; expectation diverges")
    return expect


def _solve_block(g: ReachGraph, block: list[int], pair: list, slot: list[int]) -> list:
    """The expectations of a block of several nodes, or none outside the
    almost-sure region.  Row i (node v = block[i]) holds the sum of v's
    weights on the diagonal less its weights into the block, and den[v] +
    sum w E[u] over v's successors u outside it, brought over the lcm q of
    their denominators."""
    links, weights, dens = g.links, g.weights, g.den
    for i, v in enumerate(block):
        slot[v] = i
    rows, rhs = [], []
    out = [pair[u] for v in block for u in links[v] if slot[u] < 0]
    if out and None not in out:  # some edge leaves the block, and none diverges
        scale = dict.fromkeys([y for _, y in out])  # q // y per distinct y
        q = lcm(*scale)
        for y in scale:
            scale[y] = q // y
        for i, v in enumerate(block):
            ws = weights[v]
            row = {i: sum(ws)}
            b = dens[v] * q
            for u, w in zip(links[v], ws):
                j = slot[u]
                if j < 0:
                    x, y = pair[u]
                    b += w * x * scale[y]
                else:
                    row[j] = -w
            rows.append(row)
            rhs.append(b)
    for v in block:
        slot[v] = -1
    return _solve_sparse(rows, rhs, q) if rows else []


def _solve_sparse(rows: list[dict[int, int]], rhs: list[int], q: int) -> list[Fraction]:
    """The solution x of sum_j rows[i][j] x_j = rhs[i] / q, each row a dict
    {column: nonzero entry}, eliminated fraction-free in order and in
    place: row r is multiplied by the pivot of each column j < r that it
    holds, in increasing j, less row j times its entry, which may fill in
    columns after j or cancel them.  A row updated once is then a minor, as
    in Bareiss's method (on a tridiagonal system the pivots are the leading
    principal minors); one updated more often, a cancelled column counting
    as an update, is divided by its content, which keeps it no larger.  The
    pivots leave the rows, and q x is back-substituted in reduced integer
    pairs.  A zero pivot raises ValueError; a block that leaves almost
    surely has none, den (I - Q) being a nonsingular M-matrix."""
    pivots = []
    for r, row in enumerate(rows):
        low = sorted([j for j in row if j < r])
        if low:
            b, updates = rhs[r], 0
            for j in low:  # a fill-in column k < r is inserted after j
                f = row.pop(j)
                updates += 1  # a column that an update cancelled counts as one
                if not f:
                    continue
                p = pivots[j]
                for k in row:
                    row[k] *= p
                b = p * b - f * rhs[j]
                for k, a in rows[j].items():
                    if k in row:
                        row[k] -= f * a
                    else:
                        row[k] = -f * a
                        if k < r:
                            insort(low, k)
            if updates > 1 and (m := gcd(b, *row.values())) > 1:
                for k in row:
                    row[k] //= m
                b //= m
            rhs[r] = b
        pivots.append(row.pop(r, 0))
        if not pivots[r]:
            raise ValueError("singular hitting-time system")
    zs = [(0, 1)] * len(rows)
    for r in range(len(rows) - 1, -1, -1):
        num, d = rhs[r], 1
        for c, a in rows[r].items():
            x, y = zs[c]
            num = num * y - a * x * d
            d *= y
        d *= pivots[r]
        m = gcd(num, d)
        zs[r] = (num // m, d // m)
    return [Fraction(x, y * q) for x, y in zs]


# ---------------------------------------------------------------------------
# Stage-tree validation (conditions (a) and (b))


@dataclass
class Violation:
    size: int
    condition: str  # "initial-membership" | "progress"
    stage: int
    config: Configuration

    def __str__(self) -> str:
        return (
            f"n={self.size}: condition {self.condition} fails at stage "
            f"{self.stage} for configuration {self.config.counts}"
        )


def initial_configurations(p: PopulationProtocol, n: int) -> list[Configuration]:
    """All initial configurations of size n (inputs are compositions of n
    over the input alphabet)."""
    syms = list(p.input_symbols)
    out = []
    seen = set()
    for combo in _compositions(n, len(syms)):
        c = initial_configuration(p, dict(zip(syms, combo)))
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def _compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, k - 1):
            yield (head,) + rest


def stage_denotation(
    g: ReachGraph, stages: list[Stage], deadline: float | None = None
) -> list[int]:
    """Per node, bit i set iff the node is in [[stages[i]]]: it satisfies
    Phi now, and pi plus the disabled heads from now on (evaluated over the
    finite closure).

    Every set here is an int over the keys.  Phi is evaluated on its
    formula.  The persist set of (pi, T) is the AND of pi's literal masks
    and, for each head of T, the negation of the AND of its `not_xi` pair,
    made once per distinct head.  One `box_set` pass answers the persist
    sets of all the stages."""
    masks = g.key_masks
    full = (1 << len(g.key_counts)) - 1

    def lit(x: int) -> int:
        return masks[x] if x > 0 else ~masks[-x]

    disabled: dict = {}
    persist = []
    for s in stages:
        m = full
        for x in s.pi:
            m &= lit(x)
        for h in s.disabled:
            hm = disabled.get(h)
            if hm is None:
                x, y = not_xi(h)
                hm = disabled[h] = ~(lit(x) & lit(y))
            m &= hm
        persist.append(m & full)
    box = g.box_set(g.node_bits(persist), len(stages), deadline)
    now = g.node_bits([g.key_set(s.phi) for s in stages])
    return [a & b for a, b in zip(now, box)]


def stage_triple(s: Stage) -> tuple:
    """The part of a stage its denotation depends on: (Phi, pi, T)."""
    return (s.phi, s.pi, s.disabled)


def check_stage_graph(
    p: PopulationProtocol, sg: StageGraph, max_n: int, *, timeout: float | None = None
) -> list[Violation]:
    """Check the two stage-graph conditions for every initial configuration
    of size 2..max_n: (a) the root stage covers every initial configuration;
    (b) from every reachable configuration in a non-terminal stage, the union
    of its children's denotations is reached almost surely.

    The initial configurations of all sizes are the roots of one chain,
    explored with the cap counted per size.  No step changes the size, so
    every closure on that chain is the union of the closures of the chains
    per size, and the answers are theirs.  Each distinct stage triple is
    one query of one denotation pass, and each distinct pair of a triple
    and its children's triples is one query of one almost-sure pass; both
    run over the chain's condensation.  Violations are reported by size,
    initial membership before progress, then in stage order, configurations
    in chain order.

    With a `timeout` in seconds, ExplorationLimitError is raised once it
    has passed; it is tested before the initial configurations of each
    size are listed, every 256 nodes of the exploration, and every 256
    components of each pass from its first."""
    deadline = None if timeout is None else time.monotonic() + timeout
    roots: list[Configuration] = []
    for n in range(2, max_n + 1):
        in_time(deadline)
        roots += initial_configurations(p, n)
    if not roots:
        return []
    g = explore(p, roots, deadline=deadline)
    ids: dict[tuple, int] = {}
    first: dict[int, Stage] = {}
    tri = []
    for s in sg.stages:
        t = ids.setdefault(stage_triple(s), len(ids))
        first.setdefault(t, s)
        tri.append(t)
    denote = stage_denotation(g, list(first.values()), deadline)
    # (size, condition, stage id, node) of every violation; a stage's id is
    # its position in sg.stages.  The root is stage 0, whose triple is 0
    found = [(sum(g.counts[i]), 0, 0, i) for i in g.roots if not denote[i] & 1]
    # progress: query k asks whether the nodes of triple t reach the union
    # of the triples in the bit mask `kids` almost surely
    pairs: dict[tuple[int, int], int] = {}
    asked = []
    for s, t in zip(sg.stages, tri):
        if s.children:
            kids = 0
            for cid in s.children:
                kids |= 1 << tri[cid]
            asked.append((s.id, pairs.setdefault((t, kids), len(pairs))))
    if pairs:
        # a node's target and member bits depend only on its denotation
        # bits, which few distinct ints make up
        bits_of: dict[int, tuple[int, int]] = {}
        target = []
        member = []
        for d in denote:
            tm = bits_of.get(d)
            if tm is None:
                tb = mb = 0
                for k, (t, kids) in enumerate(pairs):
                    if d & kids:
                        tb |= 1 << k
                    if d >> t & 1:
                        mb |= 1 << k
                tm = bits_of[d] = (tb, mb)
            target.append(tm[0])
            member.append(tm[1])
        good = g.almost_sure_reach(target, len(pairs), deadline)
        stuck: list[list[int]] = [[] for _ in pairs]
        for v, (mb, ok) in enumerate(zip(member, good)):
            bad = mb & ~ok
            while bad:
                low = bad & -bad
                stuck[low.bit_length() - 1].append(v)
                bad ^= low
        found += [(sum(g.counts[i]), 1, sid, i) for sid, k in asked for i in stuck[k]]
    return [
        Violation(n, ("initial-membership", "progress")[k], sid, Configuration(g.counts[i]))
        for n, k, sid, i in sorted(found)
    ]


# ---------------------------------------------------------------------------
# Monte Carlo simulation


@dataclass
class SimResult:
    trials: int
    steps: tuple[int, ...]
    seed: int
    consensus: tuple[int | None, ...]  # output value at the stopping config

    @property
    def mean(self) -> float:
        return sum(self.steps) / len(self.steps) if self.steps else float("nan")

    @property
    def variance(self) -> float:
        """Unbiased sample variance of the interaction counts."""
        k, m = len(self.steps), self.mean
        return sum((s - m) ** 2 for s in self.steps) / (k - 1) if k > 1 else float("nan")

    @property
    def stderr(self) -> float:
        k = len(self.steps)
        return (self.variance / k) ** 0.5 if k > 1 else float("nan")


_BLOCK = 256  # trials advanced together
_WORDS = 128  # Philox words fetched at a time per trial, a multiple of 4
_SPAN = 2**63  # bound on the cumulative weights of `_Moves`
_CHUNK = 2**14  # nodes whose moves `_Moves` builds together
_NEAR = 1e-9  # relative distance from an integer at which `_gaps` takes math.log
_LOW, _TOP, _U32 = np.uint64(0xFFFFFFFF), np.uint64(0x100000000), np.uint64(32)


class PhiloxStreams:
    """`Generator(Philox(key)).random()` and `.integers(0, b)`, call for call,
    for one stream per key: a call draws once from each of the distinct
    streams idx (`random`: from every stream when idx is None).  As numpy
    does, `random` maps a word w to (w >> 11) * 2**-53; a bound up to 2**32
    takes 32-bit values, a word's low half, then its high half, and a larger
    one whole words; a value x gives (x * b) >> bits unless the product's
    low bits are below (2**bits - b) % b, when it is drawn again (Lemire).
    All word arithmetic is uint64, which every numpy promotes alike.  A
    stream out of words fetches `_WORDS` more (`_fill`).  The streams stand
    for the unfinished runs of a block: `keep` drops the others, and idx
    counts among those kept.  Each stream's word position and kept half sit
    beside it, so a draw from every stream reads and advances them in
    place."""

    def __init__(self, keys: list[int]):
        self._keys = [(k % 2**64, k >> 64) for k in keys]  # Philox key words
        self._bits = np.random.Philox(0)
        self._state = self._bits.state  # counter 0, buffer empty
        self._buf = np.zeros((len(keys), _WORDS), np.uint64)
        # per kept stream: its row of `_buf` and `_keys`, the words it has
        # taken and its kept half (_TOP: none)
        self._row = np.arange(len(keys))
        self._taken = np.zeros(len(keys), np.int64)
        self._half = np.full(len(keys), _TOP)

    def keep(self, kept) -> None:
        """Keep only the streams `kept` (a mask, an index or a slice), in order."""
        self._row, self._taken, self._half = self._row[kept], self._taken[kept], self._half[kept]

    def _fill(self, empty: np.ndarray) -> None:
        """Fetch the next `_WORDS` words of each stream in `empty`."""
        for row, taken in zip(self._row[empty].tolist(), self._taken[empty].tolist()):
            self._state["state"] = {"counter": (taken // 4, 0, 0, 0), "key": self._keys[row]}
            self._bits.state = self._state
            self._buf[row] = self._bits.random_raw(_WORDS)

    def _places(self, idx: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """The words taken by streams idx and their places in their buffers,
        once the empty buffers are filled: each of the streams draws next."""
        taken = self._taken if idx is None else self._taken[idx]
        at = taken % _WORDS
        if np.count_nonzero(at) < at.size:
            empty = (at == 0).nonzero()[0]
            self._fill(empty if idx is None else idx[empty])
        return taken, at

    def _word(self, idx: np.ndarray | None = None) -> np.ndarray:
        taken, at = self._places(idx)
        if idx is None:
            self._taken += 1
            return self._buf[self._row, at]
        self._taken[idx] = taken + 1
        return self._buf[self._row[idx], at]

    def _next32(self, idx: np.ndarray) -> np.ndarray:
        out = self._half[idx]
        fresh = out == _TOP
        w = self._word(idx[fresh])
        out[fresh], half = w & _LOW, np.full(len(idx), _TOP)
        half[fresh] = w >> _U32
        self._half[idx] = half
        return out

    def random(self, idx: np.ndarray | None = None) -> np.ndarray:
        return _unit(self._word(idx))

    def randoms(self, most: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`random` called up to most[i] >= 1 times by every kept stream i,
        as many times as its buffer holds words: each stream's number of
        calls, and their values, stream by stream.  An empty buffer is
        filled first, as the stream's next word would fill it."""
        at = self._places(None)[1]
        take = np.minimum(most, _WORDS - at)
        begin = np.cumsum(take) - take
        self._taken += take
        words = np.repeat(self._row * _WORDS + at - begin, take) + np.arange(int(take.sum()))
        return take, _unit(self._buf.ravel()[words])

    def integers(self, idx: np.ndarray, bound: np.ndarray) -> np.ndarray:
        """For uint64 bounds in [2, 2**63]."""
        wide = bound > _TOP
        if not np.count_nonzero(wide):
            return self._bounded(idx, bound, True)
        out = np.empty(len(idx), np.uint64)
        out[~wide] = self._bounded(idx[~wide], bound[~wide], True)
        out[wide] = self._bounded(idx[wide], bound[wide], False)
        return out

    def _bounded(self, idx: np.ndarray, b: np.ndarray, narrow: bool) -> np.ndarray:
        draw = self._next32 if narrow else self._word
        hi, lo = _product(draw(idx), b, narrow)
        bad = (lo < b).nonzero()[0]
        if bad.size:
            limit = ((_TOP - b[bad]) if narrow else (~b[bad] + np.uint64(1))) % b[bad]
            while (keep := lo[bad] < limit).any():
                bad, limit = bad[keep], limit[keep]
                hi[bad], lo[bad] = _product(draw(idx[bad]), b[bad], narrow)
        return hi


def _unit(w: np.ndarray) -> np.ndarray:
    """numpy's `random()` of the words w."""
    return (w >> np.uint64(11)) * 2.0**-53


def _product(x: np.ndarray, b: np.ndarray, narrow: bool) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 32-bit halves of x * b if `narrow`, else 64-bit ones."""
    if narrow:
        m = x * b
        return m >> _U32, m & _LOW
    x0, x1, b0, b1 = x & _LOW, x >> _U32, b & _LOW, b >> _U32
    mid = x1 * b0 + (x0 * b0 >> _U32)
    return x1 * b1 + (mid >> _U32) + (x0 * b1 + (mid & _LOW) >> _U32), x * b


def _gaps(u: np.ndarray, logq: np.ndarray) -> np.ndarray:
    """log(u) / logq by numpy's log, but by `math.log` where the quotient
    is within `_NEAR` of an integer: the logs differ by an ulp or so, which
    moves a quotient across an integer only within a few ulps of one, so
    the floors and the orders against integers are `math.log`'s."""
    q = np.log(u) / logq
    near = (np.abs(q - np.rint(q)) <= _NEAR * q).nonzero()[0]
    if near.size:
        q[near] = np.fromiter(map(log, u[near].tolist()), float, near.size) / logq[near]
    return q


class _Moves:
    """The productive moves of every node of a closure, built at once from
    its graph and stop set; nodes keep the graph's numbering.  Node v has in
    `count` its number of moves (-2 if stop), in `total` their weight W out
    of (n^2 - n) L, in `offset` the weight of the nodes before it and in
    `logq` log1p(-W / ((n^2 - n) L)), or 0.  Its moves are its key's
    `StepKernel` rows, in head then rule order, from `first` on; per move,
    `succ` holds the successor and `key` the cumulative weight plus the
    offset, so one search finds the move of each r in [0, W) at r + offset.
    A row's successor is read off `links`, which holds one successor per
    distinct delta of the node's key, sorted by code: its column is its
    delta's place among those deltas.  Moves that weigh `_SPAN` = 2**63 in
    all, past int64, raise ValueError."""

    def __init__(self, g: ReachGraph, stop: set[int]):
        n, full = sum(g.counts[0]), g.den[0]
        kernel = StepKernel(g.protocol, n + 1)
        # each key's rows as (a, b, e, k, column in `links`), and how many it has
        table, many = [], []
        for key in g.key_counts:
            rows = kernel.rows(key)
            deltas = sorted({d for d, *_ in rows})
            many.append(len(rows))
            for d, a, b, e, k in rows:
                table.append((a, b, e, k, bisect_left(deltas, d)))
        a, b, e, k, col = np.array(table, np.int64).reshape(-1, 5).T
        many = np.array(many, np.int64)
        first = np.cumsum(many) - many  # where each key's rows begin
        size, states = g.size, len(g.counts[0])
        count = many[np.fromiter(g.keys, np.int64, size)]
        count[list(stop)] = 0
        self.key, self.succ = np.empty((2, int(count.sum())), np.int64)
        total, s = np.zeros(size, np.int64), 0
        for lo in range(0, size, _CHUNK):  # the temporaries of `_CHUNK` nodes at a time
            part = slice(lo, lo + _CHUNK)
            keys = np.fromiter(g.keys[part], np.int64)
            width = np.fromiter(map(len, g.links[part]), np.int64)
            m = count[part]
            t, begin = s + int(m.sum()), np.cumsum(m) - m
            row = np.repeat(first[keys] - begin, m) + np.arange(t - s)
            c = np.fromiter(chain.from_iterable(g.counts[part]), np.int64, len(m) * states)
            at = np.repeat(np.arange(0, len(c), states), m)  # each move's node's counts
            w = self.key[s:t] = c[at + a[row]] * (c[at + b[row]] - e[row]) * k[row]
            links = np.fromiter(chain.from_iterable(g.links[part]), np.int64, int(width.sum()))
            self.succ[s:t] = links[np.repeat(np.cumsum(width) - width, m) + col[row]]
            if (some := m.nonzero()[0]).size:
                total[lo + some] = np.add.reduceat(w, begin[some])
            s = t
        weights, which, times = np.unique(total, return_inverse=True, return_counts=True)
        if sum(map(mul, weights.tolist(), times.tolist())) >= _SPAN:
            raise ValueError(f"{n} agents are too many to simulate: move weights overflow int64")
        # math.log1p, as the scalar loop takes it, once per distinct weight
        logq = [log1p(-x / full) if 0 < x < full else 0.0 for x in weights.tolist()]
        np.cumsum(self.key, out=self.key)
        self.total, self.offset, self.logq = total, np.cumsum(total) - total, np.array(logq)[which]
        self.first = np.cumsum(count) - count
        count[list(stop)] = -2
        self.count = count


class _Forced:
    """The forced nodes of `_Moves`: one move and some idle interaction
    (count 1, logq < 0), so that a run there draws a uniform for its gap and
    nothing else, and its next node is fixed.  They are ranked in node
    order, F of them; `rank` maps each node to its rank, or -1.  Per rank,
    `succ` holds the next node, `logq` the node's, and `depth` how many
    forced nodes a run meets from it on, at most `_WORDS`; `jump[b]` holds
    the rank 2**b moves on, or F once the path has left the forced nodes
    (F maps to F)."""

    def __init__(self, moves: _Moves):
        nodes = ((moves.count == 1) & (moves.logq < 0)).nonzero()[0]
        f = nodes.size
        self.rank = np.full(moves.count.size, -1)
        self.rank[nodes] = np.arange(f)
        self.succ, self.logq = moves.succ[moves.first[nodes]], moves.logq[nodes]
        step = np.append(self.rank[self.succ], f)
        step[step < 0] = f
        self.jump = [step]
        while 2 << len(self.jump) <= _WORDS:  # paths of up to `_WORDS` nodes
            self.jump.append(step := step[step])
        # the rank farthest on, and the depth, by the jumps from the longest down
        at, self.depth = np.arange(f), np.ones(f, np.int64)
        for b in reversed(range(len(self.jump))):
            on = (to := self.jump[b][at]) < f
            at[on] = to[on]
            self.depth[on] += 1 << b

    def advance(
        self, draws: PhiloxStreams, rank: np.ndarray, steps: np.ndarray, limit: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Every run, standing on the forced node of `rank` with count
        `steps`, takes the moves of its forced path while its buffer holds
        words, each with one `random` and its gap.  Returns the runs' nodes
        and counts after it, and the first run whose count passes `limit`
        on the way, tested at each move as a step tests it, or len(rank)."""
        take, u = draws.randoms(self.depth[rank])
        m = int(take.max())
        path = np.empty((len(rank), m), np.int64)  # each run's ranks, in order
        path[:, 0] = rank
        for b, jump in enumerate(self.jump):
            lo = 1 << b
            if lo >= m:
                break
            hi = min(2 * lo, m)
            path[:, lo:hi] = jump[path[:, : hi - lo]]
        ranks = path[np.arange(m) < take[:, None]]
        q = _gaps(1.0 - u, self.logq[ranks])
        # the count before each move: sums of int64, which wrap, are exact
        # in each run's differences up to its first move over the cap
        gap = np.minimum(q, limit).astype(np.int64) + 1
        before = np.cumsum(gap) - gap
        begin = np.cumsum(take) - take
        count = before - np.repeat(before[begin] - steps, take)
        over = (q >= limit - count).nonzero()[0]
        fail = len(rank) if not over.size else int(np.searchsorted(begin, over[0], "right")) - 1
        end = begin + take - 1
        return self.succ[ranks[end]], count[end] + gap[end], fail


def simulate(
    p: PopulationProtocol, c0: Configuration, trials: int, seed: int, max_steps: int = 1_000_000
) -> SimResult:
    """Independent runs counting interactions (idle ones included) until
    the stable set of c0's closure.  A step is a productive interaction:
    with W their weight out of (n^2 - n) L, the interactions up to it are 1
    + floor(log(1 - U) / log1p(-W / ((n^2 - n) L))) for a uniform U, or 1,
    undrawn, if W is all; its move is drawn in [0, W) among the cumulative
    weights unless it is the only one.  A count over `max_steps`, or a run
    outside the stable set with no productive move, raises RuntimeError,
    the lowest failing trial's.  Trial t draws from Philox keyed by (seed
    << 64) + t.  The unfinished runs of a block of `_BLOCK` trials step
    together on numpy arrays (`PhiloxStreams`); the logs are numpy's, but
    floors and step-cap tests are `math.log`'s (`_gaps`).  When every run
    stands on a forced node (`_Forced`), each takes its whole forced
    stretch in one pass, as far as its buffered words go; the draws and
    counts are those of the steps one at a time.  The moves of the whole
    closure are built once, after the stable set (`_Moves`), which raises
    ValueError on moves that weigh `_SPAN` = 2**63, past int64, in all.
    Before anything is explored, an early test raises it only at the sizes
    at which the moves of `_BLOCK` nodes alone, (n^2 - n) L each, would
    weigh that much (n ~ 1.9e8 at L = 1)."""
    if c0.size < 2:
        raise ValueError("simulation needs at least two agents")
    if _BLOCK * (c0.size**2 - c0.size) * p.lcm >= _SPAN:
        raise ValueError(f"{c0.size} agents are too many to simulate: move weights overflow int64")
    space = explore(p, c0, cap=10_000_000)
    moves, counts = _Moves(space, stable_set(space)), space.counts
    del space
    forced, bound = _Forced(moves), moves.total.view(np.uint64)  # the bounds of move draws
    limit = min(max_steps, 2**62)
    done = np.zeros((2, trials), np.int64)  # each run's count and the node where it stopped
    for t0 in range(0, trials, _BLOCK):
        k = min(_BLOCK, trials - t0)
        draws = PhiloxStreams([(seed << 64) + t for t in range(t0, t0 + k)])
        # the unfinished runs of the block (trial t0 + act), their nodes and counts
        act, node, steps = np.arange(k), np.zeros(k, np.int64), np.zeros(k, np.int64)
        error = None
        while act.size:
            cnt = moves.count[node]
            if np.count_nonzero(cnt <= 0):  # runs on the stop set, or stuck
                ended, kept = cnt < 0, cnt >= 0
                done[:, t0 + act[ended]] = steps[ended], node[ended]
                act, node, steps, cnt = (x[kept] for x in (act, node, steps, cnt))
                draws.keep(kept)
                if (stuck := (cnt == 0).nonzero()[0]).size:
                    j = stuck[0]
                    error = (
                        f"trial {t0 + int(act[j])} stuck at {counts[node[j]]} after {steps[j]} "
                        f"interactions: it is not stable, and no interaction changes it"
                    )
                    act, node, steps, cnt = act[:j], node[:j], steps[:j], cnt[:j]
                    draws.keep(slice(j))
                if not act.size:
                    break
            many = (cnt > 1).nonzero()[0]
            if not many.size and (rank := forced.rank[node]).min() >= 0:
                node, steps, j = forced.advance(draws, rank, steps, limit)
            else:
                lq = moves.logq[node]
                if (part := (lq < 0).nonzero()[0]).size == lq.size:
                    q = _gaps(1.0 - draws.random(), lq)
                else:
                    q = np.zeros(lq.size)
                    if part.size:
                        q[part] = _gaps(1.0 - draws.random(part), lq[part])
                j = act.size
                if (over := (q >= limit - steps).nonzero()[0]).size:
                    j = over[0]
                    q[j:] = 0  # the runs from j on end here
                steps += q.astype(np.int64) + 1
                r = np.zeros(act.size, np.int64)  # 0: a node's first move
                if many.size:
                    r[many] = draws.integers(many, bound[node[many]])
                node = moves.succ[moves.key.searchsorted(r + moves.offset[node], "right")]
            if j < act.size:  # the first run over the cap
                error = (
                    f"trial {t0 + int(act[j])} exceeded {max_steps} interactions; target may "
                    f"not be almost surely reachable"
                )
                act, node, steps = act[:j], node[:j], steps[:j]
                draws.keep(slice(j))
        if error is not None:
            raise RuntimeError(error)
    steps_out, ends = done.tolist()
    values = {}  # the output all agents agree on, or None
    for v in set(ends):
        outs = {p.output(s) for s, k in enumerate(counts[v]) if k}
        values[v] = outs.pop() if len(outs) == 1 else None
    return SimResult(trials, tuple(steps_out), seed, tuple(values[v] for v in ends))
