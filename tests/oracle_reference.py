"""The oracle's closures as they were before they ran in batches over the
chain's condensation, kept as references for the batched passes: one
node-by-node BFS per query over node sets, the stage denotation through
its persist formula, and the hitting-time solve over the condensation of
the chain with the target cut off and the nodes outside the almost-sure
region dropped, each block by Gauss-Jordan over Fractions.  Also the graph
kernels as they were before their per-key rows and per-frame iterators:
the exploration with one `coded_weights` dict per node, and Tarjan's
algorithm re-scanning each frame's successors from a saved position.
Three helpers of the tests: `make_reach_graph` builds a graph over given
rows, `edge_rows` reads a graph's full rows back, self-loops included, and
`roots_reach_almost_surely` asks one almost-sure question of its roots.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from stagebound import verify as V
from stagebound.logic import Parts
from stagebound.protocol import Configuration, decode, encode
from stagebound.stagegraph import scc_condensation
from step_reference import coded, coded_weights


def make_reach_graph(p, counts, rows, den, roots):
    """The ReachGraph over the given nodes and rows of (successor, weight)
    pairs, split into links and weights, with its keys (count vectors
    clipped at 2, numbered as first met) and key counts derived as
    `V.explore` fills them.  A row's self-loop is dropped, as `V.explore`
    stores none: its weight is what the rest of the row leaves of den."""
    ids = {}
    keys = [ids.setdefault(tuple(min(k, 2) for k in c), len(ids)) for c in counts]
    rows = [[(u, w) for u, w in outs if u != v] for v, outs in enumerate(rows)]
    links = [[u for u, _ in outs] for outs in rows]
    weights = [[w for _, w in outs] for outs in rows]
    return V.ReachGraph(p, counts, links, weights, den, roots, keys, list(ids))


def edge_rows(g):
    """Every node's full row of (successor, weight) pairs: its links and
    weights zipped, and its self-loop (v, den[v] less the row's weights),
    unless that is 0, put back at its code position, after the successors
    whose count vectors are smaller than v's.  The two lists of a row must
    have one length, and no row may link its own node."""
    assert len(g.links) == len(g.weights)
    rows = []
    for v, (outs, ws) in enumerate(zip(g.links, g.weights)):
        assert len(outs) == len(ws) and v not in outs
        row = list(zip(outs, ws))
        if stay := g.den[v] - sum(ws):
            at = sum(g.counts[u] < g.counts[v] for u in outs)
            row.insert(at, (v, stay))
        rows.append(row)
    return rows


def roots_reach_almost_surely(g, target):
    """Whether runs from every root of g hit the node set `target` with
    probability one, by one `almost_sure_reach` pass."""
    good = g.almost_sure_reach([int(v in target) for v in range(g.size)], 1)
    return all(good[r] for r in g.roots)


def reference_explore(p, roots, cap=200_000):
    """The BFS closure of the roots as `V.explore` defines it, with every
    node's successors taken from `coded_weights` over the heads that have
    an agent pair under its key, sorted by code."""
    if isinstance(roots, Configuration):
        roots = [roots]
    for c in roots:
        if c.size < 2:
            raise ValueError("configurations need at least two agents")
    width = len(p.states)
    base = max((c.size for c in roots), default=0) + 1
    heads = coded(p, base)
    # a head (a, b) has an agent pair under a key iff key[a] * key[b] >= m
    pairing = [(h, h[0], h[1], 4 if h[0] == h[1] else 1) for h in heads]
    big = p.moves.lcm
    ids = {}
    order = []
    per_size = {}
    root_ids = []
    for c in roots:
        code = encode(c.counts, base)
        i = ids.get(code)
        if i is None:
            i = ids[code] = len(order)
            order.append(code)
            per_size[c.size] = per_size.get(c.size, 0) + 1
        root_ids.append(i)
    dens = {n: (n * n - n) * big for n in per_size}
    key_ids = {}
    key_heads = []
    counts = []
    den = []
    rows = []
    for code in order:
        c = decode(code, base, width)
        key = tuple(k if k < 2 else 2 for k in c)
        j = key_ids.get(key)
        if j is None:
            j = key_ids[key] = len(key_heads)
            key_heads.append(tuple(h for h, a, b, m in pairing if key[a] * key[b] >= m))
        n = sum(c)
        outs = []
        for s, w in sorted(coded_weights(key_heads[j], c, code).items()):
            u = ids.get(s)
            if u is None:
                if per_size[n] >= cap:
                    raise V.ExplorationLimitError(f"exploration cap {cap} exceeded")
                per_size[n] += 1
                u = ids[s] = len(order)
                order.append(s)
            outs.append((u, w))
        counts.append(c)
        den.append(dens[n])
        rows.append(outs)
    return make_reach_graph(p, counts, rows, den, root_ids)


def reference_scc_condensation(succ):
    """Iterative Tarjan whose frames are (node, position) pairs: a resumed
    frame scans its successors again from the saved position.  Returns
    what `scc_condensation` returns."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp = [-1] * n
    members = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                cid = len(members)
                group = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = cid
                    group.append(w)
                    if w == v:
                        break
                members.append(group)
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return comp, members


def reference_backward_reach(g, seed, blocked=frozenset()):
    """Nodes that can reach the seed set (seed included) through nodes
    outside `blocked`; a blocked node is never added."""
    pred = [[] for _ in g.nodes]
    for v, outs in enumerate(g.links):
        for u in outs:
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


def reference_persist_formula(stage):
    """What a stage requires from now on, as a stage formula: pi and the xi
    of every disabled head."""
    return Parts((stage.pi,), stage.disabled)


def reference_stage_denotation(g, stage):
    """Nodes in [[S]]: satisfy Phi now, and pi plus the disabled heads from
    now on."""
    return g.sat(stage.phi) & reference_box_set(g, g.sat(reference_persist_formula(stage)))


def reference_expected_steps_plain(g, target):
    """First-hitting expectations for every node, solved per strongly
    connected component of the plain graph in which target nodes and nodes
    outside the almost-sure region have no successor, each block by
    `reference_solve_dense` over Fractions; None where the target is not
    reached almost surely."""
    tgt = set(target)
    good = reference_almost_sure_reach(g, tgt)
    if not all(r in good for r in g.roots):
        raise ValueError("target not almost surely reachable; expectation diverges")
    expect = [None] * g.size
    for v in tgt:
        expect[v] = Fraction(0)
    plain = [[] if v in tgt or v not in good else outs for v, outs in enumerate(g.links)]
    rows = edge_rows(g)
    for group in scc_condensation(plain)[1]:
        todo = [v for v in group if v in good and v not in tgt]
        pos = {v: i for i, v in enumerate(todo)}
        # E[v] - sum_{u in block} P(v,u) E[u] = 1 + sum_{u solved} P(v,u) E[u]
        mat = [[Fraction(int(i == j)) for j in range(len(todo))] for i in range(len(todo))]
        rhs = [Fraction(1)] * len(todo)
        for v in todo:
            for u, w in rows[v]:
                prob = Fraction(w, g.den[v])
                if u in pos:
                    mat[pos[v]][pos[u]] -= prob
                else:
                    rhs[pos[v]] += prob * expect[u]
        for v, e in zip(todo, reference_solve_dense(mat, rhs)):
            expect[v] = e
    return expect


def reference_solve_dense(mat, rhs):
    """Gauss-Jordan with magnitude pivoting over Fractions."""
    k = len(mat)
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(mat[r][col]))
        if mat[piv][col] == 0:
            raise ValueError("singular hitting-time system")
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        rhs[col] *= inv
        for r in range(k):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                rhs[r] -= f * rhs[col]
    return rhs
