"""Propositional formulas over presence/singleton atoms, with the coupling
"exactly-one(A) implies present(A)" built into satisfiability.

There are two atoms per state s, each an int variable:
  * presence   A   -- state A is populated (count > 0): variable 2s + 1
                      (`present`)
  * singleton  A!  -- state A holds exactly one agent (count == 1):
                      variable 2s + 2 (`single`), whose presence companion
                      is the variable before it

A stage formula has one form, `Parts`: unit literals, the xi of each head
of a set, and at most one disjunction whose members are conjunctions of
literals.  It is a tuple, so it hashes and compares structurally, which
keeps stage construction deterministic.  `evaluate`, `evaluation_domain`
and `pretty` read it directly.

One engine: literal closures.  A literal is a variable, or its negation as
a negative int.  A valuation is the tuple of the literals it fixes, sorted
by variable, each variable at most once, so equal valuations are equal
tuples.  Every premise of the stage-tree build has one shape: unit
literals, the xi clause (!A | !B) or (!A | A!) of each head of a set H, and
the coupling (!A! | A).  `Premise.horn` builds it straight from the
literals and H, with no formula to translate.  Every clause but the units
has two literals, at least one of them negative, so the premise is Horn:
unit propagation decides it (Dowling & Gallier, J. Logic Programming
1984), and on binary clauses propagation from a set of literals is the
union of each literal's closure in the implication graph (Aspvall, Plass &
Tarjan, IPL 1979).  So every premise with the same H shares one
implication graph whose literal closures, as bitmasks, are memoised on
first use (`Implications`); a premise adds only the closure of its units.
A set of literals is consistent with the premise when ORing their
closures into its own leaves no variable both true and false.

The head semantics "a rule of h can fire" is written once, as the pair of
literals `not_xi(h)`; the xi of a stage formula, the xi clause of the
premises, the "some head is enabled" members of a stage formula and every
reading of a valuation against a head derive from it.  The build asks
three things:

  1. Entailment, `is_tautology(goal, premise)`.  The goal is a clause, a
     tuple of literals, and it holds when the negations of its literals
     are inconsistent with the premise.  Every goal of the build is the xi
     clause of one head; J puts a re-enabling guard into the premise
     (`Premise.with_units`).
  2. The split of a stage formula into its valuations
     (`enumerate_satisfying_valuations`).  A stage formula is such a
     premise and at most one disjunction.  Per member, a walk decides the
     formula's atoms in canonical order under the premise with the
     member's literals added, trying each value that stays consistent.
     Whatever propagation leaves open can be set false, since every binary
     clause has a negative literal, so a walk that meets no conflict never
     dead-ends: each leaf is a model.
  3. Ancestor pruning: does one stage formula imply another?  The build has
     split the first already, so `holds_throughout` evaluates the second
     over those valuations, bit-parallel (`evaluate`, which also serves the
     oracle over all the total valuations of a chain at once).

Each implication graph also memoises, per goal clause, the OR of the
closures of the goal's negated literals (`Implications.negated`), so
`is_tautology` is one lookup, two ORs and one AND.  The memo lives on the
graph, so it is shared by every premise with the graph's head set
(`Premise.with_units`, `Premise.with_heads`) and dies with the protocol;
it is not process-wide, because a process-wide cache of formulas grows the
peak memory by more than it is worth in time, while a graph holds one
entry per goal asked of it, and the build asks only the xi clauses of the
protocol's heads.  A premise and its unit closure live as long as its
caller keeps it (a transformation graph, one round of J); the implication
graph of each head set lives on its protocol (`implications`).

The tests keep the formula trees that a stage formula stands for, a
clause DPLL over them and the searches that walk them with a three-valued
evaluator as the references that these answers must agree with.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .protocol import Head, PopulationProtocol

Valuation = tuple[int, ...]


def present(s: int) -> int:
    """The variable "state s is populated"."""
    return 2 * s + 1


def single(s: int) -> int:
    """The variable "state s holds exactly one agent"."""
    return 2 * s + 2


def not_xi(head: Head) -> tuple[int, int]:
    """The two literals whose conjunction says that a rule with this head
    can fire: A and B for a head {A,B}, A and not A! for {A,A}."""
    a, b = head
    return present(a), present(b) if a != b else -single(a)


def xi_clause(head: Head) -> tuple[int, int]:
    """The clause "every rule with this head is disabled", the negation of
    `not_xi`."""
    l1, l2 = not_xi(head)
    return -l1, -l2


class Premise:
    """The premise "the literals `units` hold and every head of `heads` is
    disabled", over the protocol's variables: the unit clauses, the xi
    clause of each head and the coupling of each singleton.  `base` is the
    closure of the units in the implication graph `graph` of the binary
    clauses, or None when the premise is unsatisfiable.  Premises with the
    same heads share one graph and its literal closures (`implications`).
    Read-only once built."""

    __slots__ = ("p", "units", "heads", "graph", "base")

    def __init__(
        self,
        p: PopulationProtocol,
        units: tuple[int, ...],
        heads: frozenset[Head],
        graph: Implications,
        base: tuple[int, int] | None,
    ):
        self.p = p
        self.units = units
        self.heads = heads
        self.graph = graph
        self.base = base

    @classmethod
    def horn(
        cls, p: PopulationProtocol, units: Iterable[int], heads: frozenset[Head]
    ) -> Premise:
        """The premise of `units` and `heads`; only the closure of the
        units is built here."""
        units = tuple(units)
        graph = implications(p, heads)
        return cls(p, units, heads, graph, graph.close(units, (0, 0)))

    def with_units(self, extra: Iterable[int]) -> Premise:
        """This premise and more literals: the same heads and graph, and the
        closure of `extra` ORed into the base."""
        extra = tuple(extra)
        base = self.graph.close(extra, self.base)
        return Premise(self.p, self.units + extra, self.heads, self.graph, base)

    def with_heads(self, extra: Iterable[Head]) -> Premise:
        """This premise with the heads of `extra` disabled too."""
        return Premise.horn(self.p, self.units, self.heads.union(extra))


class Implications:
    """The implication graph of binary clauses, with each literal's closure
    built once, on first use.  A set of literals is written as a pair (true
    variables, false variables) of ints with bit v for variable v.  On
    binary clauses, unit propagation from a set of literals is the union of
    each literal's closure."""

    __slots__ = ("succ", "memo", "goals")

    def __init__(self, clauses: Iterable[tuple[int, int]]):
        self.succ: dict[int, list[int]] = {}
        self.memo: dict[int, tuple[int, int]] = {}
        self.goals: dict[tuple[int, ...], tuple[int, int]] = {}
        for a, b in clauses:
            self.succ.setdefault(-a, []).append(b)
            self.succ.setdefault(-b, []).append(a)

    def closure(self, lit: int) -> tuple[int, int]:
        """The literals that unit propagation derives from `lit` alone."""
        got = self.memo.get(lit)
        if got is None:
            seen = {lit}
            todo = [lit]
            for x in todo:
                for y in self.succ.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            pos = negs = 0
            for x in seen:
                if x > 0:
                    pos |= 1 << x
                else:
                    negs |= 1 << -x
            got = self.memo[lit] = (pos, negs)
        return got

    def close(
        self, literals: Iterable[int], base: tuple[int, int] | None
    ) -> tuple[int, int] | None:
        """The closures of `literals` ORed into `base`; None when some
        variable comes out both true and false, or when `base` is None."""
        if base is None:
            return None
        pos, negs = base
        memo = self.memo
        for lit in literals:
            t, f = memo.get(lit) or self.closure(lit)
            pos |= t
            negs |= f
        return None if pos & negs else (pos, negs)

    def negated(self, goal: tuple[int, ...]) -> tuple[int, int]:
        """The OR of the closures of the negations of the literals of the
        clause `goal`, consistent or not; built once per goal."""
        got = self.goals.get(goal)
        if got is None:
            pos = negs = 0
            for lit in goal:
                t, f = self.closure(-lit)
                pos |= t
                negs |= f
            got = self.goals[goal] = (pos, negs)
        return got


def implications(p: PopulationProtocol, heads: frozenset[Head]) -> Implications:
    """The implication graph of the xi clause of each head of `heads` and
    the coupling (!A! | A) of each state, built on first use and kept on
    the protocol (`p.graphs`); see `Premise.horn`."""
    g = p.graphs.get(heads)
    if g is None:
        clauses = [(-single(s), present(s)) for s in range(len(p.states))]
        clauses += [xi_clause(h) for h in sorted(heads)]
        g = p.graphs[heads] = Implications(clauses)
    return g


def is_tautology(goal: tuple[int, ...], premise: Premise) -> bool:
    """True iff every consistent total assignment satisfying the premise
    satisfies the clause `goal`, a tuple of literals: ORing the closures of
    their negations (`Implications.negated`) into the premise's base leaves
    some variable both true and false."""
    base = premise.base
    if base is None:
        return True
    t, f = premise.graph.negated(goal)
    return bool((base[0] | t) & (base[1] | f))


class Parts(NamedTuple):
    """A stage formula Phi: the conjunction of the literals of the
    valuations `units`, the xi of each head of `heads` and one disjunction
    whose members are conjunctions of literals.  Without a disjunction
    `members` is ((),); an empty one, () here, makes the formula false.
    The valuations are those the stage already keeps, such as its pi, not
    copies.  Equal formulas of the build are equal tuples."""

    units: tuple[Valuation, ...]
    heads: frozenset[Head]
    members: tuple[tuple[int, ...], ...] = ((),)


def evaluate(phi: Parts, bits: dict[int, int]) -> int:
    """Truth values of phi under many total valuations at once.

    Bit j of `bits[v]` is the value of variable v under valuation j; bit j
    of the result is the value of phi under it: the AND of the units'
    literal masks, of ~(l1 & l2) over `not_xi` of each head, and of the OR
    over the members of each member's AND.  A negative literal is ~, so the bits
    above the last valuation are not meaningful and the caller masks them
    off with (1 << count) - 1.  A single valuation is the one-bit case.  The
    oracle's `ReachGraph.key_set` evaluates a formula once over all the
    distinct valuations of a chain this way.  A false phi (no member) reads
    no variable."""
    if not phi.members:
        return 0

    def lit(x: int) -> int:
        return bits[x] if x > 0 else ~bits[-x]

    acc = -1
    for val in phi.units:
        for x in val:
            acc &= lit(x)
    for h in phi.heads:
        l1, l2 = not_xi(h)
        acc &= ~(lit(l1) & lit(l2))
    some = 0
    for member in phi.members:
        m = -1
        for x in member:
            m &= lit(x)
        some |= m
    return acc & some


def evaluation_domain(phi: Parts) -> list[int]:
    """Variables of phi, closed under adding the presence companion v - 1 of
    every singleton v, in increasing order: by state, presence first.  A
    false phi (no member) has none."""
    if not phi.members:
        return []
    dom = {abs(x) for val in phi.units for x in val}
    dom.update(abs(x) for h in phi.heads for x in not_xi(h))
    dom.update(abs(x) for member in phi.members for x in member)
    dom |= {v - 1 for v in dom if not v & 1}
    return sorted(dom)


def enumerate_satisfying_valuations(
    p: PopulationProtocol, phi: Parts
) -> list[Valuation]:
    """All consistent total assignments over the evaluation domain of phi
    that satisfy it, in canonical order (variables in increasing order, tt
    before ff).

    Per member of the disjunction, the walk decides the domain's variables
    in order under the closures of `Premise.horn(p, units + member,
    heads)`, trying each value whose closure leaves no variable both true
    and false; every leaf is a model (see the module docstring).  A leaf is
    kept as a key with one bit per domain variable, the first highest and
    set when false, so the members' valuations merge in canonical order by
    sorting the distinct keys."""
    order = evaluation_domain(phi)
    keys: set[int] = set()

    def walk(i: int, pos: int, negs: int, key: int) -> None:
        if i == len(order):
            keys.add(key)
            return
        v = order[i]
        for lit, bit in ((v, 0), (-v, 1)):  # tt before ff
            t, f = closure(lit)  # in the current member's graph
            t |= pos
            f |= negs
            if not t & f:
                walk(i + 1, t, f, key << 1 | bit)

    units = tuple(lit for val in phi.units for lit in val)
    for member in phi.members:
        premise = Premise.horn(p, units + member, phi.heads)
        if premise.base is not None:
            closure = premise.graph.closure
            walk(0, *premise.base, 0)
    last = len(order) - 1
    return [
        tuple(-v if key >> (last - i) & 1 else v for i, v in enumerate(order))
        for key in sorted(keys)
    ]


def holds_throughout(phi: Parts, vals: Sequence[Valuation]) -> bool:
    """True iff phi holds under every valuation of `vals`, all over one
    domain, and under each of its consistent extensions over the variables
    of phi outside that domain.  Bit j * len(vals) + i stands for valuation
    i under extension j, so one `evaluate` decides them all."""
    if not vals:
        return True
    n = len(vals)
    dom = [abs(lit) for lit in vals[0]]
    extra = [v for v in evaluation_domain(phi) if v not in dom]
    blocks = range(1 << len(extra))
    bits: dict[int, int] = {}
    repeat = sum(1 << j * n for j in blocks)
    for k, v in enumerate(dom):
        bits[v] = sum(1 << i for i, nu in enumerate(vals) if nu[k] > 0) * repeat
    block = (1 << n) - 1
    for t, v in enumerate(extra):
        bits[v] = sum(block << j * n for j in blocks if j >> t & 1)
    allowed = (1 << n * len(blocks)) - 1
    for v in extra:
        if not v & 1:  # A! -> A
            allowed &= ~bits[v] | bits[v - 1]
    return evaluate(phi, bits) & allowed == allowed


def stage_formula(
    units: tuple[Valuation, ...],
    heads: frozenset[Head],
    some: frozenset[Head] | None = None,
) -> Parts:
    """A successor's formula: the conjunction of the literals of `units`,
    the xi of each head of `heads` and, when `some` is given, "some head of
    `some` is enabled", the disjunction of `not_xi` over its heads in
    sorted order (false when `some` is empty)."""
    if some is None:
        return Parts(units, heads)
    return Parts(units, heads, tuple(not_xi(h) for h in sorted(some)))


def variable_name(v: int, states: Sequence[str]) -> str:
    """The name of a variable: `A` for the presence of state A, `A!` for
    its singleton."""
    return states[(v - 1) >> 1] + ("" if v & 1 else "!")


def literal_names(states: Sequence[str]) -> dict[int, str]:
    """The printed form of every literal over `states`: `A`, `A!`, `!A` and
    `!A!` for state A, by literal."""
    names = {}
    for v in range(1, 2 * len(states) + 1):
        names[v] = name = variable_name(v, states)
        names[-v] = "!" + name
    return names


def pretty(phi: Parts, names: dict[int, str], root: bool = False) -> str:
    """Infix rendering, with literals printed as `names` has them (see
    `literal_names`) and operators `!`, `&`, `|`.  The items, joined by
    " & ", are the literals of units[0], the xi `!l1 | !l2` of each head in
    sorted order, the literals of units[1:] and the disjunction; the root
    stage's formula (`root`) writes its disjunction first.  A member is its
    one literal, or `!(!l1 | !l2)` for the pair of a head.  A xi, and a
    disjunction of two or more members, is parenthesised among other items.
    No item at all is "true", and no member "false"."""
    if not phi.members:
        return "false"

    def clause(pair: tuple[int, int]) -> str:
        return f"{names[-pair[0]]} | {names[-pair[1]]}"

    first = [names[x] for val in phi.units[:1] for x in val]
    xis = [clause(not_xi(h)) for h in sorted(phi.heads)]
    rest = [names[x] for val in phi.units[1:] for x in val]
    some = [] if phi.members == ((),) else [
        names[m[0]] if len(m) == 1 else f"!({clause(m)})" for m in phi.members
    ]
    disj = " | ".join(some)
    if len(first) + len(xis) + len(rest) + bool(some) > 1:
        xis = [f"({s})" for s in xis]
        if len(some) > 1:
            disj = f"({disj})"
    items = first + xis + rest
    if some:
        items = [disj] + items if root else items + [disj]
    return " & ".join(items) or "true"
