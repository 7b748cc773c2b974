"""Propositional formulas over presence/singleton atoms, with the coupling
"exactly-one(A) implies present(A)" built into satisfiability.

There are two atoms per state s, each an int variable:
  * presence   A   -- state A is populated (count > 0): variable 2s + 1
                      (`present`)
  * singleton  A!  -- state A holds exactly one agent (count == 1):
                      variable 2s + 2 (`single`), whose presence companion
                      is the variable before it

Formulas are immutable tagged tuples whose leaves are ("atom", v), so they
hash and compare structurally, which keeps stage construction
deterministic.

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
literals `not_xi(h)`; the xi formula, the xi clause of the premises, the
"some head is enabled" members of a stage formula and every reading of a
valuation against a head derive from it.  The build asks three things:

  1. Entailment, `is_tautology(goal, premise)`.  The goal is a clause, a
     tuple of literals, and it holds when the negations of its literals
     are inconsistent with the premise.  Every goal of the build is the xi
     clause of one head, and in J the negation of a re-enabling guard as
     well.
  2. The split of a stage formula into its valuations
     (`enumerate_satisfying_valuations`).  A stage formula is such a
     premise and at most one disjunction whose members are conjunctions of
     literals (`Parts`).  Per member, a walk decides the formula's atoms in
     canonical order under the premise with the member's literals added,
     trying each value that stays consistent.  Whatever propagation leaves
     open can be set false, since every binary clause has a negative
     literal, so a walk that meets no conflict never dead-ends: each leaf
     is a model.
  3. Ancestor pruning: does one stage formula imply another?  The build has
     split the first already, so `holds_throughout` evaluates the second
     over those valuations, bit-parallel (`evaluate`, which also serves the
     oracle over all the total valuations of a chain at once).

There is no query cache: a process-wide cache of formulas grows the peak
memory by more than it is worth in time.  A premise and its unit closure
live as long as its caller keeps it (a transformation graph, one round of
J); the implication graph of each head set lives on its protocol
(`implications`), as do the xi formulas.
The tests keep a clause DPLL and the searches that walk a formula with a
three-valued evaluator as the references that these answers must agree
with.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .protocol import Head, PopulationProtocol

# Formula = ("tt",) | ("ff",) | ("atom", v) | ("not", f)
#         | ("and", (f, ...)) | ("or", (f, ...))
Formula = tuple

TT: Formula = ("tt",)
FF: Formula = ("ff",)


def atom(v: int) -> Formula:
    return ("atom", v)


def neg(f: Formula) -> Formula:
    if f == TT:
        return FF
    if f == FF:
        return TT
    return ("not", f)


def conj(fs: Iterable[Formula]) -> Formula:
    parts = [f for f in fs if f != TT]
    if any(f == FF for f in parts):
        return FF
    if not parts:
        return TT
    if len(parts) == 1:
        return parts[0]
    return ("and", tuple(parts))


def disj(fs: Iterable[Formula]) -> Formula:
    parts = [f for f in fs if f != FF]
    if any(f == TT for f in parts):
        return TT
    if not parts:
        return FF
    if len(parts) == 1:
        return parts[0]
    return ("or", tuple(parts))


def atoms_of(f: Formula) -> set[int]:
    tag = f[0]
    if tag == "atom":
        return {f[1]}
    if tag in ("tt", "ff"):
        return set()
    if tag == "not":
        return atoms_of(f[1])
    out: set[int] = set()
    for g in f[1]:
        out |= atoms_of(g)
    return out


def evaluate(f: Formula, bits: dict[int, int]) -> int:
    """Truth values of f under many total valuations at once.

    Bit j of `bits[v]` is the value of variable v under valuation j; bit j
    of the result is the value of f under it.  Connectives are bitwise:
    `&` for and, `|` for or, `~` for not, -1 (all bits set) for tt and 0
    for ff, so the bits above the last valuation are not meaningful and
    the caller masks them off with (1 << count) - 1.  A single valuation is
    the one-bit case.  The oracle's `ReachGraph.key_set` evaluates a
    formula once over all the distinct valuations of a chain this way."""
    tag = f[0]
    if tag == "atom":
        return bits[f[1]]
    if tag == "and":
        acc = -1
        for g in f[1]:
            acc &= evaluate(g, bits)
        return acc
    if tag == "or":
        acc = 0
        for g in f[1]:
            acc |= evaluate(g, bits)
        return acc
    if tag == "not":
        return ~evaluate(f[1], bits)
    if tag == "tt":
        return -1
    if tag == "ff":
        return 0
    raise ValueError(f"bad formula node {f!r}")


def evaluation_domain(f: Formula) -> list[int]:
    """Variables of f, closed under adding the presence companion v - 1 of
    every singleton v, in increasing order: by state, presence first."""
    dom = atoms_of(f)
    dom |= {v - 1 for v in dom if not v & 1}
    return sorted(dom)


Valuation = tuple[int, ...]


def present(s: int) -> int:
    """The variable "state s is populated"."""
    return 2 * s + 1


def single(s: int) -> int:
    """The variable "state s holds exactly one agent"."""
    return 2 * s + 2


def literal_formula(lit: int) -> Formula:
    """The formula of a literal: its atom, negated when lit < 0."""
    f = atom(abs(lit))
    return f if lit > 0 else neg(f)


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

    __slots__ = ("succ", "memo")

    def __init__(self, clauses: Iterable[tuple[int, int]]):
        self.succ: dict[int, list[int]] = {}
        self.memo: dict[int, tuple[int, int]] = {}
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
    their negations into the premise's base leaves some variable both true
    and false."""
    return premise.graph.close([-lit for lit in goal], premise.base) is None


class Parts(NamedTuple):
    """A stage formula as `stage_formula` makes it: the conjunction of the
    literals of the valuations `units`, the xi of each head of `heads` and
    one disjunction whose members are conjunctions of literals.  Without a
    disjunction `members` is ((),); an empty one, () here, makes the
    formula false.  The valuations are those the stage already keeps, such
    as its pi, not copies."""

    units: tuple[Valuation, ...]
    heads: frozenset[Head]
    members: tuple[tuple[int, ...], ...] = ((),)


def enumerate_satisfying_valuations(
    p: PopulationProtocol, phi: Formula, parts: Parts
) -> list[Valuation]:
    """All consistent total assignments over the evaluation domain of phi,
    a stage formula with the parts `parts`, that satisfy it, in canonical
    order (variables in increasing order, tt before ff).

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

    units = tuple(lit for val in parts.units for lit in val)
    for member in parts.members:
        premise = Premise.horn(p, units + member, parts.heads)
        if premise.base is not None:
            closure = premise.graph.closure
            walk(0, *premise.base, 0)
    last = len(order) - 1
    return [
        tuple(-v if key >> (last - i) & 1 else v for i, v in enumerate(order))
        for key in sorted(keys)
    ]


def holds_throughout(f: Formula, vals: Sequence[Valuation]) -> bool:
    """True iff f holds under every valuation of `vals`, all over one
    domain, and under each of its consistent extensions over the variables
    of f outside that domain.  Bit j * len(vals) + i stands for valuation i
    under extension j, so one `evaluate` decides them all."""
    if not vals:
        return True
    n = len(vals)
    dom = [abs(lit) for lit in vals[0]]
    extra = [v for v in evaluation_domain(f) if v not in dom]
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
    return evaluate(f, bits) & allowed == allowed


def valuation_formula(val: Valuation) -> Formula:
    """The conjunction of the literals a valuation fixes, in its order."""
    return conj([literal_formula(lit) for lit in val])


def xi(p: PopulationProtocol, head: Head) -> Formula:
    """Formula stating that every rule with this head is disabled, the
    disjunction of the literals of `xi_clause`.

    For a head {A,B} with A != B that is "no A or no B"; for {A,A} it is
    "no A, or exactly one A".  Singleton atoms are meaningful for every
    state (count == 1), so the same shape is used uniformly.  Each head's
    formula is built once per protocol and kept in `p.xi_table`.
    """
    f = p.xi_table.get(head)
    if f is None:
        f = p.xi_table[head] = disj([literal_formula(lit) for lit in xi_clause(head)])
    return f


def heads_formula(p: PopulationProtocol, heads: Iterable[Head]) -> Formula:
    """Conjunction of xi over a set of heads (tt for the empty set)."""
    return conj([xi(p, h) for h in sorted(set(heads))])


def stage_formula(
    p: PopulationProtocol,
    units: tuple[Valuation, ...],
    heads: frozenset[Head],
    some: frozenset[Head] | None = None,
) -> tuple[Formula, Parts]:
    """A successor's formula and its parts, from the same inputs: the
    conjunction of the literals of units[0], the xi of each head of
    `heads`, the literals of units[1:] and, when `some` is given, "some head
    of `some` is enabled", the disjunction of not xi over its heads (false
    when `some` is empty)."""
    trees = [valuation_formula(units[0]), heads_formula(p, heads)]
    trees += [valuation_formula(u) for u in units[1:]]
    if some is None:
        return conj(trees), Parts(units, heads)
    ordered = sorted(some)
    trees.append(disj([neg(xi(p, h)) for h in ordered]))
    return conj(trees), Parts(units, heads, tuple(not_xi(h) for h in ordered))


def variable_name(v: int, states: Sequence[str]) -> str:
    """The name of a variable: `A` for the presence of state A, `A!` for
    its singleton."""
    return states[(v - 1) >> 1] + ("" if v & 1 else "!")


def pretty(f: Formula, states: Sequence[str]) -> str:
    """Infix rendering, with variables named after `states`: atoms `A`/`A!`,
    operators `!`, `&`, `|`."""

    def go(g: Formula, parent: str) -> str:
        tag = g[0]
        if tag == "tt":
            return "true"
        if tag == "ff":
            return "false"
        if tag == "atom":
            return variable_name(g[1], states)
        if tag == "not":
            inner = go(g[1], "not")
            return f"!{inner}"
        if tag == "and":
            s = " & ".join(go(x, "and") for x in g[1])
            return f"({s})" if parent in ("not", "or") else s
        if tag == "or":
            s = " | ".join(go(x, "or") for x in g[1])
            return f"({s})" if parent in ("not", "and") else s
        raise ValueError(f"bad formula node {g!r}")

    return go(f, "top")
