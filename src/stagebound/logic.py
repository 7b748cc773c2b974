"""Propositional formulas over presence/singleton atoms, with the coupling
"exactly-one(A) implies present(A)" built into satisfiability.

Atoms:
  * presence   A   -- state A is populated (count > 0)
  * singleton  A!  -- state A holds exactly one agent (count == 1)
  * Out_0/Out_1    -- all populated states output 0 (resp. 1); only used by
                      the finite-instance verifier, never inside the static
                      analysis.

Formulas are immutable tagged tuples, so they hash and compare structurally,
which keeps stage construction deterministic.

One engine: literal closures.  A literal is an int: the presence of
state s is variable 2s + 1 (`present`), its singleton 2s + 2 (`single`),
and a negative int is the negation; `literal` numbers an atom.  Every
premise of the stage-tree build has one shape: unit literals, the xi clause
(!A | !B) or (!A | A!) of each head of a set H, and the coupling
(!A! | A).  `Premise.horn` builds it straight from the literals and H, with
no formula to translate.  Every clause but the units has two literals, at
least one of them negative, so the premise is Horn: unit propagation
decides it (Dowling & Gallier, J. Logic Programming 1984), and on binary
clauses propagation from a set of literals is the union of each literal's
closure in the implication graph (Aspvall, Plass & Tarjan, IPL 1979).  So
every premise with the same H shares one implication graph whose literal
closures, as bitmasks, are memoised on first use (`Implications`); a
premise adds only the closure of its units.  A set of literals is
consistent with the premise when ORing their closures into its own leaves
no atom both true and false.

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
J); the atoms and the implication graph of each head set live on their
protocol, as do the xi formulas.
The tests keep a clause DPLL and the searches that walk a formula with a
three-valued evaluator as the references that these answers must agree
with.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .protocol import Head, PopulationProtocol

PRESENCE = "st"
SINGLETON = "one"
OUT = "out"


class Atom(NamedTuple):
    kind: str  # PRESENCE | SINGLETON | OUT
    index: int  # state index (or output value for OUT)
    name: str

    def sort_key(self) -> tuple[int, int, int]:
        # Out atoms last; presence before singleton for the same state.
        if self.kind == OUT:
            return (1, self.index, 0)
        return (0, self.index, 0 if self.kind == PRESENCE else 1)


def presence(p: PopulationProtocol, state: int) -> Atom:
    return numbering(p).presence[state]


def singleton(p: PopulationProtocol, state: int) -> Atom:
    return numbering(p).singleton[state]


def out_atom(value: int) -> Atom:
    return Atom(OUT, value, f"Out_{value}")


# Formula = ("tt",) | ("ff",) | ("atom", Atom) | ("not", f)
#         | ("and", (f, ...)) | ("or", (f, ...)) | ("implies", f, f)
Formula = tuple

TT: Formula = ("tt",)
FF: Formula = ("ff",)


def atom(a: Atom) -> Formula:
    return ("atom", a)


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


def implies(f: Formula, g: Formula) -> Formula:
    return ("implies", f, g)


def atoms_of(f: Formula) -> set[Atom]:
    tag = f[0]
    if tag == "atom":
        return {f[1]}
    if tag in ("tt", "ff"):
        return set()
    if tag == "not":
        return atoms_of(f[1])
    if tag == "implies":
        return atoms_of(f[1]) | atoms_of(f[2])
    out: set[Atom] = set()
    for g in f[1]:
        out |= atoms_of(g)
    return out


def evaluate(f: Formula, bits: dict[Atom, int]) -> int:
    """Truth values of f under many total valuations at once.

    Bit j of `bits[a]` is the value of atom a under valuation j; bit j of
    the result is the value of f under it.  Connectives are bitwise: `&`
    for and, `|` for or, `~` for not, `~a | b` for implies, -1 (all bits
    set) for tt and 0 for ff, so the bits above the last valuation are not
    meaningful and the caller masks them off with (1 << count) - 1.  A
    single valuation is the one-bit case: `evaluate(f, nu) & 1` with nu a
    dict of bools.  The oracle's `ReachGraph.sat` evaluates a formula once
    over all the distinct valuations of a chain this way."""
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
    if tag == "implies":
        return ~evaluate(f[1], bits) | evaluate(f[2], bits)
    if tag == "tt":
        return -1
    if tag == "ff":
        return 0
    raise ValueError(f"bad formula node {f!r}")


def evaluation_domain(f: Formula) -> list[Atom]:
    """Atoms of f, closed under adding the presence companion of every
    singleton atom, in canonical order."""
    dom = set(atoms_of(f))
    for a in list(dom):
        if a.kind == SINGLETON:
            dom.add(Atom(PRESENCE, a.index, a.name[:-1]))
    return sorted(dom, key=Atom.sort_key)


Valuation = dict[Atom, bool]


def present(s: int) -> int:
    """The literal "state s is populated"."""
    return 2 * s + 1


def single(s: int) -> int:
    """The literal "state s holds exactly one agent"."""
    return 2 * s + 2


_VARIABLE = {PRESENCE: present, SINGLETON: single}


def literal(a: Atom, value: bool = True) -> int:
    """The literal "atom a has truth value `value`".  Out atoms are not
    numbered: KeyError."""
    v = _VARIABLE[a.kind](a.index)
    return v if value else -v


def literals(val: Valuation) -> tuple[int, ...]:
    """The literals a valuation fixes."""
    return tuple(literal(a, v) for a, v in val.items())


def literal_formula(p: PopulationProtocol, lit: int) -> Formula:
    """The formula of a literal: its atom, negated when lit < 0."""
    s, one = divmod(abs(lit) - 1, 2)
    num = numbering(p)
    f = atom((num.singleton if one else num.presence)[s])
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
    disabled", over the protocol's atoms: the unit clauses, the xi clause
    of each head and the coupling of each singleton.  `base` is the closure
    of the units in the implication graph `graph` of the binary clauses, or
    None when the premise is unsatisfiable.  Premises with the same heads
    share one graph and its literal closures (`Numbering.graph`).
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
        graph = numbering(p).graph(heads)
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
    atoms, false atoms) of ints with bit v for variable v.  On binary
    clauses, unit propagation from a set of literals is the union of each
    literal's closure."""

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
        """The closures of `literals` ORed into `base`; None when some atom
        comes out both true and false, or when `base` is None."""
        if base is None:
            return None
        pos, negs = base
        memo = self.memo
        for lit in literals:
            t, f = memo.get(lit) or self.closure(lit)
            pos |= t
            negs |= f
        return None if pos & negs else (pos, negs)


class Numbering:
    """A protocol's atoms, built once, and per set H of disabled heads the
    implication graph of the xi clause of each head of H and the coupling
    (!A! | A) of each singleton, built on first use; see `Premise.horn`."""

    __slots__ = ("presence", "singleton", "graphs")

    def __init__(self, p: PopulationProtocol):
        self.presence = tuple(Atom(PRESENCE, s, q) for s, q in enumerate(p.states))
        self.singleton = tuple(
            Atom(SINGLETON, s, q + "!") for s, q in enumerate(p.states)
        )
        self.graphs: dict[frozenset[Head], Implications] = {}

    def graph(self, heads: frozenset[Head]) -> Implications:
        g = self.graphs.get(heads)
        if g is None:
            clauses = [(-single(s), present(s)) for s in range(len(self.presence))]
            clauses += [xi_clause(h) for h in sorted(heads)]
            g = self.graphs[heads] = Implications(clauses)
        return g


def numbering(p: PopulationProtocol) -> Numbering:
    """The protocol's `Numbering`, built on first use and kept on it."""
    num = p.numbering
    if num is None:
        num = p.numbering = Numbering(p)
    return num


def is_tautology(goal: tuple[int, ...], premise: Premise) -> bool:
    """True iff every consistent total assignment satisfying the premise
    satisfies the clause `goal`, a tuple of literals: ORing the closures of
    their negations into the premise's base leaves some atom both true and
    false."""
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
    order (atoms by state index, tt before ff).

    Per member of the disjunction, the walk decides the domain's atoms in
    order under the closures of `Premise.horn(p, units + member, heads)`,
    trying each value whose closure leaves no atom both true and false;
    every leaf is a model (see the module docstring).  A leaf is kept as a
    key with one bit per domain atom, the first atom highest and set when
    false, so the members' valuations merge in canonical order by sorting
    the distinct keys."""
    domain = evaluation_domain(phi)
    order = [literal(a) for a in domain]
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

    units = tuple(lit for val in parts.units for lit in literals(val))
    for member in parts.members:
        premise = Premise.horn(p, units + member, parts.heads)
        if premise.base is not None:
            closure = premise.graph.closure
            walk(0, *premise.base, 0)
    last = len(domain) - 1
    return [
        {a: not key >> (last - i) & 1 for i, a in enumerate(domain)}
        for key in sorted(keys)
    ]


def holds_throughout(f: Formula, vals: list[Valuation]) -> bool:
    """True iff f holds under every valuation of `vals`, all over one
    domain, and under each of its consistent extensions over the atoms of f
    outside that domain.  Bit j * len(vals) + i stands for valuation i
    under extension j, so one `evaluate` decides them all."""
    if not vals:
        return True
    n = len(vals)
    extra = [a for a in evaluation_domain(f) if a not in vals[0]]
    blocks = range(1 << len(extra))
    bits: dict[Atom, int] = {}
    repeat = sum(1 << j * n for j in blocks)
    for a in vals[0]:
        bits[a] = sum(1 << i for i, nu in enumerate(vals) if nu[a]) * repeat
    block = (1 << n) - 1
    for t, a in enumerate(extra):
        bits[a] = sum(block << j * n for j in blocks if j >> t & 1)
    allowed = (1 << n * len(blocks)) - 1
    for a in extra:
        if a.kind == SINGLETON:  # A! -> A
            allowed &= ~bits[a] | bits[Atom(PRESENCE, a.index, a.name[:-1])]
    return evaluate(f, bits) & allowed == allowed


def valuation_formula(val: Valuation) -> Formula:
    """The conjunction of literals a valuation fixes, in canonical atom order."""
    parts = []
    for a in sorted(val.keys(), key=Atom.sort_key):
        parts.append(atom(a) if val[a] else neg(atom(a)))
    return conj(parts)


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
        f = p.xi_table[head] = disj([literal_formula(p, lit) for lit in xi_clause(head)])
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


def pretty(f: Formula) -> str:
    """Infix rendering: atoms `A`/`A!`, operators `!`, `&`, `|`, `=>`."""

    def go(g: Formula, parent: str) -> str:
        tag = g[0]
        if tag == "tt":
            return "true"
        if tag == "ff":
            return "false"
        if tag == "atom":
            return g[1].name
        if tag == "not":
            inner = go(g[1], "not")
            return f"!{inner}"
        if tag == "and":
            s = " & ".join(go(x, "and") for x in g[1])
            return f"({s})" if parent in ("not", "or", "implies") else s
        if tag == "or":
            s = " | ".join(go(x, "or") for x in g[1])
            return f"({s})" if parent in ("not", "and", "implies") else s
        if tag == "implies":
            s = f"{go(g[1], 'implies')} => {go(g[2], 'implies')}"
            return f"({s})" if parent != "top" else s
        raise ValueError(f"bad formula node {g!r}")

    return go(f, "top")
