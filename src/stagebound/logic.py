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

Entailment.  `is_tautology(goal, premise)` is the one entailment entry
point of the analysis: it decides whether `premise` entails `goal`.  A
premise is built once and asked many goals (`Premise`), and a query takes
one of two paths:

  1. Literal closures, for every query of the stage-tree build.  Its
     premises are Horn with at most two literals per clause: unit
     literals (those of pi, and for `is_fast` a few more), the xi clause
     (!A | !B) or (!A | A!) of each head of a set H, and the coupling
     (!A! | A).  `Premise.horn` builds them straight from the literals and
     H, over one atom numbering per protocol (`Numbering`), with no
     formula to translate.  Their goal is a clause, xi of a head or xi
     under the guard of a re-enabling product (`guarded_xi`), so "not
     goal" is a conjunction of literals.  Unit propagation decides Horn
     satisfiability (Dowling & Gallier, J. Logic Programming 1984), and on
     binary clauses propagation from a set of literals is the union of
     each literal's closure in the implication graph (Aspvall, Plass &
     Tarjan, IPL 1979).  So every premise with the same H shares one
     implication graph whose literal closures, as bitmasks, are memoised
     on first use (`Implications`); a premise adds only the closure of its
     units (`Closures`), and a query ORs the closures of the literals of
     "not goal" into it and holds when some atom comes out both true and
     false.  A premise with an empty clause or conflicting units entails
     every goal.  A goal atom the premise does not number is free, except
     that a true singleton still makes its presence atom true.
  2. DPLL, for every other query: ancestor pruning asks whether one stage
     formula implies another, with the empty premise.  One walk over a
     formula with polarity emits the clauses of "premise holds" or "goal
     fails" directly (`Premise(formula)` translates a premise the same
     way, and takes the closure path when its clauses are Horn with at
     most two literals).  Literals and disjunctions of literals become
     clauses; a conjunction nested inside a clause gets a one-directional
     (Plaisted-Greenbaum) auxiliary variable.  The coupling A! -> A is
     added as the clause (!A! | A) for every singleton atom the walk meets
     first.  A query copies the premise's clause list and atom numbering
     and extends the copies, so no clause of one goal reaches the next;
     `Premise.conj(extra)` extends a premise the same way.  A small DPLL
     with unit propagation decides the clauses.  The same search splits a
     stage formula into its valuations (`enumerate_satisfying_valuations`),
     so the build evaluates no formula; `evaluate` serves only the oracle,
     which evaluates a formula bit-parallel over all the total valuations
     of a chain at once.

There is no query cache: a process-wide cache of formulas grows the peak
memory by more than it is worth in time.  A premise and its unit closure
live as long as its caller keeps it (a transformation graph, one round of
J); the atoms, their numbering and the implication graph of each head set
live on their protocol, as do the xi formulas and their guarded forms.
The tests keep both earlier searches, which walk the formula itself with
a three-valued evaluator, as the references the entailment check and the
enumeration must agree with, and check the closures against DPLL, and the
premises built from literals against the same premises translated from
their formulas, on every query of large builds.
"""

from __future__ import annotations

import itertools
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


def _translate(
    f: Formula, pol: bool, clauses: list[list[int]], var: dict[Atom, int], next_var: int
) -> int:
    """Append to `clauses` the clauses stating that f has truth value pol;
    returns the next free variable.

    One walk over f with polarity: a node required to hold (under a guard
    literal) is split at conjunctions and otherwise becomes one clause; a
    conjunction met inside a clause is named by a fresh variable x with
    clauses for x -> node only (Plaisted-Greenbaum).  Atoms missing from
    `var` are numbered as they are met, and each new singleton atom gets
    one more clause for the coupling A! -> A.  Literal and negated-literal
    children are handled in the loops rather than by a recursive call,
    which halves the calls on the premise-heavy queries of the stage-tree
    build.
    """
    fresh = itertools.count(next_var).__next__
    known = len(var)

    def atom_var(a: Atom) -> int:
        v = var[a] = fresh()
        return v

    def require(g: Formula, pol: bool, guard: int) -> None:
        # clauses for: guard false, or g has truth value pol
        tag = g[0]
        while tag == "not":
            g = g[1]
            pol = not pol
            tag = g[0]
        if (tag == "and" and pol) or (tag == "or" and not pol):
            for h in g[1]:
                hpol = pol
                if h[0] == "not":
                    h = h[1]
                    hpol = not pol
                if h[0] == "atom":
                    v = var.get(h[1]) or atom_var(h[1])
                    lit = v if hpol else -v
                    clauses.append([guard, lit] if guard else [lit])
                else:
                    require(h, hpol, guard)
            return
        if tag == "implies" and not pol:
            require(g[1], True, guard)
            require(g[2], False, guard)
            return
        lits = [guard] if guard else []
        if not collect(g, pol, lits):
            clauses.append(lits)

    def collect(g: Formula, pol: bool, lits: list[int]) -> bool:
        # append literals whose disjunction implies "g has truth value pol";
        # True when that disjunction is valid, so the clause can be dropped
        tag = g[0]
        while tag == "not":
            g = g[1]
            pol = not pol
            tag = g[0]
        if tag == "atom":
            v = var.get(g[1]) or atom_var(g[1])
            lits.append(v if pol else -v)
            return False
        if tag == "tt" or tag == "ff":
            return (tag == "tt") == pol
        if (tag == "or" and pol) or (tag == "and" and not pol):
            for h in g[1]:
                hpol = pol
                if h[0] == "not":
                    h = h[1]
                    hpol = not pol
                if h[0] == "atom":
                    v = var.get(h[1]) or atom_var(h[1])
                    lits.append(v if hpol else -v)
                elif collect(h, hpol, lits):
                    return True
            return False
        if tag == "implies" and pol:
            return collect(g[1], False, lits) or collect(g[2], True, lits)
        if tag not in ("and", "or", "implies"):
            raise ValueError(f"bad formula node {g!r}")
        x = fresh()
        require(g, pol, -x)
        lits.append(x)
        return False

    require(f, pol, 0)
    for a, v in list(itertools.islice(var.items(), known, None)):
        if a.kind == SINGLETON:
            comp = Atom(PRESENCE, a.index, a.name[:-1])
            clauses.append([-v, var.get(comp) or atom_var(comp)])
    return fresh()


class Premise:
    """A premise translated once into the clauses that make it hold, so that
    many goals can be asked of it: `formula`, its clauses, its atom
    numbering and the next free variable.  `Premise(formula)` translates a
    formula; `Premise.horn` builds the premise of the stage-tree build
    straight from its literals and heads.  Read-only once built, apart from
    the literal closures (`closures`), which fill in as queries ask for
    them."""

    __slots__ = ("_formula", "_horn", "clauses", "var", "next_var", "_closures")

    def __init__(self, formula: Formula = TT):
        self._formula = formula
        self._horn: tuple | None = None
        self.clauses: list[list[int]] = []
        self.var: dict[Atom, int] = {}
        self.next_var = _translate(formula, True, self.clauses, self.var, 1)
        self._closures: Closures | bool | None = None

    @classmethod
    def horn(
        cls,
        p: PopulationProtocol,
        units: Iterable[tuple[Atom, bool]],
        heads: frozenset[Head],
    ) -> Premise:
        """The premise "these literals hold and every head of `heads` is
        disabled", as clauses over the protocol's one atom numbering: the
        unit clauses, the xi clause of each head and the coupling of each
        singleton.  Premises with the same heads share one implication
        graph and its literal closures (`Numbering.graph`); only the
        closure of the units is built here."""
        graph = numbering(p).graph(heads)
        return _horn_premise(p, (), heads, graph.clauses, Closures(graph, ()), units)

    def with_units(self, extra: Iterable[tuple[Atom, bool]]) -> Premise:
        """This `horn` premise and more literals: the same heads and graph,
        and the closure of `extra` ORed into the base."""
        p, units, heads = self._horn
        return _horn_premise(p, units, heads, self.clauses, self._closures, extra)

    def with_heads(self, extra: Iterable[Head]) -> Premise:
        """This `horn` premise with the heads of `extra` disabled too."""
        p, units, heads = self._horn
        return Premise.horn(p, units, heads.union(extra))

    @property
    def formula(self) -> Formula:
        """The formula the clauses stand for; a `horn` premise builds it
        on first use."""
        f = self._formula
        if f is None:
            p, units, heads = self._horn
            lits = [atom(a) if v else neg(atom(a)) for a, v in units]
            f = self._formula = conj(lits + [heads_formula(p, heads)])
        return f

    def conj(self, extra: Formula) -> Premise:
        """This premise and `extra`; only `extra` is translated."""
        out = Premise.__new__(Premise)
        out._formula = conj([self.formula, extra])
        out._horn = None
        out.clauses = list(self.clauses)
        out.var = dict(self.var)
        out.next_var = _translate(extra, True, out.clauses, out.var, self.next_var)
        out._closures = None
        return out

    def closures(self) -> Closures | None:
        """The literal closures of the clauses, or None when some clause is
        not Horn or has more than two literals.  Built on first use."""
        c = self._closures
        if c is None:
            horn = all(
                len(cl) < 2 or (len(cl) == 2 and (cl[0] < 0 or cl[1] < 0))
                for cl in self.clauses
            )
            if not horn:
                c = False
            elif [] in self.clauses:
                c = Closures(Implications([]), [], None)
            else:
                graph = Implications([cl for cl in self.clauses if len(cl) == 2])
                c = Closures(graph, [cl[0] for cl in self.clauses if len(cl) == 1])
            self._closures = c
        return c or None


def _horn_premise(
    p: PopulationProtocol,
    units: tuple[tuple[Atom, bool], ...],
    heads: frozenset[Head],
    clauses: list[list[int]],
    closures: Closures,
    extra: Iterable[tuple[Atom, bool]],
) -> Premise:
    """The `horn` premise of `units`, `extra` and `heads`, from the clauses
    and closures of the one without `extra`."""
    num = numbering(p)
    extra = tuple(extra)
    lits = [num.var[a] if v else -num.var[a] for a, v in extra]
    out = Premise.__new__(Premise)
    out._formula = None
    out._horn = (p, units + extra, heads)
    out.clauses = [[x] for x in lits] + clauses
    out.var = num.var
    out.next_var = num.next_var
    out._closures = Closures(closures.graph, lits, closures.base)
    return out


class Implications:
    """The implication graph of binary clauses, with each literal's closure
    built once, on first use.  A set of literals is written as a pair (true
    atoms, false atoms) of ints with bit v for variable v."""

    __slots__ = ("clauses", "succ", "memo")

    def __init__(self, clauses: list[list[int]]):
        self.clauses = clauses
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


class Closures:
    """Unit propagation over Horn clauses of at most two literals, as
    bitmasks.  On binary clauses, propagation from a set of literals is the
    union of each literal's closure in the implication graph `graph`, so a
    query ORs those closures into `base`, the closure of the unit literals;
    `base` is None when the clauses are unsatisfiable."""

    __slots__ = ("graph", "base")

    def __init__(
        self,
        graph: Implications,
        units: Iterable[int],
        base: tuple[int, int] | None = (0, 0),
    ):
        self.graph = graph
        if base is not None:
            pos, negs = base
            closure = graph.closure
            for lit in units:
                t, f = closure(lit)
                pos |= t
                negs |= f
            base = None if pos & negs else (pos, negs)
        self.base = base

    def refutes(self, assumed: list[tuple[Atom, bool]], var: dict[Atom, int]) -> bool:
        """True iff the clauses and the literals `assumed` are unsatisfiable
        under the coupling A! -> A.  An atom outside the numbering `var` is
        free: it can conflict only with another assumption on itself, and a
        true singleton among them still makes its presence atom true."""
        if self.base is None:
            return True
        pos, negs = self.base
        graph = self.graph
        free: dict[Atom, bool] = {}
        for a, value in assumed:
            while True:
                v = var.get(a)
                if v is not None:
                    lit = v if value else -v
                    t, f = graph.memo.get(lit) or graph.closure(lit)
                    pos |= t
                    negs |= f
                    break
                if free.setdefault(a, value) != value:
                    return True
                if not value or a.kind != SINGLETON:
                    break
                a = Atom(PRESENCE, a.index, a.name[:-1])
        return bool(pos & negs)


class Numbering:
    """The one atom numbering of a protocol's premises: the presence atom
    of state s is variable 2s + 1 and its singleton atom 2s + 2.  It keeps
    the atoms themselves, built once, and per set H of disabled heads the
    implication graph of the xi clause of each head of H and the coupling
    (!A! | A) of each singleton, built on first use; see `Premise.horn`."""

    __slots__ = ("presence", "singleton", "var", "next_var", "graphs")

    def __init__(self, p: PopulationProtocol):
        self.presence = tuple(Atom(PRESENCE, s, q) for s, q in enumerate(p.states))
        self.singleton = tuple(
            Atom(SINGLETON, s, q + "!") for s, q in enumerate(p.states)
        )
        self.var: dict[Atom, int] = {}
        for s, (a, one) in enumerate(zip(self.presence, self.singleton)):
            self.var[a] = 2 * s + 1
            self.var[one] = 2 * s + 2
        self.next_var = 2 * len(p.states) + 1
        self.graphs: dict[frozenset[Head], Implications] = {}

    def graph(self, heads: frozenset[Head]) -> Implications:
        g = self.graphs.get(heads)
        if g is None:
            clauses = [[-2 * s - 2, 2 * s + 1] for s in range(len(self.presence))]
            for a, b in sorted(heads):
                clauses.append([-2 * a - 1, -2 * b - 1 if a != b else 2 * a + 2])
            g = self.graphs[heads] = Implications(clauses)
        return g


def numbering(p: PopulationProtocol) -> Numbering:
    """The protocol's `Numbering`, built on first use and kept on it."""
    num = p.numbering
    if num is None:
        num = p.numbering = Numbering(p)
    return num


def _refutation(goal: Formula) -> list[tuple[Atom, bool]] | None:
    """Literals whose conjunction says that goal is false, or None when the
    negation of goal is not a conjunction of literals."""
    out: list[tuple[Atom, bool]] = []
    todo = [(goal, False)]
    for f, pol in todo:
        tag = f[0]
        while tag == "not":
            f = f[1]
            pol = not pol
            tag = f[0]
        if tag == "atom":
            out.append((f[1], pol))
        elif tag == ("and" if pol else "or"):
            for g in f[1]:
                if g[0] == "atom":
                    out.append((g[1], pol))
                elif g[0] == "not" and g[1][0] == "atom":
                    out.append((g[1][1], not pol))
                else:
                    todo.append((g, pol))
        elif tag == "implies" and not pol:
            todo.append((f[1], True))
            todo.append((f[2], False))
        elif tag != ("tt" if pol else "ff"):
            return None  # a disjunction, or a conjunct that cannot hold
    return out


def _propagate(clauses: list[list[int]], true: set[int], trail: list[int]) -> bool:
    """Unit propagation to a fixed point; False on a falsified clause.
    Literals it sets are added to `true` and recorded on `trail`."""
    changed = True
    while changed:
        changed = False
        for c in clauses:
            free = 0
            for lit in c:
                if lit in true:
                    break
                if -lit not in true:
                    if free:
                        break
                    free = lit
            else:
                if not free:
                    return False
                true.add(free)
                trail.append(free)
                changed = True
    return True


def _dpll(clauses: list[list[int]], true: set[int]) -> bool:
    """True iff the clauses have a model extending the literals in `true`."""
    trail: list[int] = []
    if _propagate(clauses, true, trail):
        open_ = [c for c in clauses if not any(lit in true for lit in c)]
        if not open_:
            return True
        # after propagation every open clause has at least two free literals
        branch = next(lit for lit in open_[0] if -lit not in true)
        for lit in (branch, -branch):
            true.add(lit)
            if _dpll(open_, true):
                return True
            true.discard(lit)
    for lit in trail:
        true.discard(lit)
    return False


def is_tautology(goal: Formula, premise: Premise = Premise()) -> bool:
    """True iff every consistent total assignment satisfying the premise
    satisfies goal.  When the premise is Horn with at most two literals per
    clause and "not goal" is a conjunction of literals, its literal
    closures decide; otherwise DPLL does (`_dpll_entails`)."""
    assumed = _refutation(goal)
    if assumed is not None:
        closures = premise.closures()
        if closures is not None:
            return closures.refutes(assumed, premise.var)
    return _dpll_entails(goal, premise)


def _dpll_entails(goal: Formula, premise: Premise) -> bool:
    """`is_tautology` by DPLL: only the clauses of "not goal" are
    translated; the premise's own clauses are copied, never extended."""
    clauses = list(premise.clauses)
    _translate(goal, False, clauses, dict(premise.var), premise.next_var)
    return not _dpll(clauses, set())


Valuation = dict[Atom, bool]


def enumerate_satisfying_valuations(f: Formula) -> list[Valuation]:
    """All consistent total assignments over the evaluation domain of f that
    satisfy f, in canonical order (atoms by state index, tt before ff).

    Domain atom i is variable i + 1 of f's clauses, numbered before the
    translation because a valid disjunct keeps its atoms out of them.  The
    walk decides the atoms in order under unit propagation, undone through
    its trail; DPLL settles the auxiliary variables at each leaf."""
    domain = evaluation_domain(f)
    var = {a: v for v, a in enumerate(domain, 1)}
    clauses = [  # the coupling A! -> A
        [-v, var[Atom(PRESENCE, a.index, a.name[:-1])]]
        for a, v in var.items()
        if a.kind == SINGLETON
    ]
    _translate(f, True, clauses, var, len(domain) + 1)
    results: list[Valuation] = []
    true: set[int] = set()

    def walk(v: int) -> None:
        if v > len(domain):
            if _dpll(clauses, set(true)):
                results.append({a: u in true for a, u in var.items()})
            return
        if v in true or -v in true:  # forced by propagation
            walk(v + 1)
            return
        for lit in (v, -v):  # tt before ff
            trail = [lit]
            true.add(lit)
            if _propagate(clauses, true, trail):
                walk(v + 1)
            for x in trail:
                true.discard(x)

    if _propagate(clauses, true, []):
        walk(1)
    return results


def valuation_formula(val: Valuation) -> Formula:
    """The conjunction of literals a valuation fixes, in canonical atom order."""
    parts = []
    for a in sorted(val.keys(), key=Atom.sort_key):
        parts.append(atom(a) if val[a] else neg(atom(a)))
    return conj(parts)


def xi(p: PopulationProtocol, head: Head) -> Formula:
    """Formula stating that every rule with this head is disabled.

    For a head {A,B} with A != B that is "no A or no B"; for {A,A} it is
    "no A, or exactly one A".  Singleton atoms are meaningful for every
    state (count == 1), so the same shape is used uniformly.  Each head's
    formula is built once per protocol and kept in `p.xi_table`.
    """
    f = p.xi_table.get(head)
    if f is None:
        a, b = head
        other = neg(atom(presence(p, b))) if a != b else atom(singleton(p, a))
        f = p.xi_table[head] = disj([neg(atom(presence(p, a))), other])
    return f


def guarded_xi(p: PopulationProtocol, head: Head, prod: int, partner: int) -> Formula:
    """The clause "a rule with this head stays disabled when a rule
    producing `prod` could re-enable the head {prod, partner}": xi(head) or
    `prod` present or `partner` absent, and for prod == partner, xi(head)
    or `prod` not holding exactly one agent.  Built once per protocol and
    kept in `p.guarded_xi_table`."""
    key = (head, prod, partner)
    f = p.guarded_xi_table.get(key)
    if f is None:
        if prod != partner:
            guard = [atom(presence(p, prod)), neg(atom(presence(p, partner)))]
        else:
            guard = [neg(atom(singleton(p, prod)))]
        f = p.guarded_xi_table[key] = disj(guard + list(xi(p, head)[1]))
    return f


def heads_formula(p: PopulationProtocol, heads: Iterable[Head]) -> Formula:
    """Conjunction of xi over a set of heads (tt for the empty set)."""
    return conj([xi(p, h) for h in sorted(set(heads))])


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
