"""The clause DPLL the stage-tree build used before every question it asks
was answered by literal closures, kept as a reference for them.

`translate` emits the clauses of "f has truth value pol" in one walk over
f with polarity: literals and disjunctions of literals become clauses, and
a conjunction nested inside a clause gets a one-directional
(Plaisted-Greenbaum) auxiliary variable; the coupling A! -> A is added as
the clause (!A! | A) for every singleton atom the walk meets first.  An
atom is the variable of its leaf, so no atom is renumbered; the auxiliary
variables are numbered from `AUX` up, past every atom.
`ClausePremise` translates a premise once, `entails` decides a goal under
it by DPLL with unit propagation, and `enumerate_satisfying_valuations`
splits any formula into its valuations with the same search.  Unlike the
closures, all of it takes formulas of any shape.
"""

from __future__ import annotations

import itertools

from formula_reference import (
    TT,
    Formula,
    conj,
    disj,
    evaluation_domain,
    heads_formula,
    literal_formula,
    neg,
)

AUX = 1 << 30


def implies(f: Formula, g: Formula) -> Formula:
    """f => g, written !f | g."""
    return disj([neg(f), g])


def translate(
    f: Formula, pol: bool, clauses: list[list[int]], known: set[int], next_var: int
) -> int:
    """Append to `clauses` the clauses stating that f has truth value pol;
    returns the next free auxiliary variable.

    One walk over f with polarity: a node required to hold (under a guard
    literal) is split at conjunctions and otherwise becomes one clause; a
    conjunction met inside a clause is named by a fresh variable x with
    clauses for x -> node only (Plaisted-Greenbaum).  Atoms missing from
    `known` are added to it as they are met, and each new singleton atom
    gets one more clause for the coupling A! -> A.  Literal and
    negated-literal children are handled in the loops rather than by a
    recursive call, which halves the calls on the premise-heavy queries of
    the stage-tree build.
    """
    fresh = itertools.count(next_var).__next__
    met: list[int] = []

    def atom_var(v: int) -> int:
        if v not in known:
            known.add(v)
            met.append(v)
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
                    v = atom_var(h[1])
                    lit = v if hpol else -v
                    clauses.append([guard, lit] if guard else [lit])
                else:
                    require(h, hpol, guard)
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
            v = atom_var(g[1])
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
                    v = atom_var(h[1])
                    lits.append(v if hpol else -v)
                elif collect(h, hpol, lits):
                    return True
            return False
        if tag not in ("and", "or"):
            raise ValueError(f"bad formula node {g!r}")
        x = fresh()
        require(g, pol, -x)
        lits.append(x)
        return False

    require(f, pol, 0)
    for v in met:
        if not v & 1:
            clauses.append([-v, v - 1])
            known.add(v - 1)
    return fresh()


class ClausePremise:
    """A premise translated once into the clauses that make it hold, so that
    many goals can be asked of it: `formula`, its clauses, the atoms they
    name and the next free auxiliary variable."""

    def __init__(self, formula: Formula = TT):
        self.formula = formula
        self.clauses: list[list[int]] = []
        self.known: set[int] = set()
        self.next_var = translate(formula, True, self.clauses, self.known, AUX)

    def conj(self, extra: Formula) -> ClausePremise:
        """This premise and `extra`; only `extra` is translated."""
        out = ClausePremise.__new__(ClausePremise)
        out.formula = conj([self.formula, extra])
        out.clauses = list(self.clauses)
        out.known = set(self.known)
        out.next_var = translate(extra, True, out.clauses, out.known, self.next_var)
        return out


def propagate(clauses: list[list[int]], true: set[int], trail: list[int]) -> bool:
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


def dpll(clauses: list[list[int]], true: set[int]) -> bool:
    """True iff the clauses have a model extending the literals in `true`."""
    trail: list[int] = []
    if propagate(clauses, true, trail):
        open_ = [c for c in clauses if not any(lit in true for lit in c)]
        if not open_:
            return True
        # after propagation every open clause has at least two free literals
        branch = next(lit for lit in open_[0] if -lit not in true)
        for lit in (branch, -branch):
            true.add(lit)
            if dpll(open_, true):
                return True
            true.discard(lit)
    for lit in trail:
        true.discard(lit)
    return False


def entails(goal: Formula, premise: ClausePremise) -> bool:
    """True iff every consistent total assignment satisfying the premise
    satisfies goal; only the clauses of "not goal" are translated, and the
    premise's own clauses are copied, never extended."""
    clauses = list(premise.clauses)
    translate(goal, False, clauses, set(premise.known), premise.next_var)
    return not dpll(clauses, set())


def tautology(f: Formula) -> bool:
    """True iff every consistent total assignment satisfies f."""
    return entails(f, ClausePremise())


def premise_formula(premise) -> Formula:
    """The formula a `Premise.horn` premise stands for."""
    units = [literal_formula(lit) for lit in premise.units]
    return conj(units + [heads_formula(premise.heads)])


def clause_formula(clause: tuple[int, ...]) -> Formula:
    """The formula of an `is_tautology` goal, a clause of int literals
    (false when empty)."""
    return disj([literal_formula(lit) for lit in clause])


def enumerate_satisfying_valuations(f: Formula) -> list[tuple[int, ...]]:
    """All consistent total assignments over the evaluation domain of f that
    satisfy f, in canonical order (variables in increasing order, tt before
    ff), each as its tuple of literals.

    The coupling of every singleton of the domain is added before the
    translation, because a valid disjunct keeps its atoms out of the
    clauses.  The walk decides the domain's variables in order under unit
    propagation, undone through its trail; DPLL settles the auxiliary
    variables at each leaf."""
    domain = evaluation_domain(f)
    clauses = [[-v, v - 1] for v in domain if not v & 1]  # the coupling A! -> A
    translate(f, True, clauses, set(domain), AUX)
    results: list[tuple[int, ...]] = []
    true: set[int] = set()

    def walk(i: int) -> None:
        if i == len(domain):
            if dpll(clauses, set(true)):
                results.append(tuple(v if v in true else -v for v in domain))
            return
        v = domain[i]
        if v in true or -v in true:  # forced by propagation
            walk(i + 1)
            return
        for lit in (v, -v):  # tt before ff
            trail = [lit]
            true.add(lit)
            if propagate(clauses, true, trail):
                walk(i + 1)
            for x in trail:
                true.discard(x)

    if propagate(clauses, true, []):
        walk(0)
    return results

