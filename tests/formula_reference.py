"""The formula trees that stage formulas were built as before `logic.Parts`
became their one form, kept as the reference for it.

A tree is an immutable tagged tuple:

    ("tt",) | ("ff",) | ("atom", v) | ("not", f)
    | ("and", (f, ...)) | ("or", (f, ...))

whose leaves are the int variables of `logic` (2s + 1 presence, 2s + 2
singleton).  `conj`, `disj` and `neg` simplify tt and ff away as the build
did; `evaluate`, `evaluation_domain` and `pretty` walk any tree.
`formula_of(parts, root)` rebuilds the tree that `stage_formula` (or, with
`root`, `initial_stage`) built for a `Parts`, so `logic.pretty`,
`logic.evaluate`, `logic.evaluation_domain` and `logic.holds_throughout` can
be checked against the tree walkers (`holds_throughout` here asks one total
valuation at a time), and the clause DPLL and the searches of the tests
take every stage formula as a tree.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from stagebound.logic import Parts, variable_name, xi_clause

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
    """Truth values of f under many total valuations at once: bit j of
    `bits[v]` is the value of variable v under valuation j, and the
    connectives are bitwise, with -1 for tt and 0 for ff."""
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
    every singleton v, in increasing order."""
    dom = atoms_of(f)
    dom |= {v - 1 for v in dom if not v & 1}
    return sorted(dom)


def holds_throughout(f: Formula, vals: Sequence[Sequence[int]]) -> bool:
    """True iff f holds under every valuation of `vals` and under each of
    its consistent extensions over the variables of f outside it, asked of
    one total valuation at a time."""
    domain = evaluation_domain(f)
    for nu in vals:
        fixed = {abs(x): x > 0 for x in nu}
        extra = [v for v in domain if v not in fixed]
        for values in itertools.product((True, False), repeat=len(extra)):
            asg = {**fixed, **dict(zip(extra, values))}
            if any(asg[v] and not asg[v - 1] for v in extra if not v & 1):
                continue  # A! without A
            if not evaluate(f, asg) & 1:
                return False
    return True


def literal_formula(lit: int) -> Formula:
    """The formula of a literal: its atom, negated when lit < 0."""
    f = atom(abs(lit))
    return f if lit > 0 else neg(f)


def valuation_formula(val: Sequence[int]) -> Formula:
    """The conjunction of the literals a valuation fixes, in its order."""
    return conj([literal_formula(lit) for lit in val])


def xi(head) -> Formula:
    """"Every rule with this head is disabled", the disjunction of the
    literals of `xi_clause`: "no A or no B" for {A,B}, "no A, or exactly
    one A" for {A,A}."""
    return disj([literal_formula(lit) for lit in xi_clause(head)])


def heads_formula(heads) -> Formula:
    """Conjunction of xi over a set of heads, sorted (tt for none)."""
    return conj([xi(h) for h in sorted(set(heads))])


def member_formula(member: tuple[int, ...]) -> Formula:
    """A member of a stage formula's disjunction: "a head is enabled", the
    negated xi, for the pair of literals `not_xi` gives, and otherwise the
    conjunction of its literals (one input state's presence at the root)."""
    if len(member) == 2:
        return neg(disj([literal_formula(-lit) for lit in member]))
    return valuation_formula(member)


def formula_of(parts: Parts, root: bool = False) -> Formula:
    """The tree the build made for `parts`: `stage_formula`'s conjunction of
    units[0], the xi of the heads, units[1:] and the disjunction, or with
    `root`, `initial_stage`'s disjunction followed by the literals of the
    units."""
    some = [] if parts.members == ((),) else [disj(map(member_formula, parts.members))]
    if root:
        first = [literal_formula(x) for x in parts.units[0]] if parts.units else []
        rest = [literal_formula(x) for val in parts.units[1:] for x in val]
        return conj(some + first + [heads_formula(parts.heads)] + rest)
    trees = [valuation_formula(u) for u in parts.units[:1]]
    trees.append(heads_formula(parts.heads))
    trees += [valuation_formula(u) for u in parts.units[1:]]
    return conj(trees + some)


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
