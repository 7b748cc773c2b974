"""The step semantics written per rule and per head, kept as references for
`protocol.StepKernel`: whether a rule is enabled, the configuration it
fires into and its exact probability, and every head's multiplier and
rules, taken from `rules_by_head`, coded in a base with one pair count
per head, the form `explore`, `simulate` and `step_distribution` read
before the kernel owned the step semantics.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from stagebound.protocol import Configuration, Head, PopulationProtocol, Transition


def rule_count(p: PopulationProtocol, head: Head) -> int:
    return len(p.rules_by_head[head])


def enabled(c: Configuration, t: Transition) -> bool:
    a, b = t.lhs
    if a == b:
        return c.counts[a] >= 2
    return c.counts[a] >= 1 and c.counts[b] >= 1


def fire(c: Configuration, t: Transition) -> Configuration:
    if not enabled(c, t):
        raise ValueError(f"transition {t} not enabled in {c}")
    counts = list(c.counts)
    counts[t.lhs[0]] -= 1
    counts[t.lhs[1]] -= 1
    counts[t.rhs[0]] += 1
    counts[t.rhs[1]] += 1
    return Configuration(tuple(counts))


def transition_probability(
    p: PopulationProtocol, c: Configuration, t: Transition
) -> Fraction:
    """Probability that the next interaction executes `t` (exact)."""
    n = c.size
    if n < 2:
        raise ValueError("configuration must have at least two agents")
    if not enabled(c, t):
        raise ValueError(f"transition {t} not enabled in {c}")
    a, b = t.lhs
    k = rule_count(p, t.lhs)
    if a == b:
        num = c.counts[a] * (c.counts[a] - 1)
    else:
        num = 2 * c.counts[a] * c.counts[b]
    return Fraction(num, (n * n - n) * k)


def rule_lcm(p: PopulationProtocol) -> int:
    """L, the lcm of the numbers of rules sharing a head."""
    return lcm(*(len(rules) for rules in p.rules_by_head.values()))


def head_rules(p: PopulationProtocol) -> list:
    """Every head (a, b) in sorted order with its multiplier L / |rules|
    and its rules, in rule order, each as its quadruple (i, j, k, l)."""
    big = rule_lcm(p)
    return [
        (a, b, big // len(rules), [t.lhs + t.rhs for t in rules])
        for (a, b), rules in sorted(p.rules_by_head.items())
    ]


def coded(p: PopulationProtocol, base: int) -> tuple:
    """The `head_rules` as (a, b, multiplier, deltas), each rule as the change
    i j -> k l makes to the code in `base` of a count vector: place(k) +
    place(l) - place(i) - place(j), with place(s) = base^(width - 1 - s),
    so an idle rule adds 0."""
    width = len(p.states)
    place = [base ** (width - 1 - s) for s in range(width)]
    return tuple(
        (a, b, mult, tuple(place[k] + place[l] - place[i] - place[j] for i, j, k, l in quads))
        for a, b, mult, quads in head_rules(p)
    )


def head_pairs(heads: tuple, counts: tuple[int, ...]):
    """For each head (a, b, multiplier, rules) of `coded` with an agent
    pair in `counts`, in head order: (w, multiplier, rules), w being the
    number of ordered agent pairs on the head."""
    for a, b, mult, rules in heads:
        w = counts[a] * (counts[a] - 1) if a == b else 2 * counts[a] * counts[b]
        if w:
            yield w, mult, rules


def coded_weights(heads: tuple, counts: tuple[int, ...], code: int) -> dict[int, int]:
    """The successor codes of a configuration with their integer weights,
    given its counts, its code and the `coded` heads in the code's base: a
    rule's weight is its head's pair count times the head's multiplier, and
    rules with equal successors add up.  Successors come in head order,
    then rule order."""
    nums: dict[int, int] = {}
    for w, mult, deltas in head_pairs(heads, counts):
        w *= mult
        for d in deltas:
            s = code + d
            nums[s] = nums.get(s, 0) + w
    return nums
