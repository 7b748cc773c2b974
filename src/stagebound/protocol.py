"""Population protocol model: states, transitions, configurations, step semantics.

A protocol is a finite set of states, a transition relation over unordered
pairs of states (multisets of size two), an input alphabet mapped onto
states, and a 0/1 output per state.  Configurations are count vectors; the
induced Markov chain picks an ordered pair of distinct agents uniformly at
random and then one of the rules for that pair's head uniformly at random.

All probability arithmetic is exact: integer weights over a common
denominator, and fractions.Fraction where a probability is returned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

# A head is an unordered pair of state indices, canonically sorted.
Head = tuple[int, int]
# A step-kernel row (delta, a, b, e, k); see StepKernel.
Row = tuple[int, int, int, int, int]


def make_head(i: int, j: int) -> Head:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class Transition:
    """A rule lhs -> rhs over heads."""

    lhs: Head
    rhs: Head

    @property
    def is_idle(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True, order=True)
class Configuration:
    """Immutable count vector over the protocol's states."""

    counts: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(self.counts)


class ProtocolError(ValueError):
    """Raised on malformed protocol sources; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PopulationProtocol:
    """Immutable protocol description with idle rules materialized.

    `transitions` holds every rule: the `explicit_count` explicit ones from
    the source, in source order, then one implicit idle rule for each head
    that has no explicit rule.  The number of rules sharing a head is the
    uniform-choice denominator in the step semantics.  Both sides of each
    rule are sorted into heads before equal rules are merged, so a swap
    such as A B -> B A is idle however the protocol was built.
    """

    def __init__(
        self,
        name: str,
        states: tuple[str, ...],
        explicit_rules: list[tuple[Head, Head]],
        input_map: dict[str, int],
        output1: frozenset[int],
    ):
        if not states:
            raise ProtocolError("protocol needs at least one state")
        if not input_map:
            raise ProtocolError("protocol needs at least one input symbol")
        self.name = name
        self.states = states
        self.input_symbols = tuple(input_map.keys())
        self.input_map = dict(input_map)
        self.output1 = output1

        n = len(states)
        by_head: dict[Head, list[Transition]] = {}
        seen: set[tuple[Head, Head]] = set()
        all_rules: list[Transition] = []
        for lhs, rhs in explicit_rules:
            lhs, rhs = make_head(*lhs), make_head(*rhs)
            if (lhs, rhs) in seen:
                continue
            seen.add((lhs, rhs))
            t = Transition(lhs, rhs)
            all_rules.append(t)
            by_head.setdefault(lhs, []).append(t)
        self.explicit_count = len(all_rules)
        for i in range(n):
            for j in range(i, n):
                head = (i, j)
                if head not in by_head:
                    idle = Transition(head, head)
                    by_head[head] = [idle]
                    all_rules.append(idle)
        self.transitions: tuple[Transition, ...] = tuple(all_rules)
        self.rules_by_head: dict[Head, tuple[Transition, ...]] = {
            h: tuple(ts) for h, ts in by_head.items()
        }
        self.non_idle: tuple[Transition, ...] = tuple(t for t in all_rules if not t.is_idle)
        # head set -> its implication graph, built on first use by
        # logic.implications
        self.graphs: dict = {}
        # disabled head set -> what the case analysis reads of the rules
        # that it leaves, built on first use by stagegraph.rule_rows
        self.rows: dict = {}

    # -- naming helpers -------------------------------------------------

    def head_name(self, head: Head) -> str:
        return f"{self.states[head[0]]},{self.states[head[1]]}"

    def output(self, state: int) -> int:
        return 1 if state in self.output1 else 0

    def input_states(self) -> frozenset[int]:
        return frozenset(self.input_map.values())

    @cached_property
    def lcm(self) -> int:
        """L, the lcm of the numbers of rules sharing a head: the step
        semantics' common denominator is (n^2 - n) * L."""
        return math.lcm(*(len(rules) for rules in self.rules_by_head.values()))

    def __repr__(self) -> str:
        return f"PopulationProtocol({self.name!r}, |Q|={len(self.states)}, |T|={self.explicit_count})"


# ---------------------------------------------------------------------------
# Parsing


def _json_names(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ProtocolError(f"{what} must be a list of state names")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ProtocolError(f"duplicate key {key!r} in JSON protocol")
        out[key] = value
    return out


def _parse_json(text: str) -> PopulationProtocol:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from None
    for key in ("states", "inputs", "output1", "transitions"):
        if key not in data:
            raise ProtocolError(f"missing key {key!r} in JSON protocol")
    name = data.get("name", "protocol")
    if not isinstance(name, str):
        raise ProtocolError("'name' must be a string")
    states = _json_names(data["states"], "'states'")
    if len(set(states)) != len(states):
        raise ProtocolError("duplicate state names")
    index = {s: i for i, s in enumerate(states)}

    def look(state: str) -> int:
        if state not in index:
            raise ProtocolError(f"undeclared state {state!r}")
        return index[state]

    inputs = data["inputs"]
    if not isinstance(inputs, dict) or not all(
        isinstance(st, str) for st in inputs.values()
    ):
        raise ProtocolError("'inputs' must map input symbols to state names")
    input_map = {sym: look(st) for sym, st in inputs.items()}
    if not input_map:
        raise ProtocolError("empty input mapping")
    output1 = frozenset(look(s) for s in _json_names(data["output1"], "'output1'"))
    transitions = data["transitions"]
    if not isinstance(transitions, list):
        raise ProtocolError("'transitions' must be a list")
    rules = []
    for quad in transitions:
        if len(_json_names(quad, f"transition {quad!r}")) != 4:
            raise ProtocolError(f"transition {quad!r} must have 4 state names")
        a, b, c, d = (look(s) for s in quad)
        rules.append(((a, b), (c, d)))
    return PopulationProtocol(name, tuple(states), rules, input_map, output1)


def parse_protocol(text: str) -> PopulationProtocol:
    """Parse the text protocol format (or its JSON equivalent).

    Text format::

        protocol <name>
        states: A B a b
        inputs: x -> A, y -> B
        output1: B b
        transitions:
          A B -> a b
          ...

    `#` starts a comment.  The `protocol` line, `states:`, `inputs:` and
    `output1:` appear at most once, as does every JSON key.  No state of a
    text protocol is named `protocol`.  Symmetric multiset semantics:
    `A B -> C D` and `B A -> D C` denote the same rule; exact duplicates are
    collapsed.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)

    name = "protocol"
    named = False
    states: list[str] | None = None
    input_map: dict[str, int] | None = None
    output1: frozenset[int] | None = None
    rules: list[tuple[Head, Head]] = []
    in_transitions = False
    index: dict[str, int] = {}

    def look(state_name: str, lineno: int) -> int:
        if state_name not in index:
            raise ProtocolError(f"undeclared state {state_name!r}", lineno)
        return index[state_name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.split(None, 1)[0] == "protocol":
            if named:
                raise ProtocolError("repeated 'protocol' line", lineno)
            named = True
            name = line[len("protocol"):].strip() or name
            in_transitions = False
        elif line.startswith("states:"):
            if states is not None:
                raise ProtocolError("repeated 'states:' section", lineno)
            names = line[len("states:"):].split()
            if len(set(names)) != len(names):
                raise ProtocolError("duplicate state names", lineno)
            if not names:
                raise ProtocolError("empty state list", lineno)
            if "protocol" in names:
                # a rule line starting with it would read as the protocol line
                raise ProtocolError("'protocol' cannot name a state", lineno)
            states = names
            index = {s: i for i, s in enumerate(names)}
            in_transitions = False
        elif line.startswith("inputs:"):
            if input_map is not None:
                raise ProtocolError("repeated 'inputs:' section", lineno)
            input_map = {}
            for part in line[len("inputs:"):].split(","):
                part = part.strip()
                if not part:
                    continue
                if "->" not in part:
                    raise ProtocolError(f"bad input mapping {part!r}", lineno)
                sym, st = (x.strip() for x in part.split("->", 1))
                if not sym or not st:
                    raise ProtocolError(f"bad input mapping {part!r}", lineno)
                if sym in input_map:
                    raise ProtocolError(f"duplicate input symbol {sym!r}", lineno)
                input_map[sym] = look(st, lineno)
            if not input_map:
                raise ProtocolError("input symbol without mapping", lineno)
            in_transitions = False
        elif line.startswith("output1:"):
            if output1 is not None:
                raise ProtocolError("repeated 'output1:' section", lineno)
            output1 = frozenset(look(s, lineno) for s in line[len("output1:"):].split())
            in_transitions = False
        elif line.startswith("transitions:"):
            if line[len("transitions:"):].strip():
                raise ProtocolError("rules go on the lines after 'transitions:'", lineno)
            in_transitions = True
        elif in_transitions:
            if "->" not in line:
                raise ProtocolError(f"bad transition {line!r}", lineno)
            left, right = line.split("->", 1)
            ls, rs = left.split(), right.split()
            if len(ls) != 2 or len(rs) != 2:
                raise ProtocolError(
                    f"transition {line!r} must have two states on each side", lineno
                )
            a, b, c, d = (look(x, lineno) for x in ls + rs)
            rules.append(((a, b), (c, d)))
        else:
            raise ProtocolError(f"unrecognized line {line!r}", lineno)

    if states is None:
        raise ProtocolError("missing states declaration")
    if input_map is None:
        raise ProtocolError("missing inputs declaration")
    if output1 is None:
        raise ProtocolError("missing output declaration (output1: ...)")
    return PopulationProtocol(name, tuple(states), rules, input_map, output1)


# ---------------------------------------------------------------------------
# Configurations and step semantics


def initial_configuration(
    p: PopulationProtocol, input_counts: dict[str, int]
) -> Configuration:
    """Map an input (counts per input symbol) to its initial configuration."""
    counts = [0] * len(p.states)
    for sym, k in input_counts.items():
        if sym not in p.input_map:
            raise ProtocolError(f"unknown input symbol {sym!r}")
        if k < 0:
            raise ProtocolError(f"negative input count for {sym!r}")
        counts[p.input_map[sym]] += k
    return Configuration(tuple(counts))


def step_distribution(p: PopulationProtocol, c: Configuration) -> dict[Configuration, Fraction]:
    """One-step successor distribution, merging rules with equal successors:
    the weights of the `StepKernel` rows over their common denominator
    (n^2 - n) * L, L being the lcm of the rule counts, one Fraction per
    successor, in head then rule order of first appearance, and what the
    rows leave of the denominator as the self-loop, if anything, last."""
    n = c.size
    if n < 2:
        raise ValueError("configuration must have at least two agents")
    base, den, kernel = n + 1, (n * n - n) * p.lcm, StepKernel(p, n + 1)
    rows, code = kernel.rows(c.counts), encode(c.counts, base)
    nums: dict[int, int] = {}
    for row, w in zip(rows, kernel.weights(rows, c.counts)):
        s = code + row[0]
        nums[s] = nums.get(s, 0) + w
    nums[code] = den - sum(nums.values())  # the self-loop: see StepKernel
    width = len(c.counts)
    return {Configuration(decode(s, base, width)): Fraction(w, den) for s, w in nums.items() if w}


def encode(counts: tuple[int, ...], base: int) -> int:
    """The count vector as a big-endian number in `base`, which must exceed
    every count: codes of one base order as their count vectors do."""
    code = 0
    for k in counts:
        code = code * base + k
    return code


def decode(code: int, base: int, width: int) -> tuple[int, ...]:
    """The count vector of `width` states whose code in `base` is `code`."""
    out = [0] * width
    for s in range(width - 1, -1, -1):
        code, out[s] = divmod(code, base)
    return tuple(out)


class StepKernel:
    """The step semantics over the codes in `base` of the count vectors of
    a protocol's states (see `encode`): the one owner of a rule's successor
    and weight, read by `explore`, `simulate` and `step_distribution`.

    Rule i j -> k l moves a code by delta = place(k) + place(l) - place(i)
    - place(j), with place(s) = base^(width - 1 - s); it is productive if
    delta is not 0.  `heads[a]` lists the heads (a, b) of state a with a
    productive rule in increasing b, each as (b, e, rows), with one row
    (delta, a, b, e, k) per productive rule in the order of
    `rules_by_head`.  A head's multiplier is `p.lcm` / |rules|; e = 1 and k
    is the multiplier when a = b, else e = 0 and k is twice it, so a row's
    weight at counts c, c[a] * (c[b] - e) * k, is the number of ordered
    agent pairs on its head times the multiplier: over (n^2 - n) * L it is
    the rule's probability.
    Idle rules have no row: every rule of a head with an agent pair weighs
    more than 0 and all sum to (n^2 - n) * L, so the self-loop weighs the
    complement.  `change[delta, a, b]` is a row's change to the counts; a
    delta alone does not fix it (B B -> A C, C C -> B B: 4 in base 3)."""

    __slots__ = ("heads", "change")

    def __init__(self, p: PopulationProtocol, base: int):
        width = len(p.states)
        place = [base ** (width - 1 - s) for s in range(width)]
        self.heads: list[list[tuple[int, int, tuple[Row, ...]]]] = [[] for _ in range(width)]
        self.change: dict[tuple[int, int, int], tuple[int, ...]] = {}
        by_head, big = p.rules_by_head, p.lcm
        for a, b in sorted({t.lhs for t in p.non_idle}):
            rules = by_head[a, b]
            mult = big // len(rules)
            e, k = (1, mult) if a == b else (0, 2 * mult)
            rows = []
            for t in rules:
                r, s = t.rhs
                if d := place[r] + place[s] - place[a] - place[b]:
                    rows.append((d, a, b, e, k))
                    vec = [0] * width
                    for q, x in ((a, -1), (b, -1), (r, 1), (s, 1)):
                        vec[q] += x
                    self.change[d, a, b] = tuple(vec)
            if rows:
                self.heads[a].append((b, e, tuple(rows)))

    def rows(self, counts: tuple[int, ...]) -> list[Row]:
        """The rows of the heads (a, b) with an agent pair at `counts`, that is
        c[a] > 0 and c[b] > e, in head then rule order; counts clipped at 2 give the same."""
        out: list[Row] = []
        for a, heads in enumerate(self.heads):
            if counts[a]:
                for b, e, rows in heads:
                    if counts[b] > e:
                        out += rows
        return out

    @staticmethod
    def weights(rows: list[Row], counts: tuple[int, ...]) -> list[int]:
        """The weight of each row at `counts`, in row order."""
        return [counts[a] * (counts[b] - e) * k for _, a, b, e, k in rows]
