"""Benchmark corpus: parameterized builders for the protocol families used
in the experimental evaluation, plus the expected analysis results the
benchmark runner diffs against.

Builders emit protocol source text so the same definitions can be written to
.pp files and fed back through the parser.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import Bound
from .protocol import PopulationProtocol, parse_protocol


def broadcast() -> str:
    """One-way infection: a single positive agent converts everyone."""
    return "\n".join(
        [
            "protocol broadcast",
            "states: t f",
            "inputs: one -> t, zero -> f",
            "output1: t",
            "transitions:",
            "  t f -> t t",
        ]
    )


def majority_four_state(tie_break: bool = True) -> str:
    """Four-state majority: capitals fight, survivors convert minnows; the
    b a -> b b rule resolves ties toward output 1."""
    name = "majority-ex1" if tie_break else "majority-ex1-no-tiebreak"
    rules = [
        "  A B -> a b",
        "  A b -> A a",
        "  B a -> B b",
    ]
    if tie_break:
        rules.append("  b a -> b b")
    return "\n".join(
        [
            f"protocol {name}",
            "states: A B a b",
            "inputs: x -> A, y -> B",
            "output1: B b",
            "transitions:",
        ]
        + rules
    )


def majority_five_state() -> str:
    """Five-state majority with a tie witness C (output 1 on ties)."""
    return "\n".join(
        [
            "protocol majority-ex2",
            "states: A B C a b",
            "inputs: x -> A, y -> B",
            "output1: B b C",
            "transitions:",
            "  A B -> b C",
            "  A C -> A a",
            "  B C -> B b",
            "  B a -> B b",
            "  A b -> A a",
            "  C a -> C b",
        ]
    )


def flock_sum(c: int) -> str:
    """Value-aggregation threshold x >= c: agents pool their counts, the
    surplus stays conserved, and an agent that reaches c broadcasts."""
    states = [str(i) for i in range(c + 1)]
    lines = [
        f"protocol flock-sum-c{c}",
        "states: " + " ".join(states),
        "inputs: x -> 1, y -> 0",
        f"output1: {c}",
        "transitions:",
    ]
    for i in range(c + 1):
        for j in range(i, c + 1):
            if max(i, j) == c:
                lines.append(f"  {i} {j} -> {c} {c}")
            else:
                t = i + j
                q = min(t, c)
                lines.append(f"  {i} {j} -> {q} {t - q}")
    return "\n".join(lines)


def flock_tower(c: int) -> str:
    """Tower-climbing threshold x >= c: two equal levels push one agent up a
    level; level c broadcasts."""
    states = [str(i) for i in range(c + 1)]
    lines = [
        f"protocol flock-tower-c{c}",
        "states: " + " ".join(states),
        "inputs: x -> 1, y -> 0",
        f"output1: {c}",
        "transitions:",
    ]
    for i in range(1, c):
        lines.append(f"  {i} {i} -> {i+1} {i}")
    for j in range(c):
        lines.append(f"  {c} {j} -> {c} {c}")
    return "\n".join(lines)


def flock_log(c: int) -> str:
    """Logarithmic-state threshold x >= c for c = 2^k - 1: agents carry
    powers of two, equal powers double, collectors gather the binary digits
    of c downward, and any pair summing to at least c raises the alarm."""
    k = (c + 1).bit_length() - 1
    if (1 << k) - 1 != c:
        raise ValueError("logarithmic flock needs c = 2^k - 1")
    vals = sorted(
        {0}
        | {1 << i for i in range(k)}
        | {(1 << k) - (1 << j) for j in range(k)}
    )
    vset = set(vals)
    lines = [
        f"protocol flock-log-c{c}",
        "states: " + " ".join(str(v) for v in vals),
        "inputs: x -> 1, y -> 0",
        f"output1: {c}",
        "transitions:",
    ]
    for ai, v in enumerate(vals):
        for w in vals[ai:]:
            t = v + w
            if v == 0 and w < c:
                continue
            if t < c:
                if t in vset and {t, 0} != {v, w} and w != c:
                    lines.append(f"  {v} {w} -> {t} 0")
            else:
                lines.append(f"  {v} {w} -> {c} {c}")
    return "\n".join(lines)


def remainder(m: int) -> str:
    """Modulo-m remainder: values add mod m, one agent keeps the sum while
    the other becomes a passive opinion holder polled by value agents."""
    lines = [
        f"protocol remainder-m{m}",
        "states: " + " ".join([f"v{i}" for i in range(m)] + ["T", "F"]),
        "inputs: " + ", ".join(f"x{i} -> v{i}" for i in range(1, m)),
        "output1: v0 T",
        "transitions:",
    ]
    for i in range(m):
        for j in range(i, m):
            s = (i + j) % m
            flag = "T" if s == 0 else "F"
            lines.append(f"  v{i} v{j} -> v{s} {flag}")
    for i in range(m):
        flag = "T" if i == 0 else "F"
        lines.append(f"  v{i} T -> v{i} {flag}")
        lines.append(f"  v{i} F -> v{i} {flag}")
    return "\n".join(lines)


def avg_and_conquer(m: int = 3) -> str:
    """Averaging majority: odd values average toward each other (nearest odd
    pair), opposite units cancel into signed weak states, and strong agents
    drag weak ones to their own sign.  Only correct for untied inputs.  The
    family's d=1 member, the only one bundled, is named avc-m{m}-d1."""
    if m < 3 or m % 2 == 0:
        raise ValueError("m must be odd and >= 3")
    vals = [v for v in range(-m, m + 1) if v % 2 != 0]

    def nm(v: int) -> str:
        return f"p{v}" if v > 0 else f"m{-v}"

    lines = [
        f"protocol avc-m{m}-d1",
        "states: " + " ".join([nm(v) for v in vals] + ["zp", "zm"]),
        f"inputs: x -> p{m}, y -> m{m}",
        "output1: " + " ".join([nm(v) for v in vals if v > 0] + ["zp"]),
        "transitions:",
    ]
    for i, u in enumerate(vals):
        for v in vals[i:]:
            if (u, v) == (-1, 1):
                lines.append(f"  {nm(u)} {nm(v)} -> zp zm")
                continue
            h = (u + v) // 2
            a, b = (h, h) if h % 2 != 0 else (h + 1, h - 1)
            if {a, b} != {u, v}:
                lines.append(f"  {nm(u)} {nm(v)} -> {nm(a)} {nm(b)}")
    for u in vals:
        mine, other = ("zp", "zm") if u > 0 else ("zm", "zp")
        lines.append(f"  {nm(u)} {other} -> {nm(u)} {mine}")
    return "\n".join(lines)


def threshold(coeffs: tuple[int, ...], c: int) -> str:
    """Linear threshold sum(a_i * x_i) < c: agents pool values with clamping
    at +-s (the residue is conserved), both participants adopt the opinion
    of the clamped value, and an agent whose value drains to zero in a
    pooling hands its agenthood to a pure opinion follower."""
    amax = max(abs(a) for a in coeffs)
    s = 2 * max(amax, abs(c) + 1)

    def nm(u: int, b: int) -> str:
        return f"{'m' if u < 0 else 'p'}{abs(u)}b{b}"

    states = [nm(u, b) for u in range(-s, s + 1) for b in (0, 1)] + ["TOP", "BOT"]
    sig = "".join(
        ("p" if a > 0 else "m") + str(abs(a)) for a in coeffs
    )
    lines = [
        f"protocol threshold-{sig}-lt{c}",
        "states: " + " ".join(states),
        "inputs: "
        + ", ".join(f"x{i+1} -> {nm(a, 1 if a < c else 0)}" for i, a in enumerate(coeffs)),
        "output1: " + " ".join([nm(u, 1) for u in range(-s, s + 1)] + ["TOP"]),
        "transitions:",
    ]
    rules = set()
    for u in range(-s, s + 1):
        for v in range(-s, s + 1):
            t = u + v
            q = max(-s, min(s, t))
            r = t - q
            if u == v and q != t:
                continue  # two equally saturated agents have nothing to trade
            beta = 1 if q < c else 0
            fol = "TOP" if beta else "BOT"
            for bu in (0, 1):
                for bv in (0, 1):
                    lhs = tuple(sorted((nm(u, bu), nm(v, bv))))
                    if r == 0:
                        rhs = tuple(sorted((nm(q, beta), fol)))
                    else:
                        rhs = tuple(sorted((nm(q, beta), nm(r, beta))))
                    if lhs != rhs:
                        rules.add((lhs, rhs))
    for u in range(-s, s + 1):
        for b in (0, 1):
            fol = "TOP" if b else "BOT"
            other = "BOT" if b else "TOP"
            rules.add(
                (tuple(sorted((nm(u, b), other))), tuple(sorted((nm(u, b), fol))))
            )
    for lhs, rhs in sorted(rules):
        lines.append(f"  {lhs[0]} {lhs[1]} -> {rhs[0]} {rhs[1]}")
    return "\n".join(lines)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: str
    expected_stages: int
    expected_bound: Bound
    # terminates: the protocol reaches consensus from every initial
    # configuration (False for the two families that assume untied inputs)
    terminates: bool = True
    # stage count this reconstruction actually produces when the reference
    # table's rule set is not fully pinned down by its sources; None means
    # the reconstruction matches the reference count exactly
    known_stage_deviation: int | None = None

    def protocol(self) -> PopulationProtocol:
        return parse_protocol(self.source)


def default_corpus() -> list[CorpusEntry]:
    """The bundled benchmark suite, in the reference-table order."""
    Q = Bound.QUASI_QUADRATIC
    C = Bound.CUBIC
    E = Bound.EXPONENTIAL
    return [
        CorpusEntry("broadcast", broadcast(), 5, Q),
        CorpusEntry("majority-ex2", majority_five_state(), 13, Q),
        CorpusEntry("majority-ex1", majority_four_state(True), 11, E),
        CorpusEntry(
            "majority-ex1-no-tiebreak", majority_four_state(False), 9, Q, terminates=False
        ),
        CorpusEntry("flock-sum-c5", flock_sum(5), 26, C),
        CorpusEntry("flock-sum-c10", flock_sum(10), 46, C),
        CorpusEntry("flock-tower-c5", flock_tower(5), 54, C),
        CorpusEntry("flock-tower-c7", flock_tower(7), 198, C),
        CorpusEntry("flock-log-c15", flock_log(15), 66, C),
        CorpusEntry("flock-log-c31", flock_log(31), 130, C),
        CorpusEntry("remainder-m3", remainder(3), 27, Q),
        CorpusEntry("remainder-m5", remainder(5), 225, Q),
        CorpusEntry("avc-m3-d1", avg_and_conquer(3), 41, Q, terminates=False),
        # The threshold family is documented by its mechanism, not an exact
        # rule list; this encoding reproduces the reference row's state and
        # transition counts (12/57) but yields 25 stages instead of 21.
        CorpusEntry(
            "threshold-m1p1-lt0",
            threshold((-1, 1), 0),
            21,
            C,
            known_stage_deviation=25,
        ),
    ]
