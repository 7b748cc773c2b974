"""The one-run Monte Carlo loop that `verify.simulate` replaced, kept as a
reference: `PhiloxDraws`, the scalar draws of one Philox stream,
`step_row`, the productive moves of one configuration, and
`scalar_simulate`, which runs the trials one after another, a productive
step at a time.  `verify.simulate` must give the same results, draw for
draw.
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf, log, log1p

import numpy as np

from stagebound.protocol import Configuration, PopulationProtocol, StepKernel, decode, encode
from stagebound.verify import SimResult, explore, stable_set


def _consensus_value(p: PopulationProtocol, counts: tuple[int, ...]) -> int | None:
    outs = {p.output(s) for s, k in enumerate(counts) if k > 0}
    if len(outs) == 1:
        return outs.pop()
    return None


class PhiloxDraws:
    """The numbers `Generator(Philox(key)).random()` and
    `.integers(0, bound)` give, call for call, read from batches of
    `random_raw` words.

    numpy's mapping, reproduced here: `random()` takes a whole 64-bit word
    w and returns (w >> 11) * 2**-53, leaving a kept 32-bit half in place.
    For `integers`, a bound up to 2**32 takes 32-bit values, the low half
    of a 64-bit word first and its high half kept for the next 32-bit
    draw; a larger bound takes whole words and leaves a kept half in place.
    Either way a value x becomes (x * bound) >> bits unless the low bits of
    the product fall below (2**bits - bound) % bound, in which case it is
    drawn again (Lemire's rejection).  `batch` words are fetched at a time,
    and at most 16 the first time, since many runs end after a few draws;
    the numbers do not depend on it.

    The bit generator is `bits`, or a new one, re-keyed: its state is set
    as `Philox(key=key)` sets it (counter 0, key words low then high,
    buffer empty).  A caller that passes one generator for many keys skips
    the entropy-seeded construction, most of the fixed cost of a short run.
    """

    __slots__ = ("_bits", "_batch", "_words", "_half")

    def __init__(self, key: int, batch: int = 256, bits: np.random.Philox | None = None):
        if bits is None:
            bits = np.random.Philox(0)
        bits.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": (0, 0, 0, 0),
                "key": (key & 0xFFFFFFFFFFFFFFFF, key >> 64),
            },
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bits = bits
        self._batch = batch
        self._words = iter(self._bits.random_raw(min(batch, 16)).tolist())
        self._half = None

    def _word(self) -> int:
        for w in self._words:
            return w
        self._words = words = iter(self._bits.random_raw(self._batch).tolist())
        return next(words)

    def _next32(self) -> int:
        h = self._half
        if h is None:
            w = self._word()
            self._half = w >> 32
            return w & 0xFFFFFFFF
        self._half = None
        return h

    def random(self) -> float:
        """A uniform float in [0, 1), a multiple of 2**-53."""
        for w in self._words:
            break
        else:
            w = self._word()
        return (w >> 11) * 2.0**-53

    def integers(self, bound: int) -> int:
        """A uniform integer in [0, bound), for 2 <= bound <= 2**63."""
        if bound > 0x100000000:
            m = self._word() * bound
            if m & 0xFFFFFFFFFFFFFFFF < bound:
                threshold = (0x10000000000000000 - bound) % bound
                while m & 0xFFFFFFFFFFFFFFFF < threshold:
                    m = self._word() * bound
            return m >> 64
        # _next32, inlined: this is the draw of every productive step
        h = self._half
        if h is None:
            for w in self._words:
                break
            else:
                w = self._word()
            self._half = w >> 32
            m = (w & 0xFFFFFFFF) * bound
        else:
            self._half = None
            m = h * bound
        if m & 0xFFFFFFFF < bound:
            threshold = (0x100000000 - bound) % bound
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * bound
        return m >> 32


def step_row(
    kernel: StepKernel, counts: tuple[int, ...], code: int, total: int
) -> tuple[int, float, tuple, tuple]:
    """The productive moves of a configuration, given its counts and its
    code: its `StepKernel` rows, in head then rule order, whose code delta
    is not zero.  Rule sides are sorted heads, so a swap such as
    A B -> B A adds 0 and is idle.  A move's weight is out of `total` =
    (n^2 - n) * L for all interactions.  Returns the moves' total weight W,
    log1p(-W / total) (-inf when every interaction is productive), their
    cumulative weights and their successor codes."""
    rows = kernel.rows(counts)
    cum = []
    succs = []
    acc = 0
    for row, w in zip(rows, kernel.weights(rows, counts)):
        if row[0]:
            acc += w
            cum.append(acc)
            succs.append(code + row[0])
    return acc, log1p(-acc / total) if acc < total else -inf, tuple(cum), tuple(succs)


def scalar_simulate(
    p: PopulationProtocol,
    c0: Configuration,
    trials: int,
    seed: int,
    max_steps: int = 1_000_000,
) -> SimResult:
    """Independent runs counting interactions (idle ones included) until a
    stable configuration.  Every run stays inside the closure of c0, so the
    stable set is computed on that closure only; the closure is released
    before the runs start.

    Idle interactions are skipped, not drawn: each loop iteration makes one
    productive step, a move that changes the configuration.  With W the
    productive weight of the configuration out of (n^2 - n) L, an
    interaction is productive with chance P = W / ((n^2 - n) L), so the
    number of interactions up to and including the next productive one is
    geometric: it is K = 1 + floor(log(1 - U) / log1p(-P)) for a uniform U,
    or 1, with no draw, when P = 1.  The move is then drawn as an integer in [0, W) and
    found by bisecting the cumulative weights, with no draw when there is
    one productive move.  A productive step thus costs at most one float
    draw, one log, one bounded draw, one bisect and one dict lookup; the
    counts have the law of the per-interaction chain.  A run whose count
    exceeds `max_steps` raises RuntimeError; so does a run, at once and
    with its own message, that reaches a configuration outside the stable
    set with no productive move.

    Deterministic: trial t draws from Philox keyed by (seed << 64) + t, so
    results are reproducible and independent of scheduling; one bit
    generator is re-keyed per trial.  `PhiloxDraws` gives the numbers that
    `Generator.random` and `Generator.integers` would, call for call.  Runs
    and the stop set hold configurations as codes in base n + 1 (`encode`).
    A code's step row is built from the `StepKernel` rows the first time a
    run visits it, and kept for the rest of the call; a code is decoded once
    per new row, and once per trial for its consensus value.
    """
    n = c0.size
    if n < 2:
        raise ValueError("simulation needs at least two agents")
    base, width = n + 1, len(c0.counts)
    space = explore(p, c0, cap=10_000_000)
    stop = {encode(space.counts[i], base) for i in stable_set(space)}
    del space

    kernel = StepKernel(p, base)
    rows: dict[int, tuple[int, float, tuple, tuple]] = {}
    steps_out = []
    consensus = []
    total = n * (n - 1) * p.lcm
    start = encode(c0.counts, base)
    bits = np.random.Philox(0)
    for t in range(trials):
        draws = PhiloxDraws((seed << 64) + t, bits=bits)
        random, draw = draws.random, draws.integers
        c = start
        steps = 0
        while c not in stop:
            row = rows.get(c)
            if row is None:
                row = rows[c] = step_row(kernel, decode(c, base, width), c, total)
            w, logq, cum, nexts = row
            if w == total:
                steps += 1
            elif w:
                # the quotient is >= 0, so int() is floor
                steps += 1 + int(log(1.0 - random()) / logq)
            else:
                raise RuntimeError(
                    f"trial {t} stuck at {decode(c, base, width)} after {steps} "
                    f"interactions: it is not stable, and no interaction changes it"
                )
            if steps > max_steps:
                raise RuntimeError(
                    f"trial {t} exceeded {max_steps} interactions; target "
                    f"may not be almost surely reachable"
                )
            c = nexts[0] if len(nexts) == 1 else nexts[bisect_right(cum, draw(w))]
        steps_out.append(steps)
        consensus.append(_consensus_value(p, decode(c, base, width)))
    return SimResult(trials, tuple(steps_out), seed, tuple(consensus))
