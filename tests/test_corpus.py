"""Bundled corpus: builder shapes and protocol-level correctness.

Every bundled protocol is model checked at small sizes: where the protocol
terminates, every initial configuration must almost surely reach the stable
set, and every stable configuration reachable from it must agree with the
predicate the protocol is supposed to compute.
"""

import pytest

from stagebound import verify as V
from stagebound.corpus import (
    avg_and_conquer,
    broadcast,
    default_corpus,
    flock_sum,
    flock_tower,
    flock_log,
    majority_four_state,
    majority_five_state,
    remainder,
    threshold,
)
from stagebound.protocol import initial_configuration, parse_protocol
from oracle_reference import roots_reach_almost_surely


def corpus_by_name(name):
    """The corpus entry of this name."""
    return next(e for e in default_corpus() if e.name == name)


def test_corpus_order_and_shapes(corpus):
    names = [e.name for e in corpus]
    assert names == [
        "broadcast",
        "majority-ex2",
        "majority-ex1",
        "majority-ex1-no-tiebreak",
        "flock-sum-c5",
        "flock-sum-c10",
        "flock-tower-c5",
        "flock-tower-c7",
        "flock-log-c15",
        "flock-log-c31",
        "remainder-m3",
        "remainder-m5",
        "avc-m3-d1",
        "threshold-m1p1-lt0",
    ]


@pytest.mark.parametrize(
    "source,q,t",
    [
        (broadcast(), 2, 1),
        (majority_five_state(), 5, 6),
        (majority_four_state(True), 4, 4),
        (majority_four_state(False), 4, 3),
        (flock_sum(5), 6, 21),
        (flock_sum(10), 11, 66),
        (flock_tower(5), 6, 9),
        (flock_tower(7), 8, 13),
        (flock_log(15), 8, 23),
        (flock_log(31), 10, 34),
        (remainder(3), 5, 12),
        (remainder(5), 7, 25),
        (avg_and_conquer(3), 6, 8),
        (threshold((-1, 1), 0), 12, 57),
    ],
)
def test_state_and_transition_counts(source, q, t):
    p = parse_protocol(source)
    assert len(p.states) == q
    assert p.explicit_count == t


# predicate semantics per corpus entry, on the input symbol counts
PREDICATES = {
    "broadcast": lambda x: x.get("one", 0) >= 1,
    "majority-ex2": lambda x: x.get("y", 0) >= x.get("x", 0),
    "majority-ex1": lambda x: x.get("y", 0) >= x.get("x", 0),
    "majority-ex1-no-tiebreak": lambda x: x.get("y", 0) > x.get("x", 0),
    "flock-sum-c5": lambda x: x.get("x", 0) >= 5,
    "flock-sum-c10": lambda x: x.get("x", 0) >= 10,
    "flock-tower-c5": lambda x: x.get("x", 0) >= 5,
    "flock-tower-c7": lambda x: x.get("x", 0) >= 7,
    "flock-log-c15": lambda x: x.get("x", 0) >= 15,
    "flock-log-c31": lambda x: x.get("x", 0) >= 31,
    "remainder-m3": lambda x: (x.get("x1", 0) + 2 * x.get("x2", 0)) % 3 == 0,
    "remainder-m5": lambda x: sum(i * x.get(f"x{i}", 0) for i in range(1, 5)) % 5 == 0,
    "avc-m3-d1": lambda x: x.get("x", 0) > x.get("y", 0),
    "threshold-m1p1-lt0": lambda x: -x.get("x1", 0) + x.get("x2", 0) < 0,
}

# untied-only protocols never stabilize on tied inputs
UNTIED_ONLY = {"majority-ex1-no-tiebreak", "avc-m3-d1"}


def _tied(name, counts):
    if name == "majority-ex1-no-tiebreak":
        return counts.get("x", 0) == counts.get("y", 0)
    if name == "avc-m3-d1":
        return counts.get("x", 0) == counts.get("y", 0)
    return False


def _input_vectors(p, n):
    syms = list(p.input_symbols)

    def go(i, left):
        if i == len(syms) - 1:
            yield {syms[i]: left}
            return
        for k in range(left + 1):
            for rest in go(i + 1, left - k):
                yield {syms[i]: k, **rest}

    yield from go(0, n)


def test_every_corpus_entry_has_a_predicate(corpus):
    assert set(PREDICATES) == {e.name for e in corpus}


@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_protocol_computes_its_predicate(name):
    entry = corpus_by_name(name)
    p = entry.protocol()
    max_n = 5 if len(p.states) >= 10 else 6
    for n in range(2, max_n + 1):
        for counts in _input_vectors(p, n):
            if _tied(name, counts):
                continue
            c0 = initial_configuration(p, counts)
            g = V.explore(p, c0)
            stable = V.stable_set(g)
            assert roots_reach_almost_surely(g, stable), (name, counts)
            want = 1 if PREDICATES[name](counts) else 0
            for i in stable:
                node = g.nodes[i]
                outs = {
                    p.output(s) for s, k in enumerate(node.counts) if k > 0
                }
                assert outs == {want}, (name, counts, node.counts)


def test_untied_only_protocols_loop_on_ties():
    for name in sorted(UNTIED_ONLY):
        p = corpus_by_name(name).protocol()
        c0 = initial_configuration(p, {"x": 2, "y": 2})
        g = V.explore(p, c0)
        assert not roots_reach_almost_surely(g, V.stable_set(g)), name


def test_corpus_terminates_flags(corpus):
    flags = {e.name: e.terminates for e in corpus}
    assert not flags["avc-m3-d1"]
    assert not flags["majority-ex1-no-tiebreak"]
    assert flags["majority-ex1"]


def test_flock_log_requires_power_of_two_minus_one():
    with pytest.raises(ValueError):
        flock_log(12)


def test_protocol_files_match_builders(corpus, tmp_path):
    # the shipped .pp files are the builder outputs verbatim
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "protocols"
    for e in corpus:
        path = root / f"{e.name}.pp"
        assert path.exists(), path
        assert path.read_text().strip() == e.source.strip()
