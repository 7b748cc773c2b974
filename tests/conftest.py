import pytest

from stagebound import build_stage_graph, parse_protocol
from stagebound.corpus import default_corpus


@pytest.fixture(scope="session")
def corpus():
    return default_corpus()


@pytest.fixture(scope="session")
def corpus_graphs(corpus):
    """Stage trees for the whole bundled corpus, built once per session.
    The largest has 225 stages and each takes well under a second, so a
    build that breaks either limit fails the tests instead of hanging them."""
    return {e.name: build_stage_graph(e.protocol(), max_stages=1000, timeout=60) for e in corpus}


@pytest.fixture(scope="session")
def shared_heads():
    """A protocol whose heads (A,B) and (A,C) have three and two rules, so a
    step on them makes a second draw; every corpus head has one rule."""
    return parse_protocol(
        "protocol shared\nstates: A B C\ninputs: x -> A, y -> B\noutput1: C\n"
        "transitions:\n  A B -> C C\n  A B -> A C\n  A B -> B C\n"
        "  A C -> C C\n  A C -> C A\n  B C -> C C\n"
    )
