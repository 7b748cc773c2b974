"""stagebound: parametric expected-interaction bounds for population protocols.

Builds a stage tree for a protocol, classifies each edge into an asymptotic
class, and reports an upper bound on the expected number of pairwise
interactions to stable consensus, valid for every population size.  A
finite-instance oracle (explicit-state exploration, exact expected hitting
times, Monte Carlo simulation) validates the construction at small sizes.
"""

from .bounds import AnalysisReport, Bound, aggregate, edge_bound
from .protocol import (
    Configuration,
    PopulationProtocol,
    ProtocolError,
    Transition,
    initial_configuration,
    parse_protocol,
    step_distribution,
)
from .stagegraph import (
    Stage,
    StageGraph,
    StageLimitError,
    build_stage_graph,
    initial_stage,
    to_dot,
    to_json_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Bound",
    "Configuration",
    "PopulationProtocol",
    "ProtocolError",
    "Stage",
    "StageGraph",
    "StageLimitError",
    "Transition",
    "aggregate",
    "build_stage_graph",
    "edge_bound",
    "initial_configuration",
    "initial_stage",
    "parse_protocol",
    "step_distribution",
    "to_dot",
    "to_json_dict",
]
