"""Swarm optimization laboratory with interaction-network analysis.

Runs constricted particle swarm optimization over configurable regular
communication topologies, logs which neighbor each particle copies from
at every iteration, and measures the resulting time-windowed interaction
networks: edge-removal destruction curves and the interaction diversity
metric that summarizes how many information flows coexist in the swarm.

The package exports what a library run needs; everything else is reached
through its submodule (`swarmnet.experiment`, `swarmnet.io`, ...).
"""

from .benchmarks import FunctionId, ObjectiveSpec, make_objective
from .errors import (
    ConfigurationError,
    InputError,
    NonFiniteFitnessError,
    SwarmnetError,
)
from .interaction import diversity_series, interaction_diversity
from .pso import PsoParams, run
from .topology import TopologyKind, build_topology

__version__ = "1.0.0"

__all__ = [
    "ConfigurationError",
    "FunctionId",
    "InputError",
    "NonFiniteFitnessError",
    "ObjectiveSpec",
    "PsoParams",
    "SwarmnetError",
    "TopologyKind",
    "build_topology",
    "diversity_series",
    "interaction_diversity",
    "make_objective",
    "run",
    "__version__",
]
