"""Swarm optimization laboratory with interaction-network analysis.

Runs constricted particle swarm optimization over configurable regular
communication topologies, logs which neighbor each particle copies from
at every iteration, and measures the resulting time-windowed interaction
networks: edge-removal destruction curves and the interaction diversity
metric that summarizes how many information flows coexist in the swarm.
"""

from .benchmarks import (
    BOUNDS,
    FunctionId,
    Objective,
    ObjectiveSpec,
    generate_objective,
    make_objective,
)
from .errors import (
    ConfigurationError,
    InputError,
    NonFiniteFitnessError,
    SwarmnetError,
)
from .experiment import (
    CellResult,
    ExperimentConfig,
    SummaryRow,
    TopologySpec,
    correlate,
    run_cell,
    run_sweep,
    spearman,
    summarize,
)
from .interaction import (
    DestructionCurve,
    DiversityReport,
    WeightedNetwork,
    area_under_destruction,
    build_network,
    clip_windows,
    destruction_curve,
    diversity_series,
    interaction_diversity,
)
from .pso import (
    InteractionLog,
    PsoParams,
    RunTrace,
    Swarm,
    best_neighbor,
    constriction_factor,
    fitness_improvement,
    initialize_swarm,
    run,
    step,
)
from .topology import TopologyGraph, TopologyKind, build_topology, neighbors

__version__ = "1.0.0"

__all__ = [
    "BOUNDS",
    "CellResult",
    "ConfigurationError",
    "DestructionCurve",
    "DiversityReport",
    "ExperimentConfig",
    "FunctionId",
    "InputError",
    "InteractionLog",
    "NonFiniteFitnessError",
    "Objective",
    "ObjectiveSpec",
    "PsoParams",
    "RunTrace",
    "SummaryRow",
    "Swarm",
    "SwarmnetError",
    "TopologyGraph",
    "TopologyKind",
    "TopologySpec",
    "WeightedNetwork",
    "area_under_destruction",
    "best_neighbor",
    "build_network",
    "build_topology",
    "clip_windows",
    "constriction_factor",
    "correlate",
    "destruction_curve",
    "diversity_series",
    "fitness_improvement",
    "generate_objective",
    "initialize_swarm",
    "interaction_diversity",
    "make_objective",
    "neighbors",
    "run",
    "run_cell",
    "run_sweep",
    "spearman",
    "step",
    "summarize",
    "__version__",
]
