"""repro — FM-based hypergraph partitioning for VLSI CAD, with a
principled experimentation & reporting methodology.

Reproduction of Caldwell, Kahng, Kennings & Markov, "Hypergraph
Partitioning for VLSI CAD: Methodology for Heuristic Development,
Experimentation and Reporting" (DAC 1999).

Subpackages
-----------
``repro.hypergraph``
    Hypergraph data structure, builders, ISPD98/hMetis I/O, statistics.
``repro.instances``
    Synthetic ISPD98-like benchmark suite and generators.
``repro.core``
    Flat FM and CLIP FM engines with every implicit implementation
    decision (Section 2.2) exposed as configuration.
``repro.multilevel``
    Multilevel (ML LIFO / ML CLIP) partitioning with V-cycling.
``repro.engines``
    The engine ladder: the five named engines the tables race.
``repro.baselines``
    KL, spectral, random/BFS baselines, and the weak "Reported" FM.
``repro.evaluation``
    Experiment runner, BSF curves, Pareto frontiers, speed-dependent
    rankings, significance tests, CPU normalization, paper-style tables.
``repro.orchestrate``
    Parallel, crash-safe campaign orchestration: trial plans, run
    journal with resume, timeouts/retries, progress events.
``repro.placement``
    Top-down recursive min-cut placement with terminal propagation —
    the driving application of Section 2.1.

Quickstart
----------
>>> from repro import FMPartitioner, suite_instance
>>> hg = suite_instance("ibm01s")
>>> result = FMPartitioner(tolerance=0.02).partition(hg, seed=1)
>>> result.legal
True
"""

from repro.core import (
    BalanceConstraint,
    BestChoice,
    FMConfig,
    FMPartitioner,
    InitialSolution,
    InsertionOrder,
    Partition2,
    PartitionResult,
    TieBias,
    UpdatePolicy,
    run_multistart,
)
from repro.hypergraph import Hypergraph, HypergraphBuilder
from repro.instances import generate_circuit, suite_instance, suite_names
from repro.multilevel import MLConfig, MLPartitioner

__version__ = "1.0.0"

__all__ = [
    "BalanceConstraint",
    "BestChoice",
    "FMConfig",
    "FMPartitioner",
    "Hypergraph",
    "HypergraphBuilder",
    "InitialSolution",
    "InsertionOrder",
    "MLConfig",
    "MLPartitioner",
    "Partition2",
    "PartitionResult",
    "TieBias",
    "UpdatePolicy",
    "__version__",
    "generate_circuit",
    "run_multistart",
    "suite_instance",
    "suite_names",
]
