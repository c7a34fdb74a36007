"""Config autotuner: successive-halving search over the sweep fabric.

The paper hand-picks the Nexus#/Nexus++ hardware geometries its
evaluation reports (task-graph count, dependence-table set geometry).
This package closes that loop: a :class:`SearchSpace` spans manager
configurations x schedulers x topologies, an :class:`Objective` maps one
candidate's simulated results to a higher-is-better score, and
:class:`SuccessiveHalving` races the candidates over growing fidelity
(workload, seed) units, keeping the top ``1/eta`` per rung.

Every rung compiles to ordinary :class:`~repro.experiments.spec.
SweepSpec` grids executed through the cached
:class:`~repro.experiments.runner.SweepRunner`, so

* fidelity is **cumulative**: a survivor's earlier cells are content-
  addressed cache hits, making re-promotion free;
* a warm re-run of the same search executes zero simulations;
* ``n_jobs`` / ``--workers`` parallelism applies
  unchanged, as does deterministic chaos injection.

``python -m repro.tune`` is the command-line entry point.
"""

from repro.tune.objectives import OBJECTIVES, Objective, geomean, parse_objective
from repro.tune.report import TUNE_REPORT_VERSION, TuneReport
from repro.tune.search import (
    RungOutcome,
    ScoredCandidate,
    SuccessiveHalving,
    TuneResult,
)
from repro.tune.space import Candidate, SearchSpace, nexus_sharp_axis

__all__ = [
    "Candidate",
    "OBJECTIVES",
    "Objective",
    "RungOutcome",
    "ScoredCandidate",
    "SearchSpace",
    "SuccessiveHalving",
    "TUNE_REPORT_VERSION",
    "TuneReport",
    "TuneResult",
    "geomean",
    "nexus_sharp_axis",
    "parse_objective",
]
