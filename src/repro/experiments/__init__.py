"""Regeneration of every table and figure in the paper's evaluation.

One module per artefact; each exposes ``run()`` returning a structured
result and ``render(result)`` producing the text table/series the paper
reports.  ``repro.experiments.runner.run_all()`` executes the whole
evaluation and is what ``EXPERIMENTS.md`` is generated from.

| Paper artefact | Module |
|---|---|
| Table 1 (Caffenet layers)          | :mod:`repro.experiments.tables` |
| Table 3 (EC2 catalog)              | :mod:`repro.experiments.tables` |
| Fig. 2 (three-stage approach)      | :mod:`repro.experiments.fig2_pipeline` |
| Fig. 3 (layer time distribution)   | :mod:`repro.experiments.fig3_time_distribution` |
| Fig. 4 (single-inference vs prune) | :mod:`repro.experiments.fig4_single_inference` |
| Fig. 5 (parallel inference)        | :mod:`repro.experiments.fig5_parallel_inference` |
| Fig. 6 (Caffenet layer sweeps)     | :mod:`repro.experiments.fig6_caffenet_sweeps` |
| Fig. 7 (Googlenet layer sweeps)    | :mod:`repro.experiments.fig7_googlenet_sweeps` |
| Fig. 8 (multi-layer pruning)       | :mod:`repro.experiments.fig8_multilayer` |
| Fig. 9 (time-accuracy Pareto)      | :mod:`repro.experiments.fig9_time_pareto` |
| Fig. 10 (cost-accuracy Pareto)     | :mod:`repro.experiments.fig10_cost_pareto` |
| Fig. 11 (TAR over prune grid)      | :mod:`repro.experiments.fig11_tar` |
| Fig. 12 (CAR across types)         | :mod:`repro.experiments.fig12_car` |
| Algorithm 1 complexity/quality     | :mod:`repro.experiments.algorithm1` |
"""

from repro.experiments.engine import (
    REGISTRY,
    EngineRun,
    Experiment,
    ExperimentResult,
    run_experiments,
)
from repro.experiments.runner import run_all

__all__ = [
    "EngineRun",
    "Experiment",
    "ExperimentResult",
    "REGISTRY",
    "run_all",
    "run_experiments",
]

