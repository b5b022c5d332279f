"""repro: a performance-model reproduction of Meta's MTIA 2i (ISCA 2025).

The library models an MTIA-2i-class inference accelerator — its PE grid,
memory hierarchy (Local Memory / partitioned SRAM / LPDDR), NoC, and
engines — alongside synthetic DLRM/DHEN/HSTU workloads, the model-chip
co-design machinery (graph passes, autotuning), a serving simulator, and
the productionization studies the paper reports (memory errors and ECC,
overclocking, power provisioning, firmware rollouts, A/B testing), and a
fleet resilience simulator that replays the section 5.5 incident arc.

Quick start::

    from repro import Mtia2iSystem, small_dlrm
    from repro.models.dlrm import build_dlrm
    import dataclasses

    config = small_dlrm()
    system = Mtia2iSystem()
    result = system.deploy(
        lambda b: build_dlrm(dataclasses.replace(config, batch=b)),
        model_name=config.name,
    )
    print(result.report.throughput_samples_per_s)
"""

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.arch import gpu_spec, mtia1_spec, mtia2i_spec, spec_ratio
    from repro.core import (
        Mtia2iSystem,
        ModelEvaluation,
        evaluate_model,
        optimize_graph,
        run_case_study,
    )
    from repro.graph import OpGraph
    from repro.models import figure6_models, small_dlrm, table1_models
    from repro.perf import (
        ExecutionReport,
        Executor,
        evaluate_llm,
        llama2_7b,
        llama3_8b,
    )
    from repro.resilience import run_resilience, run_section_55_drill
    from repro.tco import compare_platforms

__version__ = "1.0.0"

# Each subpackage and the top-level names it provides.  They load on
# first use (PEP 562), so importing one subpackage, say
# ``repro.resilience.policies``, does not import the whole stack.
_EXPORTS = {
    "repro.arch": ("gpu_spec", "mtia1_spec", "mtia2i_spec", "spec_ratio"),
    "repro.core": (
        "Mtia2iSystem", "ModelEvaluation", "evaluate_model", "optimize_graph",
        "run_case_study",
    ),
    "repro.graph": ("OpGraph",),
    "repro.models": ("figure6_models", "small_dlrm", "table1_models"),
    "repro.perf": (
        "ExecutionReport", "Executor", "evaluate_llm", "llama2_7b", "llama3_8b",
    ),
    "repro.resilience": ("run_resilience", "run_section_55_drill"),
    "repro.tco": ("compare_platforms",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


__all__ = [
    "ExecutionReport",
    "Executor",
    "ModelEvaluation",
    "Mtia2iSystem",
    "OpGraph",
    "__version__",
    "compare_platforms",
    "evaluate_llm",
    "evaluate_model",
    "figure6_models",
    "gpu_spec",
    "llama2_7b",
    "llama3_8b",
    "mtia1_spec",
    "mtia2i_spec",
    "optimize_graph",
    "run_case_study",
    "run_resilience",
    "run_section_55_drill",
    "small_dlrm",
    "spec_ratio",
    "table1_models",
]
