"""The paper's contribution as an API: co-design loop, the canonical
MTIA-vs-GPU evaluation pipeline, and the section 6 case study."""

from repro.core.casestudy import (
    CaseStudyModelConfig,
    build_case_study_model,
    run_case_study,
)
from repro.core.codesign import Mtia2iSystem, optimize_graph
from repro.core.evaluation import evaluate_model, gpu_shards_for

__all__ = [
    "CaseStudyModelConfig",
    "Mtia2iSystem",
    "build_case_study_model",
    "evaluate_model",
    "gpu_shards_for",
    "optimize_graph",
    "run_case_study",
]
