"""Performance model: executor, roofline, LLM feasibility, metrics."""

from repro.perf.executor import Executor
from repro.perf.llm import (
    DECODE_REQUIREMENT_S,
    TTFT_REQUIREMENT_S,
    decode_report,
    evaluate_llm,
    llama2_7b,
    llama3_70b,
    llama3_8b,
    prefill_report,
)
from repro.perf.freshness import freshness_quality_gain, weight_update_latency
from repro.perf.metrics import compare_reports, efficiency_from_report
from repro.perf.trace import summarize_trace, to_chrome_trace, write_chrome_trace
from repro.perf.roofline import (
    attainable,
    dual_roofline,
    sweep,
)

__all__ = [
    "DECODE_REQUIREMENT_S",
    "Executor",
    "freshness_quality_gain",
    "weight_update_latency",
    "TTFT_REQUIREMENT_S",
    "attainable",
    "compare_reports",
    "decode_report",
    "dual_roofline",
    "efficiency_from_report",
    "evaluate_llm",
    "llama2_7b",
    "llama3_70b",
    "llama3_8b",
    "prefill_report",
    "summarize_trace",
    "sweep",
    "to_chrome_trace",
    "write_chrome_trace",
]
