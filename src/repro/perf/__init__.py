"""Performance model: executor, LLM feasibility, metrics."""

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
from repro.perf.freshness import weight_update_latency
from repro.perf.metrics import compare_reports
from repro.perf.trace import summarize_trace, to_chrome_trace, write_chrome_trace

__all__ = [
    "DECODE_REQUIREMENT_S",
    "Executor",
    "weight_update_latency",
    "TTFT_REQUIREMENT_S",
    "compare_reports",
    "decode_report",
    "evaluate_llm",
    "llama2_7b",
    "llama3_70b",
    "llama3_8b",
    "prefill_report",
    "summarize_trace",
    "to_chrome_trace",
    "write_chrome_trace",
]
