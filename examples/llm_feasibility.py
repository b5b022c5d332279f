"""LLM feasibility on MTIA 2i (paper sections 3.6 and 8).

Evaluates Llama2-7B, Llama3-8B, and Llama3-70B against the paper's
serving requirements (600 ms time-to-first-token, 60 ms per decoded
token) on MTIA 2i and on the GPU baseline.  The paper's finding — MTIA
2i's prefill passes but LPDDR bandwidth sinks decode — falls out of the
dual-roofline memory hierarchy.

Run:  python examples/llm_feasibility.py
"""

from repro.arch import gpu_spec, mtia2i_spec
from repro.perf import (
    DECODE_REQUIREMENT_S,
    TTFT_REQUIREMENT_S,
    decode_report,
    evaluate_llm,
    llama2_7b,
    llama3_70b,
    llama3_8b,
)


def main() -> None:
    print(
        f"requirements: TTFT <= {TTFT_REQUIREMENT_S * 1e3:.0f} ms, "
        f"decode <= {DECODE_REQUIREMENT_S * 1e3:.0f} ms/token\n"
    )
    chips = (mtia2i_spec(), gpu_spec())
    models = (llama2_7b(), llama3_8b(), llama3_70b())
    header = f"{'model':12} {'chip':16} {'prefill':>10} {'decode':>10} {'verdict':>16}"
    print(header)
    print("-" * len(header))
    for model in models:
        for chip in chips:
            verdict = evaluate_llm(model, chip)
            status = "viable" if verdict.viable else (
                "decode fails" if verdict.prefill_meets_ttft else "prefill fails"
            )
            print(
                f"{model.name:12} {chip.name:16} "
                f"{verdict.prefill_latency_s * 1e3:8.0f}ms "
                f"{verdict.decode_latency_s * 1e3:8.1f}ms {status:>16}"
            )
    mtia = mtia2i_spec()
    decode = decode_report(llama2_7b(), mtia)
    print(
        f"\nwhy decode fails on MTIA 2i: each token streams "
        f"{llama2_7b().weight_bytes / 1e9:.1f} GB of weights over "
        f"{mtia.dram.bandwidth_bytes_per_s / 1e9:.0f} GB/s LPDDR "
        f"-> {decode.weight_stream_s * 1e3:.0f} ms/token floor "
        f"(memory bound: {decode.memory_bound})"
    )


if __name__ == "__main__":
    main()
