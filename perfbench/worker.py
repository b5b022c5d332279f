"""One benchmark iteration in a fresh process: set up, answer, check.

Run from the repository root by the runner::

    python -m perfbench.worker --workload NAME --seed N [--traced]
                               [--trace-out PATH]

The last line of standard output is one JSON object describing the
iteration.  ``setup_s`` runs from this module's first statement through
``import repro`` and building the workload inputs; ``wall_s`` times the
answer alone.  With ``--traced`` the answer runs under the
:mod:`perfbench.trace` wrappers and the object carries its layer
ledger; ``--trace-out`` also writes the host-time Chrome trace.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def output_digest(scalars) -> str:
    """sha256 of a canonical repr of an answer's scalars (floats keep
    every digit through ``json``'s repr)."""
    text = json.dumps(scalars, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _iteration(args) -> dict:
    import repro

    source = ROOT / "src" / "repro"
    if pathlib.Path(repro.__file__).resolve().parent != source:
        raise RuntimeError(
            f"imported repro from {repro.__file__}, not from {source}"
        )
    from perfbench.trace import Tracer, layer_metrics
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    record = {"setup_s": time.perf_counter() - T0}

    if args.traced:
        tracer = Tracer()
        with tracer.installed():
            start = time.perf_counter()
            with tracer.span():
                answer = workload.answer(inputs)
            record["wall_s"] = time.perf_counter() - start
        record["ledger"] = layer_metrics(tracer.stats)
        if args.trace_out:
            tracer.write_chrome(
                args.trace_out,
                process_name=f"perfbench {args.workload} (host time)",
                other_data={"workload": args.workload, "seed": args.seed,
                            "clock": "host perf_counter, microseconds"},
            )
    else:
        start = time.perf_counter()
        answer = workload.answer(inputs)
        record["wall_s"] = time.perf_counter() - start

    scalars = workload.scalars(answer)
    record["digest"] = output_digest(scalars)
    record["failures"] = workload.check(answer, scalars, args.seed)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    record = {}
    try:
        record.update(_iteration(args))
    except Exception:
        # The boundary of one iteration: report the failure to the
        # runner, which counts it in the workload's error rate.
        record["failures"] = [traceback.format_exc(limit=8)]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024
    sys.stdout.write("\n" + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
