"""Command line of the benchmark.

Run from the root of a repository checkout::

    python -m perfbench run [--workload NAME ...] [--seed N]
                            [--seconds S] [--trace {0,1}] [--out PATH]
    python -m perfbench compare PARENT CHANGE
    python -m perfbench compare --agree SET1 SET2

``run`` prints every metric by name with its unit, writes
``perfbench/out/results.json`` (or ``--out``), and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 if
any iteration failed and 2 if the checkout cannot run the benchmark.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from perfbench import compare, runner


def _log(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure the workloads")
    run.add_argument("--workload", action="append",
                     help="a workload to run (repeatable; default all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float,
                     help="time budget per phase and workload, in place "
                          "of the fixed iteration counts")
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="0: untraced phase only; 1: traced phase only")
    run.add_argument("--out", type=pathlib.Path,
                     help="results file (default perfbench/out/results.json)")

    comp = commands.add_parser("compare", help="compare two sets of runs")
    comp.add_argument("--agree", action="store_true",
                      help="check that two sets of the same code agree")
    comp.add_argument("first", type=pathlib.Path)
    comp.add_argument("second", type=pathlib.Path)

    args = parser.parse_args(argv)
    if args.command == "compare":
        spec = runner.load_spec()
        first = compare.load_runs(args.first)
        second = compare.load_runs(args.second)
        check = compare.agree if args.agree else compare.compare
        text, ok = check(first, second, spec)
        print(text)
        return 0 if ok else 1

    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        results = runner.run(args.workload, seed=args.seed,
                             seconds=args.seconds, trace=args.trace,
                             out=args.out, log=_log)
    except (runner.SetupError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    line = runner.result_line(results, runner.load_spec())
    print(runner.report(results))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
