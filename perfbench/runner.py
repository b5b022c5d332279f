"""The benchmark runner: a closed loop with one client.

The runner starts one worker process at a time (:mod:`perfbench.worker`)
and waits for its answer, so nothing else the benchmark does competes
with the measured answer.  Workers run single-threaded
(``OMP/OPENBLAS/MKL_NUM_THREADS=1``) and with ``PYTHONHASHSEED`` unset,
so every worker gets its own hash seed and the output-digest check
across iterations catches hash-order nondeterminism.  Around each
worker the runner times the :mod:`perfbench.reference` kernel, and
``wall_s`` and ``setup_s`` are reported at the reference host speed.

Iterations come in rounds; each round runs one iteration of every
selected workload, forward on even rounds and in reverse on odd ones,
so a noisy period on a shared host is spread across workloads.  The
untraced phase gives the end-to-end metrics, the traced phase the
per-layer ledger.  A phase runs a fixed number of rounds, or with
``seconds`` as many rounds as fit in that time.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from perfbench import stats
from perfbench.reference import NOMINAL_REF_S, reference_s

ROOT = pathlib.Path(__file__).resolve().parent.parent

UNTRACED_ITERATIONS = 7
TRACED_ITERATIONS = 2
# With a time budget, a phase still runs at least this many rounds.
MIN_UNTRACED_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
WORKER_TIMEOUT_S = 120.0
# Units of layer metrics made from counts alone: they must repeat
# exactly across iterations, while time-derived ones take the minimum.
COUNT_UNITS = ("count", "ratio")
# Per-iteration samples of the untraced iterations.
SAMPLES = ("wall_s", "setup_s", "peak_rss_mb", "ref_s")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


def load_spec() -> Dict:
    """The benchmark declaration, ``BENCHMARK.json`` at the root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env(root: pathlib.Path) -> Dict[str, str]:
    env = dict(os.environ)
    path = [str(root / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("PYTHONHASHSEED", None)
    return env


def run_worker(root: pathlib.Path, workload: str, seed: int, traced: bool,
               trace_out: Optional[pathlib.Path] = None) -> Dict:
    """One iteration in a fresh process, bracketed by reference timings;
    its JSON record."""
    command = [sys.executable, "-m", "perfbench.worker",
               "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    record = {"workload": workload, "seed": seed, "traced": traced}
    before = reference_s()
    try:
        proc = subprocess.run(
            command, cwd=root, env=worker_env(root), capture_output=True,
            text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        record["failures"] = [f"worker timed out after {WORKER_TIMEOUT_S} s"]
        return record
    record["ref_s"] = min(before, reference_s())
    lines = proc.stdout.strip().splitlines()
    try:
        record.update(json.loads(lines[-1]))
    except (IndexError, ValueError):
        record["failures"] = [
            f"worker exited with code {proc.returncode} and no result: "
            + proc.stderr[-2000:]
        ]
    return record


def _rounds(count: int, seconds: Optional[float],
            minimum: int) -> Iterator[int]:
    """``count`` round indices, or with ``seconds`` as many as fit."""
    start = time.perf_counter()
    done = 0
    while True:
        if seconds is None:
            if done >= count:
                return
        elif done >= minimum:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > seconds:
                return
        yield done
        done += 1


def collect(root: pathlib.Path, workloads: Sequence[str], seed: int,
            untraced: int = UNTRACED_ITERATIONS,
            traced: int = TRACED_ITERATIONS,
            seconds: Optional[float] = None,
            trace_dir: Optional[pathlib.Path] = None,
            log: Callable[[str], None] = lambda line: None,
            ) -> Dict[str, List[Dict]]:
    """Run the iterations; the records of each workload, in run order.

    ``untraced=0`` skips the untraced phase; each traced round then
    also runs an untraced iteration, the baseline of ``trace.overhead``.
    ``traced=0`` skips the traced phase.  The first traced iteration
    of each workload writes ``<trace_dir>/<workload>.trace.json``.
    """
    records: Dict[str, List[Dict]] = {name: [] for name in workloads}
    order = 0

    def one(name: str, is_traced: bool, trace_out=None) -> None:
        record = run_worker(root, name, seed, is_traced, trace_out)
        records[name].append(record)
        kind = "traced" if is_traced else "untraced"
        if record.get("failures"):
            last_line = record["failures"][0].strip().splitlines()[-1]
            log(f"{name} {kind}: FAILED {last_line}")
        else:
            log(f"{name} {kind}: wall {record['wall_s']:.3f} s, setup "
                f"{record['setup_s']:.3f} s, rss "
                f"{record['peak_rss_mb']:.1f} MiB, reference "
                f"{record['ref_s'] * 1e3:.1f} ms (raw host times)")

    def ordered() -> List[str]:
        return list(workloads) if order % 2 == 0 else list(workloads)[::-1]

    if untraced:
        for _ in _rounds(untraced, seconds, MIN_UNTRACED_ROUNDS):
            for name in ordered():
                one(name, False)
            order += 1
    if traced:
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
        for index in _rounds(traced, seconds, MIN_TRACED_ROUNDS):
            for name in ordered():
                if not untraced:
                    one(name, False)
                trace_out = (trace_dir / f"{name}.trace.json"
                             if index == 0 and trace_dir is not None
                             else None)
                one(name, True, trace_out)
            order += 1
    return records


def _majority(values: List) -> object:
    return collections.Counter(values).most_common(1)[0][0]


def at_reference_speed(seconds: List[float], refs: List[float],
                       pick: Callable) -> float:
    """A statistic of host seconds, rescaled from the host's measured
    speed to the reference speed with the same statistic of the
    reference timings (the fastest answer pairs with the fastest
    reference, the median with the median)."""
    return pick(seconds) * NOMINAL_REF_S / pick(refs)


def end_to_end(samples: Dict[str, List[float]]) -> Dict[str, Dict]:
    """The end-to-end metrics of one workload's untraced iterations.

    Host time takes the minimum (the fastest iteration is the least
    disturbed one); set-up time and memory take the median.  ``raw``
    summarizes the samples as measured.
    """
    walls, setups, refs = (samples["wall_s"], samples["setup_s"],
                           samples["ref_s"])
    rows = (
        ("wall_s", at_reference_speed(walls, refs, min), "s",
         "min, at reference speed", walls),
        ("setup_s", at_reference_speed(setups, refs, statistics.median), "s",
         "median, at reference speed", setups),
        ("peak_rss_mb", statistics.median(samples["peak_rss_mb"]), "MiB",
         "median", samples["peak_rss_mb"]),
        ("ref_s", min(refs), "s", "min", refs),
    )
    return {name: {"value": value, "unit": unit, "statistic": statistic,
                   "raw": stats.summary(raw)}
            for name, value, unit, statistic, raw in rows}


def summarize(records: List[Dict], spec: Dict) -> Dict:
    """One workload's metrics, samples and failures from its records.

    An iteration fails if it raised, failed a check, produced another
    output digest than the majority of the run, or (traced) produced
    other layer counts than the majority of the traced iterations.
    """
    failures: List[str] = []
    failed = set()
    for index, record in enumerate(records):
        if record.get("failures") or "wall_s" not in record:
            failed.add(index)
            failures += [f"iteration {index}: {message}"
                         for message in record.get("failures", [])]
    good = [i for i in range(len(records)) if i not in failed]
    digest = _majority([records[i]["digest"] for i in good]) if good else None
    for i in good:
        if records[i]["digest"] != digest:
            failed.add(i)
            failures.append(f"iteration {i}: output digest "
                            f"{records[i]['digest']} differs from {digest}")

    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    count_names = sorted(n for n, u in layer_units.items()
                         if u in COUNT_UNITS)
    traced = [i for i in range(len(records))
              if records[i]["traced"] and i not in failed]
    if traced:
        signature = _majority(
            [tuple(records[i]["ledger"][n] for n in count_names)
             for i in traced])
        for i in traced:
            counts = tuple(records[i]["ledger"][n] for n in count_names)
            if counts != signature:
                failed.add(i)
                failures.append(f"iteration {i}: layer counts differ from "
                                "the other traced iterations")

    untraced = [records[i] for i in range(len(records))
                if not records[i]["traced"] and i not in failed]
    ledgers = [records[i] for i in traced if i not in failed]
    samples = {name: [r[name] for r in untraced] for name in SAMPLES}
    samples["traced_wall_s"] = [r["wall_s"] for r in ledgers]
    samples["traced_ref_s"] = [r["ref_s"] for r in ledgers]
    metrics = end_to_end(samples) if untraced else {}
    layers: Dict[str, Dict] = {}
    if ledgers:
        for name, unit in layer_units.items():
            if name == "trace.overhead":
                if not untraced:
                    continue
                traced_wall = at_reference_speed(
                    samples["traced_wall_s"], samples["traced_ref_s"], min)
                value = traced_wall / metrics["wall_s"]["value"] - 1.0
            elif unit in COUNT_UNITS:
                value = ledgers[0]["ledger"][name]
            else:
                value = min(r["ledger"][name] for r in ledgers)
            layers[name] = {"value": value, "unit": unit}
    return {
        "attempted": len(records),
        "failed": len(failed),
        "error_rate": len(failed) / len(records) if records else 0.0,
        "failures": failures,
        "digest": digest,
        "metrics": metrics,
        "layers": layers,
        "samples": samples,
    }


def check_checkout(root: pathlib.Path) -> None:
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {root / 'src'}: the "
                         "benchmark runs from the root of a repository "
                         "checkout")


def run(workloads: Optional[Sequence[str]] = None, seed: int = 0,
        seconds: Optional[float] = None, trace: Optional[int] = None,
        out: Optional[pathlib.Path] = None,
        log: Callable[[str], None] = lambda line: None) -> Dict:
    """Run the benchmark and return (and write) the results document.

    ``trace=0`` runs only the untraced phase, ``trace=1`` only the
    traced phase; by default both run.
    """
    check_checkout(ROOT)
    spec = load_spec()
    declared = [w["name"] for w in spec["workloads"]]
    workloads = list(workloads or declared)
    unknown = sorted(set(workloads) - set(declared))
    if unknown:
        raise ValueError(f"unknown workloads {unknown}; known: {declared}")
    out_dir = ROOT / "perfbench" / "out"
    records = collect(
        ROOT, workloads, seed,
        untraced=0 if trace == 1 else UNTRACED_ITERATIONS,
        traced=0 if trace == 0 else TRACED_ITERATIONS,
        seconds=seconds, trace_dir=out_dir, log=log,
    )
    results = {
        "schema": 1,
        "seed": seed,
        "protocol": {"seconds": seconds, "trace": trace,
                     "untraced_iterations": UNTRACED_ITERATIONS,
                     "traced_iterations": TRACED_ITERATIONS},
        "host": {"python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "workloads": {name: summarize(records[name], spec)
                      for name in workloads},
    }
    out = out or out_dir / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return results


def report(results: Dict) -> str:
    """The human-readable table: every metric by name with its unit."""
    lines = []
    for name, row in results["workloads"].items():
        lines.append(f"{name}: attempted {row['attempted']}, failed "
                     f"{row['failed']}, error_rate {row['error_rate']:g}, "
                     f"digest {row['digest']}")
        for metric, entry in row["metrics"].items():
            raw = entry["raw"]
            lines.append(
                f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']:<8}"
                f" {entry['statistic']}; raw samples: min {raw['min']:.6g},"
                f" median {raw['median']:.6g} [q1 {raw['q1']:.6g}, q3 "
                f"{raw['q3']:.6g}], n={raw['n']}")
        for metric, entry in row["layers"].items():
            lines.append(f"  {metric:<34} {entry['value']:>14.6g} "
                         f"{entry['unit']}")
        lines += [f"  FAILED {failure}" for failure in row["failures"]]
    return "\n".join(lines)


def result_line(results: Dict, spec: Dict) -> Dict:
    """The one-line summary: correctness, attempts and failures over all
    workloads, plus, when a single workload ran, the end-to-end metrics
    of an untraced run, the per-layer metrics of a traced one, or both."""
    trace = results["protocol"]["trace"]
    declared = []
    if trace != 1:
        declared += [("metrics", m["name"]) for m in spec["end_to_end"]]
    if trace != 0:
        declared += [("layers", m["name"]) for m in spec["per_layer"]]
    rows = list(results["workloads"].values())
    line = {
        "correct": all(r["failed"] == 0
                       and all(name in r[group] for group, name in declared)
                       for r in rows),
        "attempted": sum(r["attempted"] for r in rows),
        "failed": sum(r["failed"] for r in rows),
        "metrics": {},
    }
    if len(rows) == 1:
        for group, name in declared:
            entry = rows[0][group].get(name)
            if entry is not None:
                line["metrics"][name] = {"value": entry["value"],
                                         "unit": entry["unit"]}
    return line
