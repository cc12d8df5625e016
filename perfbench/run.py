#!/usr/bin/env python3
"""The MITS benchmark: seeded workloads, timed by phase, checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lecture --seed 1 --seconds 40
    python3 perfbench/run.py --workload library --trace 1   # layer table
    python3 perfbench/run.py --workload all                 # all three

Each repetition runs in a fresh child process (``repetition.py``), one
at a time, and builds exactly one deployment.  Repetitions come in
pairs, alternating which arm goes first, until ``--seconds`` is spent
(at least ``MIN_PAIRS`` pairs):

* ``--trace 0`` pairs an obs-on repetition (timed setup, run and
  dump) with an obs-off one (timed run: ``run_bare_s``) and reports
  every end-to-end metric;
* ``--trace 1`` pairs an untraced obs-on repetition with a traced one
  and reports the per-layer table, with the tracing overhead.

Host times are scaled to a nominal host speed measured by a reference
loop timed between the phases of each repetition (see ``speed``); the
raw medians are printed beside them.  The simulated outcome is checked
on every repetition; any failed check makes the run exit 1.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--workload all`` it is printed
once, after every workload has run, and each metric name carries its
workload (``lecture.setup_s``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPETITION = os.path.join(HERE, "repetition.py")
#: dump archives land here, one directory per run, removed afterwards
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from workloads import WORKLOADS, generate, scripted_ops  # noqa: E402

#: the seed used when none is given, and a second one held out: a
#: later claim is checked on it too, since nobody tuned against it
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
MIN_PAIRS = 3
#: wall-clock limit on one child; a repetition takes a few seconds
CHILD_TIMEOUT_S = 60

#: wall of the reference loop (``repetition.reference_s``) on the
#: nominal host that every host time is scaled to; it measures 19–24 ms
#: on a 2-core x86-64 host
NOMINAL_REFERENCE_S = 0.02

#: every end-to-end metric, with its unit; lower is better for all
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"), ("run_s", "s"), ("run_bare_s", "s"),
    ("dump_s", "s"), ("peak_rss_mb", "MB"),
    ("sim_response_p50_ms", "ms"), ("sim_response_p95_ms", "ms"),
    ("sim_startup_p50_s", "s"), ("sim_stall_s", "s"),
    ("sim_frames_lost", "count"), ("ops_failed_pct", "%"),
)
#: the end-to-end metrics in the JSON result line: the host costs.
#: The ``sim_*`` metrics are printed and checked (same seed, same
#: values; obs on, same values) but kept out of it: they are simulated,
#: so the checks already hold them fixed, and some are zero or
#: undefined on some workload (``library`` streams nothing; the clean
#: workloads neither stall nor fail)
REPORTED = ("setup_s", "run_s", "run_bare_s", "dump_s", "peak_rss_mb")

#: per-layer metrics of the traced run: host self times (``_s``) in the
#: spans of ``layers.py``, then counts read from the program
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("atm.self_s", "s"), ("atm.events", "count"), ("atm.cells", "count"),
    ("atm.us_per_cell", "us"), ("atm.cells_dropped", "count"),
    ("atm.pdu_delay_p95_ms", "ms"), ("atm.link_queue_peak", "cells"),
    ("util.crc_s", "s"), ("util.crc_bytes", "bytes"),
    ("util.bitstream_s", "s"),
    ("media.produce_s", "s"), ("media.produce_calls", "count"),
    ("media.bytes", "bytes"),
    ("mheg.codec_s", "s"), ("mheg.codec_calls", "count"),
    ("mheg.bytes", "bytes"),
    ("database.self_s", "s"), ("database.requests", "count"),
    ("transport.self_s", "s"), ("transport.messages", "count"),
    ("transport.retransmits", "count"), ("transport.reconnects", "count"),
    ("transport.rpc_retries", "count"), ("transport.goodput_ratio", "ratio"),
    ("streaming.self_s", "s"), ("streaming.frames_sent", "count"),
    ("streaming.frames_played", "count"),
    ("streaming.frames_concealed", "count"), ("streaming.stalls", "count"),
    ("obs.sample_s", "s"), ("obs.ticks", "count"), ("obs.points", "count"),
    ("obs.spans", "count"), ("obs.export_s", "s"),
    ("obs.archive_bytes", "bytes"),
    ("faults.injected", "count"), ("faults.self_s", "s"),
    ("other.self_s", "s"), ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
)
#: span group of ``layers.py`` behind each self-time metric
SPAN_GROUPS = {
    "atm.self_s": "atm", "util.crc_s": "util.crc",
    "util.bitstream_s": "util.bitstream", "media.produce_s": "media.produce",
    "mheg.codec_s": "mheg.codec", "database.self_s": "database",
    "transport.self_s": "transport", "streaming.self_s": "streaming",
    "obs.sample_s": "obs.sample", "obs.export_s": "obs.export",
    "faults.self_s": "faults",
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed correctness check)."""


# -- running repetitions ------------------------------------------------------

def repetition(spec: Dict[str, Any], obs: str, trace: bool,
               out_dir: str) -> Dict[str, Any]:
    """Run one repetition in a fresh child process."""
    request = {"spec": spec, "obs": obs, "trace": trace, "out_dir": out_dir}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, REPETITION], input=json.dumps(request),
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition exceeded {CHILD_TIMEOUT_S} s") \
            from None
    if proc.returncode != 0:
        raise BenchError(f"repetition failed (exit {proc.returncode}):\n"
                         + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(spec: Dict[str, Any], seconds: float, trace: bool
            ) -> Dict[str, List[Dict[str, Any]]]:
    """Alternate pairs of repetitions until *seconds* are spent."""
    arms = ("on", "traced") if trace else ("on", "bare")
    reps: Dict[str, List[Dict[str, Any]]] = {arm: [] for arm in arms}
    out_dir = os.path.join(OUT, str(os.getpid()))
    start = time.monotonic()
    pairs = 0
    try:
        while True:
            elapsed = time.monotonic() - start
            if pairs >= MIN_PAIRS and elapsed * (pairs + 1) / pairs > seconds:
                break
            order = arms if pairs % 2 == 0 else arms[::-1]
            for arm in order:
                reps[arm].append(repetition(
                    spec, "bare" if arm == "bare" else "on",
                    arm == "traced", out_dir))
            pairs += 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(OUT)
        except OSError:
            pass
    return reps


# -- correctness --------------------------------------------------------------

def _simulated(rep: Dict[str, Any], exclude: Sequence[str] = ()
               ) -> Dict[str, Any]:
    """The simulated outcome of a repetition: every ``sim_*`` metric,
    the op counts and the layer counts, minus *exclude*."""
    vector = dict(rep["outcome"])
    vector.update(rep["counts"])
    for key in exclude:
        vector.pop(key, None)
    return vector


def _differences(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}"
            for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def check(spec: Dict[str, Any], reps: Dict[str, List[Dict[str, Any]]]
          ) -> List[str]:
    """Every correctness check over one run's repetitions; returns the
    failures (empty when all hold)."""
    failures: List[str] = []
    scripted = scripted_ops(spec)
    for arm, runs in reps.items():
        for i, rep in enumerate(runs):
            failures += [f"{arm} #{i}: {v}" for v in rep["violations"]]
            attempted = rep["outcome"]["attempted"]
            if attempted != scripted:
                failures.append(f"{arm} #{i}: {attempted} operations "
                                f"accounted for, {scripted} scripted")
        # same seed, same arm: identical simulated outcome, and the
        # observability stack itself is deterministic too
        first = runs[0]
        for i, rep in enumerate(runs[1:], 1):
            failures += [f"{arm} #{i} vs #0: {d}" for d in _differences(
                _simulated(first), _simulated(rep))]
            failures += [f"{arm} #{i} vs #0: {d}" for d in _differences(
                _obs_counts(first), _obs_counts(rep))]
    # observation must not change the observed: obs on vs off, and
    # untraced vs traced.  atm.events is left out of on-vs-off: it
    # counts the sampler's ticks and the cell-train splits they cause
    # (reported by observer_effect() instead)
    if "bare" in reps:
        failures += [f"obs on vs off: {d}" for d in _differences(
            _simulated(reps["on"][0], ["atm.events"]),
            _simulated(reps["bare"][0], ["atm.events"]))]
    if "traced" in reps:
        failures += [f"untraced vs traced: {d}" for d in _differences(
            _simulated(reps["on"][0]), _simulated(reps["traced"][0]))]
        failures += [f"untraced vs traced: {d}" for d in _differences(
            _obs_counts(reps["on"][0]), _obs_counts(reps["traced"][0]))]
    return failures


def _obs_counts(rep: Dict[str, Any]) -> Dict[str, Any]:
    # the archive embeds wall-clock overhead figures, so its size is
    # not a simulated quantity
    return {k: v for k, v in rep["obs_counts"].items()
            if k != "obs.archive_bytes"}


def observer_effect(reps: Dict[str, List[Dict[str, Any]]]) -> int:
    """Simulator events the obs-on run executed beyond the obs-off run,
    after its own sampler ticks are taken out (0 = no effect)."""
    return (reps["on"][0]["counts"]["atm.events"]
            - reps["bare"][0]["counts"]["atm.events"])


# -- statistics ---------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries sort last."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest of p75/p90/p95/p99/p99.9 that has at least ten
    samples beyond it, as ``(q, value)``; None when there are too few
    samples for any."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q, percentile(values, q)
    return None


def speed(rep: Dict[str, Any]) -> float:
    """The factor that scales a repetition's host times to the nominal
    host: how much faster than nominal the host ran the reference loop
    between that repetition's phases.  The host's speed drifts by a
    quarter over seconds to minutes (other tenants); scaling by a loop
    timed in the same process at the same moments takes most of that
    drift out of the medians."""
    return NOMINAL_REFERENCE_S / statistics.median(rep["reference_s"])


def summarise(reps: Dict[str, List[Dict[str, Any]]]
              ) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric: ``{"value", "unit", "n", "samples",
    "raw"}``.

    Host times are medians over repetitions of the scaled phase walls
    (``raw`` is the median of the unscaled walls); simulated metrics
    are the same on every repetition (checked) and carry their own
    sample count (requests or streams in one repetition).
    """
    on, bare = reps["on"], reps["bare"]
    phases = {"setup_s": (on, "setup_s"), "run_s": (on, "run_s"),
              "run_bare_s": (bare, "run_s"), "dump_s": (on, "dump_s")}
    out = on[0]["outcome"]
    units = dict(END_TO_END)
    result: Dict[str, Dict[str, Any]] = {}
    for name, (arm, key) in phases.items():
        values = [r[key] * speed(r) for r in arm]
        result[name] = {"value": statistics.median(values),
                        "unit": units[name], "n": len(values),
                        "samples": values,
                        "raw": statistics.median(r[key] for r in arm)}
    rss = [r["peak_rss_mb"] for r in on]
    result["peak_rss_mb"] = {"value": statistics.median(rss),
                             "unit": units["peak_rss_mb"], "n": len(rss),
                             "samples": rss, "raw": None}
    counts = {"sim_response_p50_ms": out["requests"],
              "sim_response_p95_ms": out["requests"],
              "sim_startup_p50_s": out["streams"],
              "sim_stall_s": out["streams"],
              "sim_frames_lost": out["streams"],
              "ops_failed_pct": out["attempted"]}
    for name, n in counts.items():
        result[name] = {"value": out[name], "unit": units[name], "n": n,
                        "samples": None, "raw": None}
    return result


PHASES = ("setup", "run", "dump")


def phase_self_times(rep: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Self time per phase and metric of one traced repetition, scaled
    like every host time, with ``other.self_s`` the part of the phase
    wall no span claimed."""
    factor = speed(rep)
    table = {}
    for phase in PHASES:
        spans = rep["layers"]["self_s"].get(phase, {})
        row = {metric: factor * spans.get(group, 0.0)
               for metric, group in SPAN_GROUPS.items()}
        row["other.self_s"] = factor * (rep[f"{phase}_s"]
                                        - sum(spans.values()))
        table[phase] = row
    return table


def layer_table(reps: Dict[str, List[Dict[str, Any]]]
                ) -> Tuple[Dict[str, Dict[str, Any]],
                           Dict[str, Dict[str, float]]]:
    """Every per-layer metric of a traced run, and the medians of the
    self times per phase."""
    traced = reps["traced"]
    units = dict(PER_LAYER)
    per_rep = [phase_self_times(r) for r in traced]
    by_phase = {phase: {metric: statistics.median(t[phase][metric]
                                                  for t in per_rep)
                        for metric in per_rep[0][phase]}
                for phase in PHASES}
    values: Dict[str, Any] = {}
    for metric in per_rep[0]["run"]:
        values[metric] = statistics.median(
            sum(t[phase][metric] for phase in PHASES) for t in per_rep)
    values["trace.wall_s"] = statistics.median(
        speed(r) * sum(r[f"{phase}_s"] for phase in PHASES) for r in traced)
    run_on = statistics.median(r["run_s"] * speed(r) for r in reps["on"])
    run_traced = statistics.median(r["run_s"] * speed(r) for r in traced)
    values["trace.overhead_pct"] = 100.0 * (run_traced - run_on) / run_on
    first = traced[0]
    values.update(first["counts"])
    values.update(first["obs_counts"])
    values["obs.archive_bytes"] = statistics.median(
        r["obs_counts"]["obs.archive_bytes"] for r in traced)
    spans = first["layers"]
    values["util.crc_bytes"] = spans["bytes"].get("util.crc", 0)
    values["media.produce_calls"] = spans["calls"].get("media.produce", 0)
    values["media.bytes"] = spans["bytes"].get("media.produce", 0)
    values["mheg.codec_calls"] = spans["calls"].get("mheg.codec", 0)
    values["mheg.bytes"] = spans["bytes"].get("mheg.codec", 0)
    cells = values["atm.cells"]
    values["atm.us_per_cell"] = \
        1e6 * values["atm.self_s"] / cells if cells else 0.0
    table = {name: {"value": values[name], "unit": units[name],
                    "n": len(traced)} for name, _ in PER_LAYER}
    return table, by_phase


# -- output -------------------------------------------------------------------

def _fmt(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_end_to_end(workload: str, metrics: Dict[str, Dict[str, Any]],
                     reps: Dict[str, List[Dict[str, Any]]]) -> None:
    refs = [x for runs in reps.values() for r in runs
            for x in r["reference_s"]]
    print(f"\n{workload}: end-to-end (lower is better for every metric)")
    print(f"  host times at the nominal host speed (reference loop "
          f"{NOMINAL_REFERENCE_S * 1e3:g} ms; measured median "
          f"{statistics.median(refs) * 1e3:.3g} ms); raw = unscaled median")
    print(f"  {'metric':<22}{'unit':<7}{'median':>12}{'tail pct':>22}"
          f"{'min':>11}{'max':>11}{'n':>6}{'raw':>11}")
    for name, _unit in END_TO_END:
        m = metrics[name]
        low = high = tail_s = "-"
        if m["samples"] is not None:
            low, high = _fmt(min(m["samples"])), _fmt(max(m["samples"]))
            t = tail(m["samples"])
            tail_s = f"p{t[0]:g}={_fmt(t[1])}" if t else "n<11: none"
        raw = _fmt(m["raw"]) if m["raw"] is not None else "-"
        print(f"  {name:<22}{m['unit']:<7}{_fmt(m['value']):>12}"
              f"{tail_s:>22}{low:>11}{high:>11}{m['n']:>6}{raw:>11}")
    run_on = metrics["run_s"]["value"]
    run_bare = metrics["run_bare_s"]["value"]
    print(f"  run-phase obs cost: "
          f"{100.0 * (run_on - run_bare) / run_bare:+.1f}% of run_bare_s")
    delta = observer_effect(reps)
    print(f"  observer effect on atm.events (obs on - off, sampler ticks "
          f"excluded): {delta:+d}")


def print_layers(workload: str, table: Dict[str, Dict[str, Any]],
                 by_phase: Dict[str, Dict[str, float]]) -> None:
    wall = table["trace.wall_s"]["value"]
    n = table["trace.wall_s"]["n"]
    print(f"\n{workload}: per layer, medians of {n} traced repetitions "
          f"(self times and other sum to the traced setup + run + dump)")
    print(f"  {'metric':<28}{'unit':<7}{'value':>14}{'share':>9}")
    for name, _unit in PER_LAYER:
        m = table[name]
        share = ""
        if name in by_phase["run"]:
            share = f"{100.0 * m['value'] / wall:.1f}%"
        print(f"  {name:<28}{m['unit']:<7}{_fmt(m['value']):>14}{share:>9}")
    walls = {phase: sum(row.values()) for phase, row in by_phase.items()}
    print(f"\n{workload}: self time by phase, s (share of the phase)")
    print(f"  {'metric':<20}" + "".join(
        f"{phase + f' {walls[phase]:.3g}s':>20}" for phase in PHASES))
    for metric in by_phase["run"]:
        cells = [(by_phase[p][metric], 100.0 * by_phase[p][metric] / walls[p])
                 for p in PHASES]
        print(f"  {metric:<20}" + "".join(
            f"{value:>11.4f} ({share:4.1f}%)" for value, share in cells))


def environment() -> Dict[str, Any]:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "unavailable"
    return {"nproc": os.cpu_count(), "loadavg": os.getloadavg(),
            "python": platform.python_version(), "numpy": numpy}


def run_workload(workload: str, seed: int, seconds: float, trace: bool
                 ) -> Dict[str, Any]:
    """Measure and check one workload; returns its result object."""
    spec = generate(workload, seed)
    env = environment()
    reps = measure(spec, seconds, trace)
    failures = check(spec, reps)
    print(f"workload {workload}  seed {seed} (default {DEFAULT_SEED}, "
          f"held out {HELD_OUT_SEED})  repetitions "
          + ", ".join(f"{arm} {len(r)}" for arm, r in reps.items()))
    print("env " + json.dumps(env))
    units: Dict[str, str]
    if trace:
        table, by_phase = layer_table(reps)
        print_layers(workload, table, by_phase)
        metrics = {name: table[name]["value"] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
    else:
        summary = summarise(reps)
        print_end_to_end(workload, summary, reps)
        metrics = {name: summary[name]["value"] for name in REPORTED}
        units = dict(END_TO_END)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    attempted = sum(r["outcome"]["attempted"]
                    for runs in reps.values() for r in runs)
    failed = sum(r["outcome"]["failed"]
                 for runs in reps.values() for r in runs)
    return {
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(workload, args.seed,
                                             args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 2
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{workload}.{name}": metric
                        for workload, r in results.items()
                        for name, metric in r["metrics"].items()}}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
