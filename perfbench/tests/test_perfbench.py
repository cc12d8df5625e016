"""Tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Each test drives a tiny instance of a workload, so the whole file
takes seconds.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import repetition  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


SPECS = {name: workloads.generate(name, 3, tiny=True)
         for name in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def tiny_reps(tmp_path_factory):
    """Two obs-on and one obs-off repetition of each tiny workload."""
    out = str(tmp_path_factory.mktemp("archive"))
    reps = {}
    for name, spec in SPECS.items():
        reps[name] = {
            "on": [_with_rss(repetition.execute(spec, "on", out))
                   for _ in range(2)],
            "bare": [_with_rss(repetition.execute(spec, "bare", out))],
        }
    return reps


def _with_rss(rep):
    rep["peak_rss_mb"] = 1.0
    return rep


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    assert workloads.generate(name, 5) == workloads.generate(name, 5)
    assert workloads.generate(name, 5) != workloads.generate(name, 6)
    # the spec is plain data: it survives the trip to the child intact
    spec = workloads.generate(name, 5)
    assert json.loads(json.dumps(spec)) == spec


def test_library_mix_has_equal_fixed_shares():
    sessions = workloads.generate("library", 1)["library"]["sessions"]
    others = workloads.generate("library", 2)["library"]["sessions"]
    for ops in sessions:
        counts = {k: sum(op["op"] == k for op in ops)
                  for k in workloads.LIBRARY_KINDS}
        assert len(set(counts.values())) == 1, counts
    assert [op["op"] for op in sessions[0]] != [op["op"] for op in others[0]]


def test_chaos_plan_covers_every_fault_kind():
    from repro.faults import FAULT_KINDS
    faults = workloads.generate("chaos", 1)["faults"]
    assert {g["kind"] for g in faults["generators"]} == set(FAULT_KINDS)


def test_chaos_faults_of_one_kind_never_overlap():
    for seed in range(5):
        starts = {}
        for g in workloads.generate("chaos", seed)["faults"]["generators"]:
            if g["kind"] != "link_down":  # one per downlink instead
                starts.setdefault(g["kind"], []).append(g["window"])
        for kind, windows in starts.items():
            duration = workloads.FAULT_SHAPES[kind].get("duration", 0.0)
            for (_lo, latest), (earliest, _hi) in zip(windows, windows[1:]):
                # the latest start of one fault ends before the
                # earliest start of the next
                assert latest + duration <= earliest


@pytest.mark.xfail(strict=True, reason=(
    "FaultInjector restores the error rate it found when a burst_loss "
    "clears, so the earlier of two overlapping bursts re-arms the link "
    "for good; the chaos workload keeps faults of a kind apart"))
def test_overlapping_burst_losses_clear():
    from repro.core.system import MitsSystem
    from repro.faults import FaultInjector, FaultPlan, FaultSpec
    mits = MitsSystem(topology="star", telemetry_interval=None,
                      watchdog=False, meter=False)
    plan = FaultPlan(faults=[
        FaultSpec(at=1.0, kind="burst_loss", target="sw0->user1",
                  duration=1.0, rate=0.05),
        FaultSpec(at=1.5, kind="burst_loss", target="sw0->user1",
                  duration=1.0, rate=0.05)])
    FaultInjector(plan).attach(mits)
    mits.sim.run(until=5.0)
    assert mits.network.links[("sw0", "user1")].error_rate == 0.0


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.generate("nope", 1)


# -- extraction ---------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_metric_extraction_on_tiny_instance(tiny_reps, name):
    reps = tiny_reps[name]
    assert run.check(SPECS[name], reps) == []
    summary = run.summarise(reps)
    assert [m for m, _ in run.END_TO_END] == list(summary)
    for metric in run.REPORTED:
        assert summary[metric]["value"] > 0, metric
    out = reps["on"][0]["outcome"]
    assert out["attempted"] == out["requests"] + out["streams"] > 0
    assert out["failed"] == 0
    counts = reps["on"][0]["counts"]
    assert counts["atm.cells"] > 0 and counts["database.requests"] > 0
    assert (counts["faults.injected"] > 0) == (name == "chaos")
    if name != "library":
        assert out["streams"] > 0
        assert counts["streaming.frames_played"] > 0


def test_unissued_requests_count_as_failed(tmp_path):
    # a library read of a missing document never completes, so its
    # closed loop stops: it and the rest of its session count as failed
    spec = workloads.generate("library", 3, tiny=True)
    session = spec["library"]["sessions"][0]
    session[0] = {"op": "library_read", "arg": "no-such-doc", "think": 0.01}
    out = repetition.execute(spec, "bare", str(tmp_path))["outcome"]
    assert out["unissued"] == len(session) - 1
    assert out["failed"] == len(session)
    assert out["attempted"] == sum(
        len(ops) for ops in spec["library"]["sessions"])


def test_failed_request_counts_in_ops_failed_pct(tmp_path):
    spec = workloads.generate("library", 3, tiny=True)
    spec["library"]["sessions"][0][0] = {"op": "courseware",
                                         "arg": "no-such-courseware",
                                         "think": 0.01}
    rep = repetition.execute(spec, "bare", str(tmp_path))
    out = rep["outcome"]
    assert out["failed"] == 1
    assert out["ops_failed_pct"] == pytest.approx(100.0 / out["attempted"])
    # a failed request is slower than any limit: one in the fourteen
    # requests of the tiny instance puts the 95th percentile beyond
    assert out["requests"] == 14
    assert out["sim_response_p95_ms"] == math.inf


# -- correctness checks -------------------------------------------------------

def test_check_trips_on_outcome_mismatch_across_repetitions(tiny_reps):
    reps = copy.deepcopy(tiny_reps["lecture"])
    reps["on"][1]["outcome"]["sim_response_p50_ms"] += 1e-9
    failures = run.check(SPECS["lecture"], reps)
    assert any("sim_response_p50_ms" in f for f in failures)


def test_check_trips_on_observer_effect(tiny_reps):
    reps = copy.deepcopy(tiny_reps["library"])
    reps["bare"][0]["counts"]["transport.messages"] += 1
    failures = run.check(SPECS["library"], reps)
    assert any(f.startswith("obs on vs off") for f in failures)


def test_check_trips_on_violation(tiny_reps):
    reps = copy.deepcopy(tiny_reps["chaos"])
    reps["on"][0]["violations"].append("link x: cells lost")
    assert any("cells lost" in f for f in run.check(SPECS["chaos"], reps))


def test_check_trips_on_lost_operation(tiny_reps, tmp_path, monkeypatch):
    # a load driver that drops one resume save: the operation is
    # neither issued nor counted as failed
    save = repetition._save_resume
    dropped = []

    def lossy(*args):
        if not dropped:
            dropped.append(args)
            return
        save(*args)
    monkeypatch.setattr(repetition, "_save_resume", lossy)
    reps = copy.deepcopy(tiny_reps["lecture"])
    reps["bare"] = [repetition.execute(SPECS["lecture"], "bare",
                                       str(tmp_path))]
    assert dropped
    assert any("scripted" in f for f in run.check(SPECS["lecture"], reps))


def test_courseware_downloads_are_decoded(monkeypatch):
    # every courseware download in the library mix is decoded in the
    # run phase, as a learning session decodes it
    from repro.mheg.codec import MhegCodec
    spec = SPECS["library"]
    downloads = sum(op["op"] == "courseware"
                    for ops in spec["library"]["sessions"] for op in ops)
    r = repetition.deploy(spec, "bare")
    decode = MhegCodec.decode
    decoded = []

    def counting(self, data):
        decoded.append(len(data))
        return decode(self, data)
    monkeypatch.setattr(MhegCodec, "decode", counting)
    repetition.drive(r)
    assert downloads > 0
    assert len(decoded) == downloads


def test_player_cursor_violation_is_reported(tmp_path):
    spec = workloads.generate("lecture", 3, tiny=True)
    r = repetition.deploy(spec, "bare")
    repetition.drive(r)
    assert repetition.player_violations(r) == []
    r.streams[0]["player"].stats.frames_played -= 1
    assert len(repetition.player_violations(r)) == 1


# -- statistics and spans -----------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(1, 21))) is None
    assert run.tail(list(range(1, 41))) == (75.0, 30)
    assert run.tail(list(range(200)))[0] == 95.0


def test_host_times_scale_with_the_reference_loop(tiny_reps):
    assert run.speed({"reference_s": [0.01, 0.04, 0.02]}) == \
        pytest.approx(run.NOMINAL_REFERENCE_S / 0.02)
    reps = copy.deepcopy(tiny_reps["lecture"])
    before = run.summarise(reps)
    for rep in reps["on"] + reps["bare"]:
        # the same work on a host running at half speed
        rep["reference_s"] = [2 * t for t in rep["reference_s"]]
        for key in ("setup_s", "run_s", "dump_s"):
            if key in rep:
                rep[key] *= 2
    after = run.summarise(reps)
    for metric in ("setup_s", "run_s", "run_bare_s", "dump_s"):
        assert after[metric]["value"] == pytest.approx(
            before[metric]["value"])
        assert after[metric]["raw"] == pytest.approx(
            2 * before[metric]["raw"])


def test_self_times_sum_to_the_outer_span(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(layers, "_clock", lambda: next(ticks))
    rec = layers.Recorder()
    inner = rec.wrap("b", lambda: None)
    outer = rec.wrap("a", lambda: inner() or inner())
    outer()
    rec.phase = "run"
    inner()
    spans = rec.report()
    # outer: t=0..5, inner spans 1..2 and 3..4; then inner alone 6..7
    assert spans["self_s"] == {"setup": {"a": 3, "b": 2}, "run": {"b": 1}}
    assert spans["calls"] == {"a": 1, "b": 3}


def test_traced_child_reports_layers(tmp_path):
    spec = workloads.generate("chaos", 3, tiny=True)
    request = {"spec": spec, "obs": "on", "trace": True,
               "out_dir": str(tmp_path)}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, run.REPETITION],
                          input=json.dumps(request), capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    rep = json.loads(proc.stdout.splitlines()[-1])
    spans = rep["layers"]["self_s"]
    assert set(run.SPAN_GROUPS.values()) <= set().union(*spans.values())
    # the chaos faults strike in the run phase, the archive in the dump
    assert spans["run"]["faults"] > 0 and spans["dump"]["obs.export"] > 0
    for phase, row in run.phase_self_times(rep).items():
        assert row["other.self_s"] >= 0, phase


# -- the contract -------------------------------------------------------------

def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    units = dict(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        [(name, units[name]) for name in run.REPORTED]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(run.PER_LAYER)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lecture",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
