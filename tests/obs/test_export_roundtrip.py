"""Sidecar round-trip: dump a run, re-render from the archived JSON,
and assert parity with the live render (repro.obs.export)."""

import json
import os

import pytest

from repro.core.scenarios import build
from repro.obs.accounting import load_accounting_file, render_top
from repro.obs.dashboard import load_timeseries_file, render_dashboard
from repro.obs.export import dump_observability
from repro.obs.report import (
    load_metrics_file, load_trace_file, render_metrics_summary,
    render_slo_table, render_traces,
)
from repro.obs.slo import SloMonitor


@pytest.fixture(scope="module")
def dumped(tmp_path_factory):
    """One quickstart run with accounting on, dumped to sidecars."""
    out = str(tmp_path_factory.mktemp("sidecars"))
    run = build("quickstart", accounting=True)
    run.run_to_horizon()
    written = dump_observability(run.mits, "rt", out)
    return run.mits, out, written


class TestSidecarSet:
    def test_all_four_sidecars_written(self, dumped):
        _, out, written = dumped
        names = sorted(os.path.basename(p) for p in written)
        assert names == ["accounting_rt.json", "metrics_rt.json",
                         "timeseries_rt.json", "trace_rt.jsonl"]

    def test_timeseries_sidecar_is_the_compact_snapshot(self, dumped):
        """Streamed one series at a time, the sidecar is byte for byte
        the one-shot sorted-key dump of the live snapshot."""
        mits, out, _ = dumped
        with open(os.path.join(out, "timeseries_rt.json")) as fh:
            text = fh.read()
        assert text == json.dumps({"name": "rt", **mits.sampler.snapshot()},
                                  sort_keys=True)

    def test_metrics_sidecar_embeds_a_clean_audit(self, dumped):
        _, out, _ = dumped
        meta, _ = load_metrics_file(os.path.join(out, "metrics_rt.json"))
        assert meta["audit"]["ok"] is True
        assert meta["audit"]["checks"] > 0
        assert meta["watchdog"]["alerts"] == []
        assert meta["slo"]["watchdog_alerts"] == 0


class TestReportParity:
    def test_metrics_summary_matches_live(self, dumped):
        mits, out, _ = dumped
        _, archived = load_metrics_file(os.path.join(out, "metrics_rt.json"))
        live = mits.sim.metrics.report()
        assert render_metrics_summary(archived) \
            == render_metrics_summary(live)

    def test_slo_table_matches_live(self, dumped):
        mits, out, _ = dumped
        _, archived = load_metrics_file(os.path.join(out, "metrics_rt.json"))
        monitor = SloMonitor()
        assert render_slo_table(monitor.evaluate(archived)) \
            == render_slo_table(monitor.evaluate(mits.sim.metrics.report()))

    def test_trace_render_matches_live(self, dumped):
        mits, out, _ = dumped
        spans, events = load_trace_file(os.path.join(out, "trace_rt.jsonl"))
        # the sidecar is written sort_keys=True; normalise the live
        # dicts the same way before comparing the renders
        canon = lambda rows: json.loads(  # noqa: E731
            json.dumps(rows, sort_keys=True))
        live_spans = canon([s.to_dict() for s in mits.sim.tracer.spans])
        live_events = canon([e.to_dict() for e in mits.sim.recorder.events])
        assert render_traces(spans, events, top=5) \
            == render_traces(live_spans, live_events, top=5)


class TestDashboardParity:
    def test_dashboard_matches_live(self, dumped):
        mits, out, _ = dumped
        payload = load_timeseries_file(
            os.path.join(out, "timeseries_rt.json"))
        archived = render_dashboard(payload, width=40, top=5, title="x")
        live = render_dashboard(mits.sampler, width=40, top=5, title="x")
        assert archived == live


class TestTopParity:
    def test_top_matches_live(self, dumped):
        mits, out, _ = dumped
        payload = load_accounting_file(
            os.path.join(out, "accounting_rt.json"))
        sim = mits.sim
        live = sim.ledger.snapshot(sim_time=sim.now)
        for sort in ("bytes", "drops", "residency"):
            assert render_top(payload, sort=sort, title="x") \
                == render_top(live, sort=sort, title="x")

    def test_accounting_reconciles_with_registry(self, dumped):
        mits, _, _ = dumped
        assert mits.sim.ledger.reconcile(mits.sim.metrics) == []

    def test_accounting_sidecar_is_sorted_json(self, dumped):
        _, out, _ = dumped
        path = os.path.join(out, "accounting_rt.json")
        data = json.loads(open(path).read())
        assert data["enabled"] is True
        assert set(data["kinds"]) >= {"vc", "site", "stream", "link"}


class TestOverheadRoundTrip:
    """The wall-clock overhead block survives the metrics sidecar and
    stays OUT of the deterministic obs stream."""

    def test_overhead_block_round_trips_in_metrics_sidecar(self, dumped):
        mits, out, _ = dumped
        meta, _ = load_metrics_file(os.path.join(out, "metrics_rt.json"))
        assert "overhead" in meta
        live = mits.meter.report()
        assert set(meta["overhead"]) == set(live)
        assert meta["overhead"]["obs_overhead_pct"] >= 0.0
        # components accrued before the dump are all accounted for
        assert set(meta["overhead"]["components"]) \
            <= set(live["components"])

    def test_default_run_has_no_overflow_key(self, dumped):
        """No policy ⇒ the telemetry block keeps its historical shape."""
        _, out, _ = dumped
        meta, _ = load_metrics_file(os.path.join(out, "metrics_rt.json"))
        assert "flight_overflow_kept" not in meta["telemetry"]


class TestOverflowRoundTrip:
    """Ring-evicted events salvaged by the overflow reservoir must
    survive BOTH archive paths: the monolithic sidecars and the
    streamed obs JSONL."""

    @pytest.fixture(scope="class")
    def overflowed(self, tmp_path_factory):
        from repro.obs.sampling import SamplingPolicy

        out = str(tmp_path_factory.mktemp("overflow"))
        stream = os.path.join(out, "obs_ov.jsonl")
        run = build("quickstart",
                    sampling=SamplingPolicy(event_reservoir=4, seed=3),
                    stream=stream)
        run.run_to_horizon()
        mits = run.mits
        # force ring evictions: the reservoir only salvages once the
        # flight ring is full
        recorder = mits.sim.recorder
        capacity = recorder._events.maxlen
        for i in range(capacity + 50):
            recorder.record("test", "filler", seq=i)
        assert recorder.dropped > 0
        assert len(recorder._overflow) > 0
        written = dump_observability(mits, "ov", out)
        return mits, out, stream, written

    def test_metrics_sidecar_reports_salvaged_count(self, overflowed):
        mits, out, _, _ = overflowed
        meta, _ = load_metrics_file(os.path.join(out, "metrics_ov.json"))
        health = meta["telemetry"]
        assert health["flight_overflow_kept"] \
            == len(mits.sim.recorder._overflow)
        assert health["flight_overflow_kept"] > 0
        assert health["flight_dropped"] == mits.sim.recorder.dropped

    def test_streamed_fin_matches_metrics_sidecar(self, overflowed):
        from repro.obs.sink import load_obs_sidecar

        _, out, stream, _ = overflowed
        meta, _ = load_metrics_file(os.path.join(out, "metrics_ov.json"))
        streamed = load_obs_sidecar(stream)
        assert streamed["meta"]["telemetry"] == meta["telemetry"]
        # the stream itself must stay wall-clock-free
        assert '"overhead"' not in open(stream).read()

    def test_render_parity_shows_the_salvage_line(self, overflowed):
        from repro.obs.export import telemetry_health
        from repro.obs.report import render_telemetry_health

        mits, out, _, _ = overflowed
        meta, _ = load_metrics_file(os.path.join(out, "metrics_ov.json"))
        archived = render_telemetry_health(meta["telemetry"])
        assert archived == render_telemetry_health(telemetry_health(mits))
        assert "overflow reservoir" in archived
        assert "salvaged" in archived

    def test_trace_sidecar_carries_the_salvaged_events(self, overflowed):
        mits, out, _, _ = overflowed
        spans, events = load_trace_file(os.path.join(out, "trace_ov.jsonl"))
        recorder = mits.sim.recorder
        assert len(events) \
            == len(recorder._overflow) + len(recorder.events)
        # reservoir events are the oldest: written first, so a reader
        # sees (salvaged, then live ring) in record order
        salvaged = events[:len(recorder._overflow)]
        canon = lambda rows: json.loads(  # noqa: E731
            json.dumps(rows, sort_keys=True))
        assert salvaged \
            == canon([e.to_dict() for e in recorder.overflow])
