"""Sidecar export: one call dumps a deployment's full telemetry.

The benchmark harness (``benchmarks/conftest.py``), the perf-regression
gate (``scripts/bench_gate.py``), and ad-hoc scripts all need the same
three artefacts per scenario, in the formats the ``repro.obs`` CLI
reads back:

* ``metrics_<name>.json`` — the registry report wrapped with run meta,
  SLO verdicts, and a telemetry-health block (flight-recorder drops,
  tracer drops, sampler ring evictions — so truncation is visible);
* ``trace_<name>.jsonl`` — spans then flight events, one JSON object
  per line, tagged ``"record": "span" | "event"``;
* ``timeseries_<name>.json`` — the sampler's ring-buffered series,
  for the dashboard.

The JSON sidecars are compact (not indented): ``json.dumps`` without
``indent`` runs CPython's C encoder, where ``indent=2`` always takes
the pure-Python one.  The timeseries sidecar is streamed one series at
a time (:func:`write_json`), so the whole document never sits in
memory as one string.

When the deployment's ledger is enabled a fourth sidecar,
``accounting_<name>.json``, carries the per-entity attribution for
``python -m repro.obs top``; the metrics sidecar also embeds the
conservation-audit verdict so archived runs prove their counters
balanced.

This monolithic path is the *compatibility* exporter: it materialises
everything in memory and writes once at the end.  At-scale runs attach
a streaming :class:`~repro.obs.sink.ObsSink` instead (see
``MitsSystem(stream=...)``), which appends one JSONL record per span /
event / telemetry tick as the run progresses; ``dump_observability``
closes an attached sink so its ``fin`` summary lands too.  When the
deployment self-meters (``MitsSystem(meter=True)``, the default) the
metrics sidecar additionally carries a top-level ``overhead`` block —
what the obs stack itself cost, by component.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator, Mapping
from typing import Any, Dict, List, Optional

from repro.obs.audit import ConservationAuditor

__all__ = ["critical_block", "dump_observability", "telemetry_health",
           "write_json"]


def write_json(fh, obj: Any, depth: int = 2) -> None:
    """Write *obj* as ``json.dumps(obj, sort_keys=True)`` would, but one
    member at a time down to *depth* levels of dicts and lists (or
    iterators, written as lists), so no whole-document string is built.
    Below *depth* each member is one C-encoder ``json.dumps`` call."""
    if depth and isinstance(obj, Mapping):
        fh.write("{")
        for i, key in enumerate(sorted(obj)):
            fh.write((", " if i else "") + json.dumps(str(key)) + ": ")
            write_json(fh, obj[key], depth - 1)
        fh.write("}")
    elif depth and isinstance(obj, (list, Iterator)):
        fh.write("[")
        for i, item in enumerate(obj):
            if i:
                fh.write(", ")
            write_json(fh, item, depth - 1)
        fh.write("]")
    else:
        fh.write(json.dumps(obj, sort_keys=True))


def critical_block(spans) -> Optional[Dict[str, Any]]:
    """Compact critical-path attribution for a metrics/fin dump.

    Purely simulated-time quantities, so the block is deterministic
    (same seed ⇒ byte-identical) and safe to diff across runs — it is
    what lets ``repro.obs diff`` compare critical-path attribution
    from two metrics sidecars without re-reading their span files.
    """
    if not spans:
        return None
    from repro.obs.critical import attribution
    return attribution(spans)


def telemetry_health(mits) -> Dict[str, Any]:
    """Loss/truncation accounting for one deployment's telemetry.

    With an overflow reservoir installed on the flight recorder the
    block grows ``flight_overflow_kept`` — how many ring-evicted
    events the reservoir salvaged — so dropped-vs-salvaged is visible
    in every archive; the default (no-policy) shape is unchanged.
    """
    sim = mits.sim
    sampler = getattr(mits, "sampler", None)
    health = {
        "flight_recorded": sim.recorder.recorded,
        "flight_dropped": sim.recorder.dropped,
        "tracer_spans": len(sim.tracer.spans),
        "tracer_dropped": sim.tracer.dropped,
        "sampler_samples": sampler.samples if sampler is not None else 0,
        "sampler_evictions": sampler.evictions
        if sampler is not None else 0,
    }
    if sim.recorder._overflow is not None:
        health["flight_overflow_kept"] = len(sim.recorder._overflow)
    return health


def dump_observability(mits, name: str, out_dir: str,
                       *, profile: Optional[Dict[str, Any]] = None
                       ) -> List[str]:
    """Write the three sidecars for *mits* under *out_dir*.

    Returns the paths written (metrics, trace, timeseries — the last
    only when the deployment has a sampler).
    """
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    sim = mits.sim

    # an attached streaming sink gets its fin summary + final flush
    # first, so the sidecar set is complete even if a later write fails
    sink = getattr(mits, "sink", None)
    sink_flushed = sink is not None and not sink.closed
    if sink_flushed:
        sink.close()
        written.append(sink.path)

    metrics_report = sim.metrics.report()
    watchdog = getattr(mits, "watchdog", None)
    meter = getattr(mits, "meter", None)

    metrics_path = os.path.join(out_dir, f"metrics_{name}.json")
    audit_t0 = meter.now() if meter is not None else 0.0
    audit_report = ConservationAuditor(mits).report()
    if meter is not None:
        meter.charge("auditor", audit_t0)
    dump: Dict[str, Any] = {
        "name": name,
        "sim_time": sim.now,
        "events_run": sim.events_run,
        "metrics": metrics_report,
        "slo": mits.slos.summary(
            metrics_report,
            watchdog_alerts=watchdog.alerts
            if watchdog is not None else None),
        "audit": audit_report,
        "telemetry": telemetry_health(mits),
    }
    crit = critical_block([s.to_dict() for s in sim.tracer.spans])
    if crit is not None:
        dump["critical"] = crit
    if watchdog is not None:
        dump["watchdog"] = watchdog.snapshot()
    if profile is not None:
        dump["profile"] = profile
    if meter is not None:
        # wall-clock, so deliberately OUTSIDE the deterministic
        # telemetry block (and never in the JSONL stream)
        dump["overhead"] = meter.report()
    with open(metrics_path, "w") as fh:
        fh.write(json.dumps(dump, sort_keys=True))
    written.append(metrics_path)

    trace_path = os.path.join(out_dir, f"trace_{name}.jsonl")
    with open(trace_path, "w") as fh:
        for span in sim.tracer.spans:
            fh.write(json.dumps({"record": "span", **span.to_dict()},
                                sort_keys=True) + "\n")
        # reservoir-salvaged ring-evicted events first (they are the
        # oldest), then the live ring — otherwise the overflow sample
        # survives the run but silently misses the archive
        for event in sim.recorder.overflow:
            fh.write(json.dumps({"record": "event", **event.to_dict()},
                                sort_keys=True) + "\n")
        for event in sim.recorder.events:
            fh.write(json.dumps({"record": "event", **event.to_dict()},
                                sort_keys=True) + "\n")
    written.append(trace_path)

    sampler = getattr(mits, "sampler", None)
    if sampler is not None:
        if not sink_flushed:
            sampler.sample()  # flush a final point at `now`
        # (closing the sink above already flushed one — a second call
        # would inflate the samples counter past what the fin recorded)
        ts_path = os.path.join(out_dir, f"timeseries_{name}.json")
        with open(ts_path, "w") as fh:
            write_json(fh, {"name": name, **sampler.snapshot(lazy=True)})
        written.append(ts_path)

    ledger = getattr(sim, "ledger", None)
    if ledger is not None and ledger.enabled:
        acct_path = os.path.join(out_dir, f"accounting_{name}.json")
        with open(acct_path, "w") as fh:
            fh.write(json.dumps({"name": name, "sim_time": sim.now,
                                 **ledger.snapshot(sim_time=sim.now)},
                                sort_keys=True))
        written.append(acct_path)
    return written
