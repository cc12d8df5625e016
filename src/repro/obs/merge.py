"""Shard-ready merge operators: one view over many runs.

The thesis's trial ran telelearning across many OCRInet sites at once;
every observability store in this repo (PRs 1-8) assumed a single
process.  This module closes that gap with **deterministic,
order-insensitive** merge operators over archived observability — the
merge-at-boundary contract ROADMAP item 2 (sharded parallel
simulation) and item 3 (campus-scale fleets) both need, de-risked
before any simulator sharding lands.

Per store, the merge semantics are:

=================  ======================================================
store              merged how
=================  ======================================================
counters           values sum
histograms         bucket-wise count add; count/sum/overflow sum;
                   min/max combine; mean and p50/p99 recomputed from
                   the merged buckets (same upper-bound-biased
                   quantile the live :class:`Histogram` uses)
gauges             the shard with the **latest sim time** wins the
                   value (ties broken by shard name, then value);
                   min/max watermarks combine; the winning shard is
                   recorded per gauge in the ``provenance.gauges``
                   block so re-merging a merged archive ranks by the
                   *original* source time, keeping the operator
                   associative
trace forests      trace ids must be pairwise disjoint; colliding
                   trace/span ids in later shards (canonical order)
                   are remapped above the global max — parent links
                   and event correlations follow — and the remap
                   count lands in ``provenance``
flight events      k-way merged by sim time (ties broken by
                   component/kind/severity/trace/attrs so the order
                   is total); ring-overflow accounting sums in the
                   merged telemetry-health block
telemetry series   same-key series are tick-aligned on the union of
                   sample times with carry-forward; counter and
                   histogram-count values sum (so the re-derived
                   rates are the sum of shard rates on a shared
                   grid), gauge values and histogram p99s take the
                   max; a series seen by exactly one shard passes
                   through verbatim
ledger (exact)     accounts union by ``(kind, key)``, every charged
                   field sums, shares and rates recomputed over the
                   merged totals
ledger (sketch)    space-saving summaries merge: estimates sum over
                   the shards that kept the entity, the error bound
                   grows by each kept shard's own error **plus the
                   minimum kept weight of every shard that evicted
                   in that kind but lacks the entity**, then the
                   union is re-trimmed to the smallest shard ``top_k``
                   (trims count as evictions).  The documented bound:
                   ``|true - estimate| <= error`` for every kept row,
                   and a row's merged error is never smaller than any
                   shard's error for it
watchdog           alerts concatenate into canonical (time, detector,
                   content) order; ``active`` keys union; detectors
                   dedupe
overhead meter     per-component seconds/calls/bytes sum; the merged
                   ``obs_overhead_pct`` is summed obs seconds over
                   summed wall seconds (aggregate utilisation across
                   the fleet, not elapsed time)
audit              checks sum, violations concatenate, ``ok`` is the
                   conjunction
SLOs               **never merged verdict-wise** — re-judged by
                   :class:`~repro.obs.slo.SloMonitor` over the merged
                   registry (with the merged watchdog alert count)
=================  ======================================================

Order-insensitivity is structural, not hoped-for: shards are first
sorted into a canonical order (name, sim time, events, metrics
digest), so ``merge([a, b]) == merge([b, a])`` byte for byte, and the
property suite (``tests/obs/test_merge_properties.py``) pins
commutativity, associativity, and identity.

:func:`merge_archives` produces one merged-archive dict — a
``metrics_*.json``-shaped payload tagged ``"merged": true`` with the
spans/events/timeseries/accounting embedded plus a per-shard
provenance block — which every ``repro.obs`` renderer accepts.
:func:`split_shard` is the inverse used by the split-run equivalence
harness: partition one run's observability by entity (VC, site,
stream...), merge the parts back, and the canonical content must
equal the identity-merged monolithic run exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.accounting import ACCOUNT_SUM_FIELDS, account_weight
from repro.obs.events import event_sort_key
from repro.obs.export import write_json
from repro.obs.metrics import iter_report
from repro.obs.slo import judge_report
from repro.obs.timeseries import Series

__all__ = [
    "MERGE_VERSION",
    "is_merged_archive",
    "load_shard",
    "merge_archives",
    "merge_audit",
    "merge_events",
    "merge_ledger",
    "merge_metrics",
    "merge_overhead",
    "merge_spans",
    "merge_telemetry",
    "merge_timeseries",
    "merge_watchdog",
    "merged_canonical_form",
    "remap_disjoint",
    "shard_from_mits",
    "sketch_trim",
    "span_sort_key",
    "split_shard",
    "write_merged",
]

#: bump when the merged-archive shape changes incompatibly
MERGE_VERSION = 1

#: label keys that name a shardable entity, in partition priority
#: order (the split harness assigns an instrument to the shard its
#: first entity label hashes to)
ENTITY_LABELS = ("vc", "site", "host", "link", "stream", "player",
                 "trace", "student")


# -- canonical ordering -----------------------------------------------------


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.md5(blob.encode()).hexdigest()


def shard_sort_key(shard: Mapping[str, Any]) -> Tuple[Any, ...]:
    """Canonical shard order: the same fold regardless of input order."""
    return (str(shard.get("name", "")),
            float(shard.get("sim_time") or 0.0),
            int(shard.get("events_run") or 0),
            _digest(shard.get("metrics", {})))


def _canonical(shards: Iterable[Mapping[str, Any]]
               ) -> List[Mapping[str, Any]]:
    return sorted(shards, key=shard_sort_key)


def _flat_key(component: str, name: str,
              labels: Tuple[Tuple[str, str], ...]) -> str:
    body = ",".join(f"{k}={v}" for k, v in labels)
    return f"{component}.{name}{{{body}}}"


# -- metrics ----------------------------------------------------------------


def _sparse_quantile(buckets: List[Tuple[float, int]], count: int,
                     max_value: Optional[float], q: float) -> float:
    """The live :meth:`Histogram.quantile` over a sparse bucket list.

    Zero-count buckets can never be the *first* bound whose running
    total crosses the target, so iterating only the non-zero buckets
    reproduces the dense walk exactly.
    """
    if count == 0:
        return 0.0
    target = q * count
    running = 0
    for bound, n in buckets:
        running += n
        if running >= target:
            return bound
    return max_value if max_value is not None else 0.0


def _min_opt(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _max_opt(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def merge_metrics(shards: List[Mapping[str, Any]]
                  ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Merge shard metrics reports into one registry report.

    Returns ``(report, gauge_provenance)``.  *shards* must already be
    in canonical order; each is a shard dict carrying ``metrics``,
    ``sim_time``, ``name``, and (for re-merged inputs) an optional
    ``gauge_provenance`` naming each gauge's original source so the
    latest-sim-time rule stays associative across groupings.
    """
    state: Dict[Tuple[str, str, Tuple], Dict[str, Any]] = {}
    provenance: Dict[str, Dict[str, Any]] = {}
    for shard in shards:
        shard_name = str(shard.get("name", ""))
        shard_time = float(shard.get("sim_time") or 0.0)
        gprov = shard.get("gauge_provenance") or {}
        for component, name, labels, entry in iter_report(
                shard.get("metrics", {})):
            key = (component, name, labels)
            kind = entry.get("type")
            cur = state.get(key)
            if cur is not None and cur.get("type") != kind:
                # two shards of one deployment can't disagree on an
                # instrument's kind; merging anyway would corrupt both
                raise ValueError(
                    f"instrument kind conflict at "
                    f"{_flat_key(component, name, labels)}: "
                    f"{cur.get('type')} vs {kind} "
                    f"(shard {shard_name!r})")
            if kind == "counter":
                if cur is None:
                    cur = state[key] = {"type": "counter", "value": 0}
                cur["value"] += entry.get("value", 0)
            elif kind == "gauge":
                flat = _flat_key(component, name, labels)
                src = gprov.get(flat) or {"shard": shard_name,
                                          "sim_time": shard_time}
                rank = (float(src.get("sim_time") or 0.0),
                        str(src.get("shard", "")),
                        repr(entry.get("value")))
                if cur is None:
                    cur = state[key] = {
                        "type": "gauge", "value": entry.get("value"),
                        "min": entry.get("min"), "max": entry.get("max"),
                        "_rank": rank, "_src": src}
                else:
                    cur["min"] = _min_opt(cur["min"], entry.get("min"))
                    cur["max"] = _max_opt(cur["max"], entry.get("max"))
                    if rank > cur["_rank"]:
                        cur["value"] = entry.get("value")
                        cur["_rank"] = rank
                        cur["_src"] = src
            elif kind == "histogram":
                if cur is None:
                    cur = state[key] = {
                        "type": "histogram", "count": 0, "sum": 0.0,
                        "overflow": 0, "min": None, "max": None,
                        "_buckets": {}}
                cur["count"] += entry.get("count", 0)
                cur["sum"] += entry.get("sum", 0.0)
                cur["overflow"] += entry.get("overflow", 0)
                cur["min"] = _min_opt(cur["min"], entry.get("min"))
                cur["max"] = _max_opt(cur["max"], entry.get("max"))
                for b in entry.get("buckets", []):
                    le = b["le"]
                    cur["_buckets"][le] = (cur["_buckets"].get(le, 0)
                                           + b["count"])
            else:  # unknown instrument kind: keep the last seen entry
                state[key] = {k: v for k, v in entry.items()
                              if k != "labels"}

    report: Dict[str, Any] = {}
    for (component, name, labels) in sorted(state):
        cur = state[(component, name, labels)]
        entry: Dict[str, Any] = {"labels": dict(labels)}
        if cur.get("type") == "gauge":
            entry.update({"type": "gauge", "value": cur["value"],
                          "min": cur["min"], "max": cur["max"]})
            provenance[_flat_key(component, name, labels)] = \
                dict(cur["_src"])
        elif cur.get("type") == "histogram":
            buckets = sorted(cur["_buckets"].items())
            count = cur["count"]
            entry.update({
                "type": "histogram",
                "count": count,
                "sum": cur["sum"],
                "mean": cur["sum"] / count if count else 0.0,
                "min": cur["min"],
                "max": cur["max"],
                "buckets": [{"le": le, "count": n}
                            for le, n in buckets if n],
                "overflow": cur["overflow"],
                "p50": _sparse_quantile(buckets, count, cur["max"], 0.5),
                "p99": _sparse_quantile(buckets, count, cur["max"], 0.99),
            })
        else:
            entry.update(cur)
        report.setdefault(component, {}).setdefault(name, []).append(entry)
    return report, provenance


# -- trace forests & flight events ------------------------------------------


def span_sort_key(span: Mapping[str, Any]) -> Tuple[Any, ...]:
    """Total order over span dicts (start, trace, span id)."""
    return (span.get("start", 0.0), span.get("trace_id", 0),
            span.get("span_id", 0))


def remap_disjoint(shards: List[Dict[str, Any]]
                   ) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """Enforce pairwise-disjoint trace/span ids across shards.

    Shards that collide with an earlier shard (canonical order) have
    the colliding trace ids — and colliding span ids, with parent
    links following — remapped above the global max.  Event
    ``trace_id`` correlations are remapped consistently.  Returns the
    (possibly rewritten) shard list plus remap counts for the
    provenance block; disjoint inputs pass through untouched.
    """
    seen_traces: set = set()
    seen_spans: set = set()
    remapped_traces = 0
    remapped_spans = 0
    out: List[Dict[str, Any]] = []
    for shard in shards:
        spans = shard.get("spans") or []
        events = shard.get("events") or []
        shard_traces = {s["trace_id"] for s in spans} | {
            e["trace_id"] for e in events
            if e.get("trace_id") is not None}
        shard_spans = {s["span_id"] for s in spans}
        t_collide = sorted(t for t in shard_traces if t in seen_traces)
        s_collide = sorted(s for s in shard_spans if s in seen_spans)
        if t_collide or s_collide:
            nxt_t = max(seen_traces | shard_traces, default=0) + 1
            tmap = {}
            for t in t_collide:
                tmap[t] = nxt_t
                nxt_t += 1
            nxt_s = max(seen_spans | shard_spans, default=0) + 1
            smap = {}
            for s in s_collide:
                smap[s] = nxt_s
                nxt_s += 1
            remapped_traces += len(tmap)
            remapped_spans += len(smap)
            spans = [dict(s, trace_id=tmap.get(s["trace_id"],
                                               s["trace_id"]),
                          span_id=smap.get(s["span_id"], s["span_id"]),
                          parent_id=smap.get(s.get("parent_id"),
                                             s.get("parent_id")))
                     for s in spans]
            events = [dict(e, trace_id=tmap.get(e["trace_id"],
                                                e["trace_id"]))
                      if e.get("trace_id") is not None else e
                      for e in events]
            shard = dict(shard, spans=spans, events=events)
            shard_traces = {tmap.get(t, t) for t in shard_traces}
            shard_spans = {smap.get(s, s) for s in shard_spans}
        seen_traces |= shard_traces
        seen_spans |= shard_spans
        out.append(shard)
    return out, {"trace_id_remaps": remapped_traces,
                 "span_id_remaps": remapped_spans}


def merge_spans(shards: List[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Concatenate shard span forests into canonical start order."""
    spans = [s for shard in shards for s in (shard.get("spans") or [])]
    return sorted(spans, key=span_sort_key)


def merge_events(shards: List[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """K-way merge of flight-event lists by sim time (total order)."""
    events = [e for shard in shards for e in (shard.get("events") or [])]
    return sorted(events, key=event_sort_key)


# -- telemetry series -------------------------------------------------------


def _carry_forward(times: List[float], values: List[Any],
                   grid: List[float]) -> List[Optional[Any]]:
    """Value at or before each grid tick (None before the first)."""
    out: List[Optional[Any]] = []
    i = 0
    last: Optional[Any] = None
    for t in grid:
        while i < len(times) and times[i] <= t:
            last = values[i]
            i += 1
        out.append(last)
    return out


def _align_series(sources: List[Mapping[str, Any]]) -> Dict[str, Any]:
    """Tick-align same-key series from several shards onto the union
    grid: sum for cumulative kinds, max for levels and p99s."""
    first = sources[0]
    kind = first.get("kind", "gauge")
    grid = sorted({t for s in sources for t in s.get("times", [])})
    carried = [_carry_forward(s.get("times", []), s.get("values", []),
                              grid) for s in sources]
    p99_carried = None
    if kind == "histogram":
        p99_carried = [_carry_forward(s.get("times", []),
                                      s.get("p99s", []), grid)
                       for s in sources]
    merged = Series(first["component"], first["name"],
                    first.get("labels") or {}, kind,
                    capacity=max(2, len(grid)))
    values: List[Any] = []
    p99s: List[Optional[float]] = []
    for gi in range(len(grid)):
        at_tick = [c[gi] for c in carried]
        if kind in ("counter", "histogram"):
            # cumulative-from-zero: a shard with no sample yet
            # contributes 0, so the merged trajectory is the sum and
            # the re-derived rate on the union grid is the sum of the
            # shard rates
            value = sum(v for v in at_tick if v is not None)
        else:
            known = [v for v in at_tick if v is not None]
            value = max(known) if known else 0.0
        p99 = None
        if p99_carried is not None:
            known = [c[gi] for c in p99_carried if c[gi] is not None]
            p99 = max(known) if known else 0.0
        values.append(value)
        p99s.append(p99)
    merged.extend(grid, values, p99s)
    out = merged.to_dict()
    out["evicted"] = sum(s.get("evicted", 0) for s in sources)
    if any("coalesced" in s for s in sources):
        out["coalesced"] = sum(s.get("coalesced", 0) for s in sources)
    return out


def merge_timeseries(shards: List[Mapping[str, Any]]
                     ) -> Optional[Dict[str, Any]]:
    """Merge sampler snapshots; a series held by one shard passes
    through verbatim, shared keys are tick-aligned."""
    snaps = [shard.get("timeseries") for shard in shards
             if shard.get("timeseries")]
    if not snaps:
        return None
    groups: Dict[Tuple, List[Mapping[str, Any]]] = {}
    for snap in snaps:
        for s in snap.get("series", []):
            key = (s["component"], s["name"],
                   tuple(sorted((s.get("labels") or {}).items())))
            groups.setdefault(key, []).append(s)
    series = [dict(groups[key][0]) if len(groups[key]) == 1
              else _align_series(groups[key])
              for key in sorted(groups)]
    intervals = [s.get("interval") for s in snaps
                 if s.get("interval") is not None]
    out: Dict[str, Any] = {
        "enabled": True,
        "interval": min(intervals) if intervals else None,
        "capacity": max(s.get("capacity", 0) for s in snaps),
        "samples": sum(s.get("samples", 0) for s in snaps),
        "evictions": sum(s.get("evictions", 0) for s in snaps),
        "series": series,
    }
    strides = [s["stride"] for s in snaps if "stride" in s]
    if strides:
        out["stride"] = max(strides)
        out["coalesced"] = sum(s.get("coalesced", 0) for s in snaps)
    return out


# -- ledger -----------------------------------------------------------------


def sketch_trim(snapshot: Mapping[str, Any], top_k: int
                ) -> Dict[str, Any]:
    """Project an exact ledger snapshot into sketch form: keep the
    ``top_k`` heaviest accounts per kind, count the rest as evictions.

    The result satisfies the space-saving absence property the merge's
    error rule leans on — any entity missing from a kind that evicted
    has true weight no larger than the minimum kept weight — which is
    what lets the equivalence harness check sketch-mode bounds against
    the exact monolithic ledger without a second run.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    kinds: Dict[str, List[Dict[str, Any]]] = {}
    evictions: Dict[str, int] = {}
    for kind, rows in (snapshot.get("kinds") or {}).items():
        ranked = sorted(rows,
                        key=lambda r: (-account_weight(r), r["key"]))
        kept = sorted(ranked[:top_k], key=lambda r: r["key"])
        if len(ranked) > top_k:
            evictions[kind] = len(ranked) - top_k
        out_rows = []
        for r in kept:
            row = dict(r)
            row.setdefault("weight", account_weight(r))
            row.setdefault("error", 0.0)
            row["approx"] = row["error"] > 0
            out_rows.append(row)
        kinds[kind] = out_rows
    return {"enabled": snapshot.get("enabled", True), "kinds": kinds,
            "top_k": top_k,
            "evictions": dict(sorted(evictions.items()))}


def merge_ledger(shards: List[Mapping[str, Any]], *,
                 sim_time: Optional[float] = None
                 ) -> Optional[Dict[str, Any]]:
    """Merge ledger snapshots — exact when every shard is exact,
    space-saving sketch merge (with propagated error bounds) when any
    shard is a ``top_k`` sketch."""
    snaps = [shard.get("accounting") for shard in shards
             if shard.get("accounting")]
    snaps = [s for s in snaps if s.get("kinds") is not None]
    if not snaps:
        return None
    sketch = any(s.get("top_k") is not None for s in snaps)

    rows_by: Dict[Tuple[str, str], Dict[str, Any]] = {}
    present: Dict[Tuple[str, str], set] = {}
    for i, snap in enumerate(snaps):
        for kind, rows in (snap.get("kinds") or {}).items():
            for r in rows:
                rkey = (kind, r["key"])
                m = rows_by.get(rkey)
                if m is None:
                    m = rows_by[rkey] = {"kind": kind, "key": r["key"],
                                         "note": ""}
                    for f in ACCOUNT_SUM_FIELDS:
                        m[f] = 0 if f != "residency_seconds" else 0.0
                    if sketch:
                        m["weight"] = 0.0
                        m["error"] = 0.0
                for f in ACCOUNT_SUM_FIELDS:
                    m[f] += r.get(f, 0)
                if not m["note"] and r.get("note"):
                    m["note"] = r["note"]
                if sketch:
                    m["weight"] += r.get("weight", account_weight(r))
                    m["error"] += r.get("error", 0.0)
                present.setdefault(rkey, set()).add(i)

    evictions: Dict[str, int] = {}
    top_k: Optional[int] = None
    if sketch:
        # a shard that evicted in a kind may have charged any *absent*
        # entity up to its minimum kept weight before losing it — that
        # uncertainty propagates into the merged error bound
        min_weight: List[Dict[str, float]] = []
        for snap in snaps:
            ev = snap.get("evictions") or {}
            mw: Dict[str, float] = {}
            for kind, rows in (snap.get("kinds") or {}).items():
                if ev.get(kind, 0) > 0 and rows:
                    mw[kind] = min(r.get("weight", account_weight(r))
                                   for r in rows)
            min_weight.append(mw)
            for kind, n in ev.items():
                evictions[kind] = evictions.get(kind, 0) + n
        for (kind, key), m in rows_by.items():
            for i in range(len(snaps)):
                if i not in present[(kind, key)]:
                    m["error"] += min_weight[i].get(kind, 0.0)
            m["approx"] = m["error"] > 0
        top_k = min(s["top_k"] for s in snaps
                    if s.get("top_k") is not None)

    by_kind: Dict[str, List[Dict[str, Any]]] = {}
    for (kind, _key), m in rows_by.items():
        by_kind.setdefault(kind, []).append(m)
    kinds_out: Dict[str, List[Dict[str, Any]]] = {}
    for kind in sorted(by_kind):
        rows = sorted(by_kind[kind], key=lambda r: r["key"])
        if sketch and top_k is not None and len(rows) > top_k:
            kept = sorted(rows,
                          key=lambda r: (-r["weight"], r["key"]))[:top_k]
            evictions[kind] = (evictions.get(kind, 0)
                               + len(rows) - len(kept))
            rows = sorted(kept, key=lambda r: r["key"])
        total_bytes = sum(r["bytes_sent"] for r in rows)
        for r in rows:
            r["share"] = (r["bytes_sent"] / total_bytes
                          if total_bytes else 0.0)
            if sim_time:
                r["bits_per_sec"] = r["bytes_sent"] * 8.0 / sim_time
        kinds_out[kind] = rows
    merged: Dict[str, Any] = {"enabled": True, "kinds": kinds_out}
    if sketch:
        merged["top_k"] = top_k
        merged["evictions"] = dict(sorted(evictions.items()))
    return merged


# -- watchdog / overhead / audit / health -----------------------------------


def _alert_key(alert: Mapping[str, Any]) -> Tuple[Any, ...]:
    return (alert.get("time", 0.0), str(alert.get("detector", "")),
            json.dumps(alert, sort_keys=True, default=repr))


def merge_watchdog(shards: List[Mapping[str, Any]]
                   ) -> Optional[Dict[str, Any]]:
    """Alerts in canonical order, active keys unioned, detectors
    deduped (identical detector lists pass through as-is)."""
    snaps = [shard.get("watchdog") for shard in shards
             if shard.get("watchdog")]
    if not snaps:
        return None
    detectors = snaps[0].get("detectors", [])
    if any(s.get("detectors", []) != detectors for s in snaps[1:]):
        by_name: Dict[str, Any] = {}
        for s in snaps:
            for d in s.get("detectors", []):
                by_name.setdefault(str(d.get("name")), d)
        detectors = [by_name[n] for n in sorted(by_name)]
    alerts = sorted((a for s in snaps for a in s.get("alerts", [])),
                    key=_alert_key)
    active = sorted({x for s in snaps for x in s.get("active", [])})
    return {"enabled": any(s.get("enabled") for s in snaps),
            "detectors": detectors, "alerts": alerts, "active": active}


def merge_overhead(shards: List[Mapping[str, Any]]
                   ) -> Optional[Dict[str, Any]]:
    """Sum the meter attribution across shards.  ``wall_seconds`` sums
    too (shards may have run in parallel), so the merged percentage is
    aggregate obs utilisation of the fleet's total compute, not a
    fraction of elapsed time."""
    reports = [shard.get("overhead") for shard in shards
               if shard.get("overhead")]
    if not reports:
        return None
    components: Dict[str, Dict[str, Any]] = {}
    for r in reports:
        for name, cost in (r.get("components") or {}).items():
            m = components.setdefault(
                name, {"seconds": 0.0, "calls": 0, "bytes": 0})
            m["seconds"] += cost.get("seconds", 0.0)
            m["calls"] += cost.get("calls", 0)
            m["bytes"] += cost.get("bytes", 0)
    obs_seconds = sum(r.get("obs_seconds", 0.0) for r in reports)
    wall = sum(r.get("wall_seconds", 0.0) for r in reports)
    return {
        "obs_seconds": obs_seconds,
        "obs_bytes": sum(r.get("obs_bytes", 0) for r in reports),
        "wall_seconds": wall,
        "obs_overhead_pct": (obs_seconds / wall * 100.0) if wall > 0
        else 0.0,
        "components": {name: components[name]
                       for name in sorted(components)},
    }


def merge_audit(shards: List[Mapping[str, Any]]
                ) -> Optional[Dict[str, Any]]:
    """Checks sum, violations concatenate, ``ok`` conjoins."""
    reports = [shard.get("audit") for shard in shards
               if shard.get("audit") is not None]
    if not reports:
        return None
    violations = sorted(
        (v for r in reports for v in r.get("violations", [])),
        key=lambda v: json.dumps(v, sort_keys=True, default=repr))
    return {"ok": all(r.get("ok", True) for r in reports),
            "checks": sum(r.get("checks", 0) for r in reports),
            "violations": violations}


def merge_telemetry(shards: List[Mapping[str, Any]]
                    ) -> Optional[Dict[str, Any]]:
    """Sum every telemetry-health counter across shards (including the
    overflow-reservoir kept count when any shard reports one)."""
    healths = [shard.get("telemetry") for shard in shards
               if shard.get("telemetry") is not None]
    if not healths:
        return None
    out: Dict[str, Any] = {}
    for h in healths:
        for key, value in h.items():
            out[key] = out.get(key, 0) + (value or 0)
    return {key: out[key] for key in sorted(out)}


# -- the merged archive -----------------------------------------------------


def _shard_meta(shard: Mapping[str, Any]) -> Dict[str, Any]:
    meta: Dict[str, Any] = {
        "name": shard.get("name", ""),
        "path": shard.get("path", ""),
        "sim_time": shard.get("sim_time", 0.0),
        "events_run": shard.get("events_run", 0),
        "spans": len(shard.get("spans") or []),
        "events": len(shard.get("events") or []),
    }
    for key in ("scenario", "seed", "wall_seconds", "peak_rss_kb"):
        if shard.get(key) is not None:
            meta[key] = shard[key]
    overhead = shard.get("overhead")
    if overhead is not None:
        meta["obs_overhead_pct"] = overhead.get("obs_overhead_pct")
    return meta


def merge_archives(shards: Iterable[Mapping[str, Any]], *,
                   name: str = "merged") -> Dict[str, Any]:
    """Merge normalised shard dicts into one merged-archive payload.

    Deterministic and order-insensitive: shards are folded in
    canonical order whatever order the caller passes them in.  SLOs
    are re-judged over the merged registry (with the merged watchdog
    alerts), never combined verdict-wise.
    """
    ordered = [dict(s) for s in _canonical(shards)]
    ordered, remaps = remap_disjoint(ordered)
    metrics, gauge_prov = merge_metrics(ordered)
    sim_time = max((float(s.get("sim_time") or 0.0) for s in ordered),
                   default=0.0)
    watchdog = merge_watchdog(ordered)
    spans = merge_spans(ordered)
    merged: Dict[str, Any] = {
        "merged": True,
        "merge_version": MERGE_VERSION,
        "name": name,
        "sim_time": sim_time,
        "events_run": sum(int(s.get("events_run") or 0)
                          for s in ordered),
        "metrics": metrics,
        "slo": judge_report(
            metrics,
            watchdog_alerts=watchdog["alerts"]
            if watchdog is not None else None),
        "spans": spans,
        "events": merge_events(ordered),
        "provenance": {"gauges": gauge_prov, **remaps},
        "shards": [_shard_meta(s) for s in ordered],
    }
    for key, value in (
            ("audit", merge_audit(ordered)),
            ("telemetry", merge_telemetry(ordered)),
            ("watchdog", watchdog),
            ("overhead", merge_overhead(ordered)),
            ("timeseries", merge_timeseries(ordered)),
            ("accounting", merge_ledger(ordered, sim_time=sim_time))):
        if value is not None:
            merged[key] = value
    from repro.obs.export import critical_block
    crit = critical_block(spans)
    if crit is not None:
        merged["critical"] = crit
    return merged


def merged_canonical_form(merged: Mapping[str, Any]) -> str:
    """The byte string two equivalent merges must agree on exactly.

    The ``shards``/``provenance`` blocks (and the archive's own name)
    describe *how* the view was assembled, not what happened on the
    network, so they are excluded — the same exclusion rule
    :mod:`repro.obs.equivalence` applies to execution artefacts.
    """
    body = {k: v for k, v in merged.items()
            if k not in ("shards", "provenance", "name")}
    return json.dumps(body, sort_keys=True, default=repr)


def write_merged(merged: Mapping[str, Any], path: str) -> str:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        # members down to the timeseries' series / the span list are
        # written one at a time: the archive is never one string
        write_json(fh, merged, depth=3)
        fh.write("\n")
    return path


# -- loading shards ---------------------------------------------------------


def is_merged_archive(path: str) -> bool:
    """Sniff: a JSON file tagged ``"merged": true``."""
    if not path.endswith(".json"):
        return False
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return False
    return isinstance(payload, dict) and payload.get("merged") is True


def load_shard(path: str, *,
               extras: Optional[Mapping[str, Any]] = None
               ) -> Dict[str, Any]:
    """Normalise any archive the CLI accepts into a shard dict.

    Accepts a streamed ``obs_*.jsonl`` sidecar, a monolithic
    ``metrics_*.json`` (sibling trace/timeseries/accounting sidecars
    auto-discovered), or a previously merged archive (re-merging is
    how fleets of fleets roll up).  *extras* (e.g. the fleet runner's
    per-shard ``wall_seconds`` / ``peak_rss_kb`` / ``overhead``)
    overlay the result.
    """
    from repro.obs.sink import is_obs_sidecar, load_obs_sidecar

    if is_obs_sidecar(path):
        payload = load_obs_sidecar(path)
        fin = payload["meta"]
        acct = payload["accounting"]
        if acct is not None:
            acct = {k: v for k, v in acct.items() if k != "sim_time"}
        shard: Dict[str, Any] = {
            "name": payload["name"] or os.path.basename(path),
            "path": path,
            "sim_time": fin.get("sim_time", 0.0),
            "events_run": fin.get("events_run", 0),
            "metrics": fin.get("metrics", {}),
            "spans": payload["spans"],
            "events": payload["events"],
            "timeseries": payload["timeseries"],
            "accounting": acct,
            "watchdog": fin.get("watchdog"),
            "audit": fin.get("audit"),
            "telemetry": fin.get("telemetry"),
            "overhead": None,  # wall clock never rides in the stream
        }
    else:
        with open(path) as fh:
            payload = json.load(fh)
        if isinstance(payload, dict) and payload.get("merged"):
            acct = payload.get("accounting")
            shard = {
                "name": payload.get("name") or os.path.basename(path),
                "path": path,
                "sim_time": payload.get("sim_time", 0.0),
                "events_run": payload.get("events_run", 0),
                "metrics": payload.get("metrics", {}),
                "spans": payload.get("spans") or [],
                "events": payload.get("events") or [],
                "timeseries": payload.get("timeseries"),
                "accounting": acct,
                "watchdog": payload.get("watchdog"),
                "audit": payload.get("audit"),
                "telemetry": payload.get("telemetry"),
                "overhead": payload.get("overhead"),
                "gauge_provenance":
                    (payload.get("provenance") or {}).get("gauges"),
            }
        else:
            from repro.obs.report import (
                find_accounting_sidecar,
                find_timeseries_sidecar,
                find_trace_sidecar,
                load_metrics_file,
                load_trace_file,
            )
            meta, metrics = load_metrics_file(path)
            spans: List[Dict[str, Any]] = []
            events: List[Dict[str, Any]] = []
            trace_path = find_trace_sidecar(path)
            if trace_path:
                spans, events = load_trace_file(trace_path)
            timeseries = None
            ts_path = find_timeseries_sidecar(path)
            if ts_path:
                with open(ts_path) as fh:
                    timeseries = {k: v for k, v in json.load(fh).items()
                                  if k != "name"}
            acct = None
            acct_path = find_accounting_sidecar(path)
            if acct_path:
                with open(acct_path) as fh:
                    acct = {k: v for k, v in json.load(fh).items()
                            if k not in ("name", "sim_time")}
            shard = {
                "name": meta.get("name") or os.path.basename(path),
                "path": path,
                "sim_time": meta.get("sim_time", 0.0),
                "events_run": meta.get("events_run", 0),
                "metrics": metrics,
                "spans": spans,
                "events": events,
                "timeseries": timeseries,
                "accounting": acct,
                "watchdog": meta.get("watchdog"),
                "audit": meta.get("audit"),
                "telemetry": meta.get("telemetry"),
                "overhead": meta.get("overhead"),
            }
    if extras:
        shard.update(extras)
    return shard


def shard_from_mits(mits, name: str) -> Dict[str, Any]:
    """Snapshot a live deployment into a shard dict (the equivalence
    harness's monolithic side; wall-clock overhead is deliberately
    excluded so the shard is deterministic)."""
    from repro.obs.audit import ConservationAuditor
    from repro.obs.export import telemetry_health

    sim = mits.sim
    sampler = getattr(mits, "sampler", None)
    watchdog = getattr(mits, "watchdog", None)
    ledger = getattr(sim, "ledger", None)
    metrics = sim.metrics.report()
    events = [e.to_dict() for e in sim.recorder.events]
    events += [e.to_dict() for e in sim.recorder.overflow]
    return {
        "name": name,
        "path": f"<live:{name}>",
        "sim_time": sim.now,
        "events_run": sim.events_run,
        "metrics": metrics,
        "spans": [s.to_dict() for s in sim.tracer.spans],
        "events": events,
        "timeseries": sampler.snapshot() if sampler is not None
        else None,
        "accounting": ledger.snapshot(sim_time=sim.now)
        if ledger is not None and ledger.enabled else None,
        "watchdog": watchdog.snapshot() if watchdog is not None
        else None,
        "audit": ConservationAuditor(mits).report(),
        "telemetry": telemetry_health(mits),
        "overhead": None,
    }


# -- the split harness ------------------------------------------------------


def _bucket(key: str, n: int) -> int:
    """Stable partition hash (md5, not ``hash()`` — PYTHONHASHSEED-
    proof, so split assignments are reproducible run over run)."""
    return int(hashlib.md5(key.encode()).hexdigest()[:8], 16) % n


def _entity_bucket(labels: Mapping[str, Any], n: int) -> int:
    for label in ENTITY_LABELS:
        if label in labels:
            return _bucket(f"{label}={labels[label]}", n)
    return 0


def _split_int(value: int, n: int) -> List[int]:
    """Partition an integer so the parts re-sum exactly."""
    part = value // n
    parts = [part] * n
    parts[0] += value - part * n
    return parts


def split_shard(shard: Mapping[str, Any], n: int = 2
                ) -> List[Dict[str, Any]]:
    """Partition one shard's observability into *n* entity shards.

    The split-run equivalence harness's other half: instruments,
    series, accounts and alerts go to the shard their entity label
    (VC, site, stream...) hashes to — unlabelled instruments to shard
    0 — spans and events follow their trace id, and pure counts
    (checks, events_run, health counters) are partitioned so they
    re-sum exactly.  ``merge_archives(split_shard(s, n))`` must then
    reproduce ``merge_archives([s])`` byte for byte (sketch-mode
    ledgers within the documented error bound).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base_name = shard.get("name", "shard")
    shards: List[Dict[str, Any]] = [
        {"name": f"{base_name}-shard{i}",
         "path": f"<split:{base_name}:{i}>",
         "sim_time": shard.get("sim_time", 0.0),
         "events_run": 0,
         "metrics": {}, "spans": [], "events": [],
         "timeseries": None, "accounting": None, "watchdog": None,
         "audit": None, "telemetry": None, "overhead": None}
        for i in range(n)]

    for i, part in enumerate(_split_int(
            int(shard.get("events_run") or 0), n)):
        shards[i]["events_run"] = part

    for component, mname, labels, entry in iter_report(
            shard.get("metrics", {})):
        i = _entity_bucket(dict(labels), n)
        shards[i]["metrics"].setdefault(component, {}) \
            .setdefault(mname, []).append(entry)

    for span in shard.get("spans") or []:
        i = _bucket(f"trace={span.get('trace_id')}", n)
        shards[i]["spans"].append(span)
    for event in shard.get("events") or []:
        tid = event.get("trace_id")
        i = (_bucket(f"trace={tid}", n) if tid is not None
             else _bucket(f"component={event.get('component')}", n))
        shards[i]["events"].append(event)

    ts = shard.get("timeseries")
    if ts:
        buckets: List[List[Any]] = [[] for _ in range(n)]
        for s in ts.get("series", []):
            buckets[_entity_bucket(s.get("labels") or {}, n)].append(s)
        samples = _split_int(int(ts.get("samples", 0)), n)
        for i in range(n):
            part: Dict[str, Any] = {
                "enabled": True,
                "interval": ts.get("interval"),
                "capacity": ts.get("capacity", 0),
                "samples": samples[i],
                "evictions": sum(s.get("evicted", 0)
                                 for s in buckets[i]),
                "series": buckets[i],
            }
            if "stride" in ts:
                part["stride"] = ts["stride"]
                part["coalesced"] = sum(s.get("coalesced", 0)
                                        for s in buckets[i])
            shards[i]["timeseries"] = part

    acct = shard.get("accounting")
    if acct and acct.get("kinds") is not None:
        kind_buckets: List[Dict[str, List]] = [{} for _ in range(n)]
        for kind, rows in acct["kinds"].items():
            for r in rows:
                i = _bucket(f"{kind}:{r['key']}", n)
                kind_buckets[i].setdefault(kind, []).append(r)
        for i in range(n):
            shards[i]["accounting"] = {
                "enabled": acct.get("enabled", True),
                "kinds": kind_buckets[i]}

    wd = shard.get("watchdog")
    if wd:
        alert_buckets: List[List[Any]] = [[] for _ in range(n)]
        for a in wd.get("alerts", []):
            alert_buckets[_bucket(
                f"entity={a.get('entity')}", n)].append(a)
        active_buckets: List[List[Any]] = [[] for _ in range(n)]
        for key in wd.get("active", []):
            active_buckets[_bucket(f"active={key}", n)].append(key)
        for i in range(n):
            shards[i]["watchdog"] = {
                "enabled": wd.get("enabled", True),
                "detectors": list(wd.get("detectors", [])),
                "alerts": alert_buckets[i],
                "active": active_buckets[i]}

    audit = shard.get("audit")
    if audit is not None:
        checks = _split_int(int(audit.get("checks", 0)), n)
        v_buckets: List[List[Any]] = [[] for _ in range(n)]
        for v in audit.get("violations", []):
            v_buckets[_bucket(json.dumps(v, sort_keys=True,
                                         default=repr), n)].append(v)
        for i in range(n):
            shards[i]["audit"] = {"ok": not v_buckets[i],
                                  "checks": checks[i],
                                  "violations": v_buckets[i]}

    health = shard.get("telemetry")
    if health is not None:
        parts = {key: _split_int(int(value or 0), n)
                 for key, value in health.items()}
        for i in range(n):
            shards[i]["telemetry"] = {key: parts[key][i]
                                      for key in sorted(parts)}
    return shards
