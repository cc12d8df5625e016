"""Time-series telemetry: periodic snapshots of every live instrument.

Counters, gauges, and histograms answer "how much, in total, by the
end of the run".  The thesis's prototype was judged by how it behaved
*over a session* — link utilisation during classroom streaming, player
buffer fill across pre-roll, MHEG event rates while links fire — which
needs the missing time axis.  A :class:`TelemetrySampler` self-schedules
on the :class:`~repro.atm.simulator.Simulator` at a configurable
simulated-time interval and snapshots every instrument registered in
the deployment's :class:`~repro.obs.metrics.MetricsRegistry`; readers
see one bounded ring-buffered :class:`Series` per
``(component, name, labels)`` key.

Per instrument kind, a sample stores:

* **counter** — the cumulative value, plus a derived *rate* (units/s of
  simulated time) over the interval since the previous sample.  A
  counter that moved backwards (the registry was reset mid-run) clamps
  the rate to 0 instead of reporting a negative rate.
* **gauge** — the level at sample time.
* **histogram** — the cumulative observation count (with a derived
  observations/s rate) and the p99 at sample time, so latency
  trajectories are visible, not just end-of-run aggregates.

Storage is *columnar*: a tick appends one row — the time, one list of
every instrument's value (``value`` for counters and gauges, ``count``
for histograms) in registry order, and one list of the histograms'
p99s.  Which instrument sits at which position is fixed per registry
*generation* (a new instrument or a :meth:`MetricsRegistry.reset`
starts a new one), so a steady-state tick does no per-series work.
:class:`Series` objects are materialised lazily, a column at a time
(:meth:`Series.extend`), when something reads them — :meth:`series`,
:meth:`get`, :meth:`peak`, :attr:`evictions`, :attr:`coalesced`,
:meth:`snapshot` — and materialisation is incremental: folded rows are
dropped, so a read after one new tick folds only that tick.  The same
method restores archived series (:meth:`Series.from_dict`) and
replays streamed ticks (:mod:`repro.obs.sink`).

Scheduling is *dormancy-aware* so the sampler never keeps a simulation
alive on its own: a tick only re-arms while other events are pending,
and :meth:`Simulator.schedule` wakes a dormant sampler when new work
arrives.  ``Simulator.run()`` with no horizon therefore still drains.

Memory is bounded: each series is a fixed-capacity ring and evictions
are counted (surfaced by the ``repro.obs`` CLI so silently-truncated
telemetry is visible); unfolded rows are folded once ``capacity`` of
them are pending, so the row buffer adds at most ``capacity`` points
per series.

Under a :class:`~repro.obs.sampling.SamplingPolicy` the sampler can
additionally *decimate* (record only every ``telemetry_stride``-th
scheduled tick — explicit :meth:`TelemetrySampler.sample` calls always
record) and *coalesce* (a sample identical to the previous point slides
that point's timestamp forward instead of appending, so flat-lining
gauges cost O(1) ring slots).  A ``sink`` callable, when attached,
receives every recorded tick for the streaming sidecar; rates are then
derived at tick time.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import groupby, islice, zip_longest
from operator import itemgetter
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple)

__all__ = ["Series", "TelemetrySampler", "load_timeseries"]

LabelKey = Tuple[Tuple[str, str], ...]


def _sorted_window(values, window: Optional[int]) -> List[float]:
    vals = list(values) if window is None else list(values)[-window:]
    vals.sort()
    return vals


class Series:
    """One ring-buffered metric trajectory.

    ``times``/``values`` are parallel rings; counter and histogram
    series additionally carry a ``rates`` ring (derived units per
    simulated second) and histogram series a ``p99s`` ring.
    """

    __slots__ = ("component", "name", "labels", "kind",
                 "times", "values", "rates", "p99s", "evicted",
                 "coalesce", "coalesced", "_prev_value", "_prev_time")

    def __init__(self, component: str, name: str,
                 labels: Mapping[str, str], kind: str,
                 capacity: int, *, coalesce: bool = False) -> None:
        self.component = component
        self.name = name
        self.labels = dict(labels)
        self.kind = kind
        self.times: deque = deque(maxlen=capacity)
        self.values: deque = deque(maxlen=capacity)
        self.rates: Optional[deque] = \
            deque(maxlen=capacity) if kind in ("counter", "histogram") else None
        self.p99s: Optional[deque] = \
            deque(maxlen=capacity) if kind == "histogram" else None
        self.evicted = 0
        self.coalesce = coalesce
        self.coalesced = 0
        self._prev_value: Optional[float] = None
        self._prev_time: Optional[float] = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def key(self) -> Tuple[str, str, LabelKey]:
        return (self.component, self.name,
                tuple(sorted(self.labels.items())))

    def record(self, time: float, value: float,
               p99: Optional[float] = None) -> None:
        """Append one sample, deriving the rate from the previous one."""
        if (self.coalesce and self.times
                and value == self._prev_value
                and (self.rates is None or self.rates[-1] == 0.0)
                and (self.p99s is None
                     or self.p99s[-1] == (0.0 if p99 is None else p99))):
            # identical to the standing point: slide its timestamp
            # forward instead of burning a ring slot (the derived rate
            # of an unchanged cumulative value is 0, matching the one
            # already stored)
            self.times[-1] = time
            self.coalesced += 1
            self._prev_time = time
            return
        if len(self.times) == self.times.maxlen:
            self.evicted += 1
        self.times.append(time)
        self.values.append(value)
        if self.rates is not None:
            prev_v, prev_t = self._prev_value, self._prev_time
            if prev_v is None or prev_t is None or time <= prev_t:
                rate = 0.0
            else:
                # a cumulative value that moved backwards means the
                # registry was reset mid-run: clamp, never negative
                rate = max(0.0, (value - prev_v) / (time - prev_t))
            self.rates.append(rate)
        if self.p99s is not None:
            self.p99s.append(0.0 if p99 is None else p99)
        self._prev_value = value
        self._prev_time = time

    def extend(self, times: Sequence[float], values: Sequence[float],
               p99s: Optional[Sequence[Optional[float]]] = None,
               rates: Optional[Sequence[float]] = None) -> None:
        """Append a column slice: the same points as one :meth:`record`
        per ``(times[i], values[i], p99s[i])``, built a column at a time.

        *rates*, when given, is stored verbatim instead of derived (an
        archived ring being restored).  Coalescing series fall back to
        :meth:`record` per point: whether a point coalesces depends on
        the one before it.
        """
        n = len(times)
        if not n:
            return
        if self.coalesce:
            for t, v, p99 in zip(times, values, p99s or (None,) * n):
                self.record(t, v, p99)
            return
        over = len(self.times) + n - self.times.maxlen
        if over > 0:
            self.evicted += over
        self.times.extend(times)
        self.values.extend(values)
        if self.rates is not None:
            if rates is None:
                # each point's predecessor; the first point of a series
                # is its own, so its rate is 0.0
                first = ((times[0], values[0]) if self._prev_time is None
                         else (self._prev_time, self._prev_value))
                # clamped like record(): max(0.0, r), inlined
                rates = [(r if (r := (v - pv) / (t - pt)) > 0.0 else 0.0)
                         if t > pt else 0.0
                         for t, pt, v, pv in zip(times, (first[0], *times),
                                                 values, (first[1], *values))]
            self.rates.extend(rates)
        if self.p99s is not None:
            self.p99s.extend(
                (0.0,) * n if p99s is None
                else [0.0 if p is None else p for p in p99s])
        self._prev_value = values[-1]
        self._prev_time = times[-1]

    def rollup(self, window: Optional[int] = None,
               channel: str = "values") -> Dict[str, Any]:
        """min/max/mean/p99 over the last *window* samples (all when
        None) of one channel (``values``/``rates``/``p99s``)."""
        ring = getattr(self, channel, None)
        if ring is None:
            raise ValueError(
                f"{self.kind} series has no {channel!r} channel")
        vals = _sorted_window(ring, window)
        if not vals:
            return {"count": 0, "min": None, "max": None,
                    "mean": None, "p99": None}
        idx = min(len(vals) - 1, int(0.99 * (len(vals) - 1) + 0.5))
        return {
            "count": len(vals),
            "min": vals[0],
            "max": vals[-1],
            "mean": sum(vals) / len(vals),
            "p99": vals[idx],
        }

    @classmethod
    def from_dict(cls, entry: Mapping[str, Any]) -> "Series":
        """Rebuild one series from its :meth:`to_dict` form (rings are
        restored verbatim — rates are not re-derived; a short
        ``rates``/``p99s`` list is padded with 0.0)."""
        times = entry.get("times", [])
        values = entry.get("values", [])
        n = min(len(times), len(values))
        series = cls(entry["component"], entry["name"],
                     entry.get("labels", {}),
                     entry.get("kind", "gauge"),
                     capacity=max(2, len(times)))

        def restored(ring):  # an absent ring is left empty
            if ring is None:
                return ()
            return list(ring[:n]) + [0.0] * (n - len(ring))

        series.extend(times[:n], values[:n],
                      p99s=restored(entry.get("p99s")),
                      rates=restored(entry.get("rates")))
        series.evicted = entry.get("evicted", 0)
        return series

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "component": self.component,
            "name": self.name,
            "labels": self.labels,
            "kind": self.kind,
            "evicted": self.evicted,
            "times": list(self.times),
            "values": list(self.values),
            "rollup": self.rollup(),
        }
        if self.coalesce:
            out["coalesced"] = self.coalesced
        if self.rates is not None:
            out["rates"] = list(self.rates)
            out["rate_rollup"] = self.rollup(channel="rates")
        if self.p99s is not None:
            out["p99s"] = list(self.p99s)
        return out


class _Layout:
    """Where each instrument of one registry generation sits in a row.

    ``scalars`` (counters, gauges) are read through ``value`` and
    ``hists`` through ``count`` and their p99; ``cols`` holds one
    ``(column, scalar index, histogram index, kind)`` per instrument in
    registry order, one of the two indices None.  Registering an
    instrument only appends, so earlier rows stay a prefix of later
    ones.  ``last`` is the latest row's histogram counts and p99s: a
    p99 is a function of the buckets, which move only with the count.
    """

    __slots__ = ("scalars", "hists", "cols", "last")

    def __init__(self) -> None:
        self.scalars: List[Any] = []
        self.hists: List[Any] = []
        self.cols: List[Tuple[int, Optional[int], Optional[int], str]] = []
        self.last: Tuple[Sequence[int], Sequence[float]] = ((), ())

    def add(self, col: int, inst: Any, kind: str) -> None:
        if kind == "histogram":
            self.cols.append((col, None, len(self.hists), kind))
            self.hists.append(inst)
        else:
            self.cols.append((col, len(self.scalars), None, kind))
            self.scalars.append(inst)


class TelemetrySampler:
    """Samples a :class:`MetricsRegistry` on the simulated clock.

    One sampler serves one simulator; :meth:`start` attaches it so
    :meth:`Simulator.schedule` can wake it from dormancy.  ``interval``
    is simulated seconds between snapshots, ``capacity`` the per-series
    ring size.
    """

    def __init__(self, sim, *, interval: float = 0.25,
                 capacity: int = 512,
                 registry=None, policy=None, meter=None) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive "
                             f"(got {interval})")
        if capacity < 2:
            raise ValueError("series capacity must be at least 2")
        self.sim = sim
        self.registry = registry if registry is not None else sim.metrics
        self.interval = interval
        self.capacity = capacity
        self.samples = 0
        self.started = False
        #: column index per ``(component, name, labels)`` key, in the
        #: order keys were first sampled, and each column's key + kind
        self._columns: Dict[Tuple[str, str, LabelKey], int] = {}
        self._meta: List[Tuple[str, str, LabelKey, str]] = []
        #: one Series per column, None until its first fold
        self._series: List[Optional[Series]] = []
        #: unfolded ticks: ``(time, scalar values, histogram counts,
        #: histogram p99s, layout)``
        self._rows: List[Tuple[float, List[Any], List[int], List[float],
                               _Layout]] = []
        self._layout = _Layout()
        #: registry generation the layout belongs to, and how many of
        #: the registry's instruments it has taken in
        self._generation: Optional[int] = None
        self._laid_out = 0
        self._last_time: Optional[float] = None
        self._dormant = False
        self._tick_event = None
        self._stride = 1 if policy is None else policy.telemetry_stride
        self._coalesce = (False if policy is None
                          else policy.telemetry_coalesce)
        self._ticks = 0
        #: receives ``(now, rows)`` per recorded tick (streaming sidecar)
        self.sink: Optional[Any] = None
        #: OverheadMeter charged per sample, when attached
        self.meter = meter
        #: callables invoked with the sample time after each sample —
        #: the watchdog's evaluation hook (see obs/watchdog)
        self._listeners: List[Any] = []

    def add_listener(self, fn) -> None:
        """Call ``fn(now)`` after every sample (watchdog hook)."""
        self._listeners.append(fn)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Take a first sample now and self-schedule on the simulator."""
        if self.started:
            return
        self.started = True
        self.sim._sampler = self
        self.sample()
        self._arm()

    def stop(self) -> None:
        """Detach from the simulator; series are kept for export."""
        if not self.started:
            return
        self.started = False
        if self.sim._sampler is self:
            self.sim._sampler = None
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        self._dormant = False

    @property
    def dormant(self) -> bool:
        """True while no tick is scheduled (idle simulator)."""
        return self._dormant

    def _arm(self) -> None:
        self._dormant = False
        self._tick_event = self.sim.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        self._tick_event = None
        self._ticks += 1
        if self._ticks % self._stride == 0:
            self.sample()
        # re-arm only while the deployment still has work queued;
        # otherwise go dormant so `run()` with no horizon still drains.
        # Simulator.schedule() wakes us when new work arrives.
        if self.sim.pending() > 0:
            self._arm()
        else:
            self._dormant = True

    def wake(self) -> None:
        """Called by :meth:`Simulator.schedule` when work arrives while
        the sampler is dormant."""
        if self.started and self._dormant:
            self._arm()

    # -- sampling ----------------------------------------------------------

    def _lay_out(self) -> _Layout:
        """The layout for the registry's current instruments: a reset
        starts a new one; instruments registered since the last sample
        are appended, opening a column for every key not sampled
        before."""
        registry = self.registry
        if self._generation != registry.generation:
            self._layout = _Layout()
            self._generation = registry.generation
            self._laid_out = 0
        layout = self._layout
        for key, inst in islice(registry._instruments.items(),
                                self._laid_out, None):
            kind = getattr(inst, "kind", None)
            if kind is None:
                continue
            col = self._columns.get(key)
            if col is None:
                col = self._columns[key] = len(self._meta)
                self._meta.append((*key, kind))
                self._series.append(None)
            layout.add(col, inst, kind)
        self._laid_out = len(registry._instruments)
        return layout

    def _unsampled_at(self, layout: _Layout, now: float) -> _Layout:
        """The part of *layout* with no point at *now* yet: a repeated
        sample at one instant (the export flush) records only
        instruments that were not there the first time."""
        self._fold()
        fresh = _Layout()
        for col, si, hi, kind in layout.cols:
            series = self._series[col]
            if series is None or series.times[-1] != now:
                fresh.add(col, (layout.scalars[si] if hi is None
                                else layout.hists[hi]), kind)
        return fresh

    def sample(self) -> None:
        """Snapshot every registered instrument at the current sim time."""
        meter = self.meter
        t0 = meter.now() if meter is not None else 0.0
        now = self.sim.now
        self.samples += 1
        registry = self.registry
        layout = self._layout
        if (self._generation != registry.generation
                or self._laid_out != len(registry._instruments)):
            layout = self._lay_out()
        if now == self._last_time:
            layout = self._unsampled_at(layout, now)
        hists = layout.hists
        counts = [inst.count for inst in hists]
        p99s = [p99 if count == last else inst.quantile(0.99)
                for inst, count, last, p99 in zip(hists, counts,
                                                  *layout.last)]
        p99s += [inst.quantile(0.99) for inst in hists[len(p99s):]]
        layout.last = (counts, p99s)
        self._rows.append((now, [inst.value for inst in layout.scalars],
                           counts, p99s, layout))
        self._last_time = now
        sink = self.sink
        if sink is not None or len(self._rows) >= self.capacity:
            self._fold()
        if sink is not None:
            rows = []
            for col, _, _, kind in layout.cols:
                series = self._series[col]
                rows.append([
                    series.component, series.name, series.labels, kind,
                    series.values[-1],
                    series.rates[-1] if series.rates is not None else None,
                    series.p99s[-1] if series.p99s is not None else None,
                ])
            sink(now, rows)
        if meter is not None:
            meter.charge("sampler", t0)
        for fn in list(self._listeners):
            fn(now)

    def _fold(self) -> None:
        """Materialise every pending row into its Series, a column at a
        time per run of rows that share one layout (a column registered
        mid-run is in a suffix of the run's rows)."""
        pending, self._rows = self._rows, []
        for layout, group in groupby(pending, key=itemgetter(4)):
            rows = list(group)
            times = [row[0] for row in rows]
            s_lens = [len(row[1]) for row in rows]
            h_lens = [len(row[2]) for row in rows]
            scalars = list(zip_longest(*[row[1] for row in rows]))
            counts = list(zip_longest(*[row[2] for row in rows]))
            p99s = list(zip_longest(*[row[3] for row in rows]))
            for col, si, hi, _ in layout.cols:
                if hi is None:
                    start = bisect_right(s_lens, si)
                else:
                    start = bisect_right(h_lens, hi)
                if start == len(rows):
                    continue  # registered after these rows
                series = self._series[col]
                if series is None:
                    component, name, labels, kind = self._meta[col]
                    series = self._series[col] = Series(
                        component, name, dict(labels), kind,
                        self.capacity, coalesce=self._coalesce)
                if hi is None:
                    series.extend(times[start:], scalars[si][start:])
                else:
                    series.extend(times[start:], counts[hi][start:],
                                  p99s[hi][start:])

    # -- access / export ---------------------------------------------------

    def _materialised(self) -> List[Series]:
        self._fold()
        return [s for s in self._series if s is not None]

    def series(self, component: Optional[str] = None,
               name: Optional[str] = None) -> List[Series]:
        """All series matching the given component/name filters."""
        return [s for s in self._materialised()
                if (component is None or s.component == component)
                and (name is None or s.name == name)]

    def get(self, component: str, name: str,
            **labels: Any) -> Optional[Series]:
        key = (component, name,
               tuple(sorted((k, str(v)) for k, v in labels.items())))
        col = self._columns.get(key)
        if col is None:
            return None
        self._fold()
        return self._series[col]

    @property
    def evictions(self) -> int:
        """Total ring evictions across every series."""
        return sum(s.evicted for s in self._materialised())

    @property
    def coalesced(self) -> int:
        """Total samples collapsed into standing points across series."""
        return sum(s.coalesced for s in self._materialised())

    def peak(self, component: str, name: str) -> Optional[float]:
        """Largest sampled value across all series of one metric."""
        peaks = [max(s.values) for s in self.series(component, name)
                 if s.values]
        return max(peaks) if peaks else None

    def snapshot(self, *, lazy: bool = False) -> Dict[str, Any]:
        """JSON-stable dump (the ``timeseries_*.json`` sidecar body).

        Decimation/coalescing stats appear only when a policy enables
        them; the default shape is unchanged.  With *lazy* the
        ``series`` entry is a generator of one series dict at a time,
        for writers that stream the document instead of holding it.
        """
        ordered = sorted(self._materialised(), key=lambda s: s.key)
        series = (s.to_dict() for s in ordered)
        snap: Dict[str, Any] = {
            "enabled": True,
            "interval": self.interval,
            "capacity": self.capacity,
            "samples": self.samples,
            "evictions": self.evictions,
            "series": series if lazy else list(series),
        }
        if self._stride != 1 or self._coalesce:
            snap["stride"] = self._stride
            snap["coalesced"] = self.coalesced
        return snap


def load_timeseries(payload: Mapping[str, Any]) -> List[Series]:
    """Rebuild :class:`Series` objects from a snapshot/sidecar dict, so
    the dashboard renders archived runs exactly like live ones."""
    return [Series.from_dict(entry) for entry in
            payload.get("series", [])]
