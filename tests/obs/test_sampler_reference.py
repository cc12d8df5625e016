"""The columnar sampler against the per-series sampler it replaced.

``ReferenceSampler`` is the row-at-a-time design: every tick walks each
instrument through :meth:`Series.record`.  It is the oracle for
:class:`TelemetrySampler`, which stores one value row per tick and
materialises series lazily — every reader must see the same thing
under every policy.  The digests at the bottom were recorded from the
per-series sampler on the named scenarios and pin the whole pipeline.
"""

import hashlib
import json
import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scenarios import build
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampling import SamplingPolicy, scaled_policy
from repro.obs.timeseries import Series, TelemetrySampler


class ReferenceSampler:
    """Per-series sampling: one :meth:`Series.record` per instrument
    per tick (scheduling left out: ``_tick`` applies only the stride)."""

    def __init__(self, sim, *, interval=0.25, capacity=512,
                 registry=None, policy=None):
        self.sim = sim
        self.registry = registry if registry is not None else sim.metrics
        self.interval = interval
        self.capacity = capacity
        self.samples = 0
        self._series = {}
        self._stride = 1 if policy is None else policy.telemetry_stride
        self._coalesce = (False if policy is None
                          else policy.telemetry_coalesce)
        self._ticks = 0
        self.sink = None

    def _tick(self):
        self._ticks += 1
        if self._ticks % self._stride == 0:
            self.sample()

    def sample(self):
        now = self.sim.now
        self.samples += 1
        sink = self.sink
        rows = [] if sink is not None else None
        for (component, name, labels), inst in \
                self.registry._instruments.items():
            kind = getattr(inst, "kind", None)
            if kind is None:
                continue
            key = (component, name, labels)
            series = self._series.get(key)
            if series is None:
                series = Series(component, name, dict(labels), kind,
                                self.capacity, coalesce=self._coalesce)
                self._series[key] = series
            elif series.times and series.times[-1] == now:
                continue  # snapshot() flush at an existing tick time
            if kind in ("counter", "gauge"):
                series.record(now, inst.value)
            else:
                series.record(now, inst.count, p99=inst.quantile(0.99))
            if rows is not None:
                rows.append([
                    component, name, series.labels, kind,
                    series.values[-1],
                    series.rates[-1] if series.rates is not None else None,
                    series.p99s[-1] if series.p99s is not None else None,
                ])
        if sink is not None:
            sink(now, rows)

    def series(self, component=None, name=None):
        return [s for s in self._series.values()
                if (component is None or s.component == component)
                and (name is None or s.name == name)]

    def get(self, component, name, **labels):
        key = (component, name,
               tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self._series.get(key)

    @property
    def evictions(self):
        return sum(s.evicted for s in self._series.values())

    @property
    def coalesced(self):
        return sum(s.coalesced for s in self._series.values())

    def peak(self, component, name):
        peaks = [max(s.values) for s in self.series(component, name)
                 if s.values]
        return max(peaks) if peaks else None

    def snapshot(self):
        snap = {
            "enabled": True,
            "interval": self.interval,
            "capacity": self.capacity,
            "samples": self.samples,
            "evictions": self.evictions,
            "series": [s.to_dict() for s in sorted(
                self._series.values(), key=lambda s: s.key)],
        }
        if self._stride != 1 or self._coalesce:
            snap["stride"] = self._stride
            snap["coalesced"] = self.coalesced
        return snap


class Clock:
    """The slice of a simulator a sampler reads: the time, the registry,
    and an empty queue (so ``_tick`` never re-arms)."""

    def __init__(self):
        self.now = 0.0
        self.metrics = MetricsRegistry()

    def pending(self):
        return 0


def dumped(obj):
    # json text, not ==: 1 == 1.0 would hide a changed value type
    return json.dumps(obj, sort_keys=True)


KINDS = ("counter", "gauge", "histogram")
NAMES = ("a", "b", "c")
LABELS = ("x", "y")

#: a tick or sample first moves the clock by its step (0: the same
#: instant again, as the export flush does)
steps = st.sampled_from([0.0, 0.25, 1.0])
ops = st.lists(st.one_of(
    st.tuples(st.just("new"), st.sampled_from(KINDS),
              st.sampled_from(NAMES), st.sampled_from(LABELS)),
    st.tuples(st.just("inc"), st.integers(0, 20), st.integers(-2, 8)),
    st.tuples(st.just("set"), st.integers(0, 20),
              st.sampled_from([0, 1, 1.0, 2.5, -3.0])),
    st.tuples(st.just("observe"), st.integers(0, 20),
              st.sampled_from([1e-6, 3e-5, 0.002, 0.5, 100.0])),
    st.just(("reset",)),
    st.tuples(st.just("sample"), steps),
    st.tuples(st.just("tick"), steps),
    st.just(("read",)),
), min_size=5, max_size=60)

#: a counter that falls between two samples, by a negative increment
#: or by a reset, must clamp its rate to 0
FALLING = [("inc", 0, 5), ("sample", 1.0), ("inc", 0, -2), ("sample", 1.0),
           ("reset",), ("new", "counter", "a", "x"), ("inc", 0, 1),
           ("sample", 1.0), ("inc", 0, -1), ("sample", 1.0)]


def pick(registry, i, kind):
    insts = [inst for inst in registry._instruments.values()
             if inst.kind == kind]
    return insts[i % len(insts)] if insts else None


@settings(max_examples=500, deadline=None)
@example(ops=FALLING, stride=1, coalesce=False, capacity=64,
         with_sink=False)
@example(ops=FALLING, stride=1, coalesce=False, capacity=64,
         with_sink=True)
@given(ops=ops, stride=st.sampled_from([1, 2, 3]), coalesce=st.booleans(),
       capacity=st.sampled_from([2, 3, 5, 64]), with_sink=st.booleans())
def test_columnar_sampler_matches_reference(ops, stride, coalesce,
                                            capacity, with_sink):
    clock = Clock()
    registry = clock.metrics
    policy = SamplingPolicy(telemetry_stride=stride,
                            telemetry_coalesce=coalesce)
    ref = ReferenceSampler(clock, interval=0.25, capacity=capacity,
                           policy=policy)
    new = TelemetrySampler(clock, interval=0.25, capacity=capacity,
                           policy=policy)
    for kind, name in zip(KINDS, NAMES):  # more join via "new" ops
        getattr(registry, kind)("c", name, link="x")
    ref_rows, new_rows = [], []
    if with_sink:
        ref.sink = lambda now, rows: ref_rows.append(dumped([now, rows]))
        new.sink = lambda now, rows: new_rows.append(dumped([now, rows]))
    for op in ops:
        if op[0] == "new":
            _, kind, name, label = op
            try:
                getattr(registry, kind)("c", name, link=label)
            except TypeError:
                pass  # the key is live under another kind
        elif op[0] in ("inc", "set", "observe"):
            kind = {"inc": "counter", "set": "gauge",
                    "observe": "histogram"}[op[0]]
            inst = pick(registry, op[1], kind)
            if inst is not None:
                getattr(inst, op[0])(op[2])
        elif op[0] == "reset":
            registry.reset()
        elif op[0] == "sample":
            clock.now += op[1]
            ref.sample()
            new.sample()
        elif op[0] == "tick":
            clock.now += op[1]
            ref._tick()
            new._tick()
        else:  # a mid-run read folds pending rows
            assert dumped([s.to_dict() for s in new.series()]) == \
                dumped([s.to_dict() for s in ref.series()])
    # the flush every exporter takes, then every reader
    ref.sample()
    new.sample()
    assert new_rows == ref_rows
    assert dumped(new.snapshot()) == dumped(ref.snapshot())
    assert [s.key for s in new.series()] == [s.key for s in ref.series()]
    assert new.evictions == ref.evictions
    assert new.coalesced == ref.coalesced
    assert new.samples == ref.samples
    for name in NAMES:
        assert dumped(new.peak("c", name)) == dumped(ref.peak("c", name))
        for label in LABELS:
            a, b = new.get("c", name, link=label), \
                ref.get("c", name, link=label)
            assert (a is None) == (b is None)
            if a is not None:
                assert dumped(a.to_dict()) == dumped(b.to_dict())
                assert len(a) <= capacity


def test_a_read_folds_only_new_rows():
    clock = Clock()
    counter = clock.metrics.counter("c", "n")
    sampler = TelemetrySampler(clock, interval=1.0, capacity=64)
    for i in range(10):
        counter.inc(i)
        sampler.sample()
        clock.now += 1.0
    first = sampler.get("c", "n")
    assert len(first) == 10 and not sampler._rows
    sampler.sample()
    assert len(sampler._rows) == 1  # pending until read
    assert sampler.get("c", "n") is first and len(first) == 11
    assert not sampler._rows


def test_pending_rows_are_bounded_by_capacity():
    clock = Clock()
    clock.metrics.gauge("c", "level").set(1.0)
    sampler = TelemetrySampler(clock, interval=1.0, capacity=4)
    for _ in range(11):
        sampler.sample()
        clock.now += 1.0
        assert len(sampler._rows) < sampler.capacity
    assert len(sampler.get("c", "level")) == 4
    assert sampler.evictions == 7


# -- digests recorded from the per-series sampler ----------------------------

#: SHA-256 of the sorted-key JSON of: ``sampler.snapshot()`` after
#: ``run_to_horizon()``; the snapshot again after the stream's close
#: (which flushes one more sample); the parsed ``telemetry`` records of
#: the streamed ``obs_*.jsonl``.
DIGESTS = {
    ("classroom", None): (
        "99f14bd8c16f2c1ae6b5bee87364103e1fb12f26608ab89da140b790921693f2",
        "935b8ed560dc50831b00c36268d604a2cba08bc6484899dbba06ca1169534db5",
        "6d901933f17f1bf91f353eae4f758afa371b62a08ba7ddd6033593448eaf1bf6"),
    ("classroom", 0.1): (
        "d11da0119d0b7312a89affd46fe2f835e54a23736c14ce89caf8baea80945081",
        "1cee0929d233677bd1724ec2cf55683ad9a1a1c685f53d91e83739bbaadc5a39",
        "1676c44fb8a18b890abca3cd4f1b2457cb0a167ebfa39c65933022b656c83904"),
    ("faulty-classroom", None): (
        "8a92429a1f42a339c068a47647f103283d60a698dda9f5cf8b085033fb3d5df0",
        "a31c616f2dde8485a4eadb5fca0938feeb17ee8bc7d099793ba404ba21f1fa35",
        "6dd1b97b139b3eb3209d90070f4ad58185ff114e908c252080251ce5a082f2d4"),
    ("faulty-classroom", 0.1): (
        "ccf6d8eea19a7e0d7bfd000ec960412addae6fc2874d9d703bb93d1fb3613006",
        "ecf025e5564629d6d110df838ac97cf3896a6bc82abfa151660cdf1bafd6fda0",
        "35f7e0943df55f29e187b96b452ef083ce9b25bef386977ad943161fc9af71bf"),
}


def sha(obj):
    return hashlib.sha256(dumped(obj).encode()).hexdigest()


def test_scenario_telemetry_digests(tmp_path):
    for (scenario, sample), expected in DIGESTS.items():
        path = os.path.join(tmp_path, f"obs_{scenario}_{sample}.jsonl")
        run = build(scenario, stream=path,
                    sampling=None if sample is None
                    else scaled_policy(sample))
        run.run_to_horizon()
        sampler = run.mits.sampler
        snapshot = sha(sampler.snapshot())
        run.mits.sink.close()
        flushed = sha(sampler.snapshot())
        with open(path) as fh:
            ticks = [rec for rec in map(json.loads, fh)
                     if rec["record"] == "telemetry"]
        assert (snapshot, flushed, sha(ticks)) == expected, \
            (scenario, sample)
