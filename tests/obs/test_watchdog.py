"""Tests for the anomaly watchdog (repro.obs.watchdog)."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm.simulator import Simulator
from repro.obs.slo import SloMonitor
from repro.obs.watchdog import DEFAULT_DETECTORS, Watchdog


def _fake_link(label="a->sw0", queued=0, transmitted=0, drops=0):
    stats = SimpleNamespace(transmitted=transmitted,
                            dropped_overflow=drops, dropped_errors=0,
                            dropped_down=0)
    return SimpleNamespace(_label=label, queue_length=queued, stats=stats)


def _fake_player(name="p1", received=0, first_arrival=None,
                 stall_started=None, buffer=(), finished=False):
    return SimpleNamespace(
        name=name, finished=finished, _first_arrival=first_arrival,
        _stall_started=stall_started, _buffer=dict.fromkeys(buffer),
        _next_frame=0, stats=SimpleNamespace(frames_received=received))


def _network(*links):
    return SimpleNamespace(links={lk._label: lk for lk in links})


class TestStuckQueue:
    def test_fires_after_window_of_no_progress(self):
        sim = Simulator()
        link = _fake_link(queued=5)
        w = Watchdog(sim, network=_network(link), stuck_window=3)
        for i in range(5):
            w.tick(float(i))
        assert len(w.alerts) == 1
        alert = w.alerts[0]
        assert alert["detector"] == "stuck_queue"
        assert alert["severity"] == "error"
        assert alert["entity"] == "a->sw0"
        assert alert["queued"] == 5

    def test_progress_keeps_it_quiet(self):
        sim = Simulator()
        link = _fake_link(queued=5)
        w = Watchdog(sim, network=_network(link), stuck_window=3)
        for i in range(8):
            link.stats.transmitted += 1  # the queue is draining
            w.tick(float(i))
        assert w.alerts == []

    def test_episode_dedup_and_realert_after_recovery(self):
        sim = Simulator()
        link = _fake_link(queued=5)
        w = Watchdog(sim, network=_network(link), stuck_window=2)
        for i in range(8):
            w.tick(float(i))
        assert len(w.alerts) == 1  # persists, but alerts once
        assert w.active == ["stuck_queue:a->sw0"]
        # recovery: queue drains, episode clears
        link.queue_length = 0
        for i in range(8, 12):
            w.tick(float(i))
        assert w.active == []
        # second episode alerts again
        link.queue_length = 7
        for i in range(12, 18):
            w.tick(float(i))
        assert len(w.alerts) == 2


class TestRisingDropRate:
    def test_fires_on_strictly_climbing_drops(self):
        sim = Simulator()
        link = _fake_link()
        w = Watchdog(sim, network=_network(link), drop_window=3)
        for i in range(6):
            link.stats.dropped_overflow += 2
            link.stats.transmitted += 1  # not stuck, just lossy
            w.tick(float(i))
        kinds = {a["detector"] for a in w.alerts}
        assert kinds == {"rising_drop_rate"}
        assert w.alerts[0]["severity"] == "warning"

    def test_flat_drops_stay_quiet(self):
        sim = Simulator()
        link = _fake_link(drops=100)
        w = Watchdog(sim, network=_network(link), drop_window=3)
        for i in range(6):
            link.stats.transmitted += 1
            w.tick(float(i))
        assert w.alerts == []


class TestSilentStream:
    def test_started_then_silent_stream_fires(self):
        sim = Simulator()
        player = _fake_player(received=10, first_arrival=1.0,
                              stall_started=2.0)
        sim.register_entity("player", player)
        w = Watchdog(sim, silent_window=3, stall_limit=100.0)
        for i in range(6):
            w.tick(float(i))
        assert any(a["detector"] == "silent_stream" for a in w.alerts)

    def test_never_started_stream_is_ignored(self):
        sim = Simulator()
        sim.register_entity("player", _fake_player(received=0))
        w = Watchdog(sim, silent_window=3)
        for i in range(6):
            w.tick(float(i))
        assert w.alerts == []

    def test_finished_stream_is_ignored(self):
        sim = Simulator()
        sim.register_entity("player", _fake_player(
            received=10, first_arrival=1.0, finished=True))
        w = Watchdog(sim, silent_window=3)
        for i in range(6):
            w.tick(float(i))
        assert w.alerts == []


class TestClockStall:
    def test_fires_past_the_stall_limit(self):
        sim = Simulator()
        sim.register_entity("player", _fake_player(
            received=5, first_arrival=0.0, stall_started=0.0,
            buffer=(3, 4)))
        w = Watchdog(sim, stall_limit=2.0, silent_window=99)
        w.tick(1.0)
        assert w.alerts == []  # stalled only 1 s
        w.tick(3.0)
        stalls = [a for a in w.alerts if a["detector"] == "clock_stall"]
        assert len(stalls) == 1
        assert stalls[0]["stalled_for"] == 3.0


class TestLedgerDivergence:
    def test_divergence_alerts_once_per_episode(self):
        from repro.obs.accounting import Ledger
        sim = Simulator(ledger=Ledger())
        sim.metrics.counter("vc", "pdus_sent", vc="1").inc(5)
        sim.ledger.account("vc", "1").sent(units=3)
        w = Watchdog(sim)
        for i in range(4):
            w.tick(float(i))
        diverged = [a for a in w.alerts
                    if a["detector"] == "ledger_divergence"]
        assert len(diverged) == 1
        assert diverged[0]["entity"] == "vc:1"


class TestPlumbing:
    def test_alerts_land_in_the_flight_recorder(self):
        sim = Simulator()
        link = _fake_link(queued=5)
        w = Watchdog(sim, network=_network(link), stuck_window=2)
        for i in range(5):
            w.tick(float(i))
        events = sim.recorder.by_kind("stuck_queue")
        assert events
        assert events[0].component == "watchdog"
        assert events[0].severity == "error"

    def test_same_instant_tick_is_ignored(self):
        sim = Simulator()
        link = _fake_link(queued=5)
        w = Watchdog(sim, network=_network(link), stuck_window=2)
        for i in range(3):
            w.tick(float(i))
            w.tick(float(i))  # snapshot() flush re-sample
        # only 3 observations: not enough for a window of 2 + 1... yet
        _, hist = w._link_state["a->sw0"]
        assert len(hist) == 3

    def test_attach_registers_a_sampler_listener(self):
        from repro.obs.timeseries import TelemetrySampler
        sim = Simulator()
        sampler = TelemetrySampler(sim)
        w = Watchdog(sim).attach(sampler)
        assert w.tick in sampler._listeners

    def test_snapshot_shape(self):
        sim = Simulator()
        w = Watchdog(sim)
        snap = w.snapshot()
        assert snap["enabled"]
        assert len(snap["detectors"]) == len(DEFAULT_DETECTORS)
        assert snap["alerts"] == [] and snap["active"] == []


class TestSloEscalation:
    def _clean_report(self):
        from repro.obs.metrics import MetricsRegistry
        reg = MetricsRegistry()
        reg.counter("link", "drops_total", link="l").inc(0)
        return reg.report()

    def test_alerts_demote_ok_to_degraded(self):
        report = self._clean_report()
        monitor = SloMonitor()
        clean = monitor.summary(report, watchdog_alerts=[])
        assert clean["verdict"] == "ok"
        assert clean["watchdog_alerts"] == 0
        alerted = monitor.summary(
            report, watchdog_alerts=[{"detector": "stuck_queue"}])
        assert alerted["verdict"] == "degraded"
        assert alerted["pass"] is True  # degraded, never failed
        assert alerted["watchdog_alerts"] == 1

    def test_default_path_is_unchanged(self):
        summary = SloMonitor().summary(self._clean_report())
        assert summary["verdict"] == "ok"
        assert "watchdog_alerts" not in summary


class TestLinkDetectorsMatchTheirDefinition:
    """The link detectors reject most windows from their two ends; what
    they report must equal the plain definitions over the window."""

    @staticmethod
    def stuck(hist, n):
        window = hist[-(n + 1):]
        queued = [s[0] for s in window]
        return (len(hist) > n and queued[0] > 0 and len(set(queued)) == 1
                and window[-1][1] == window[0][1])

    @staticmethod
    def rising(hist, n):
        drops = [s[2] for s in hist[-(n + 1):]]
        return len(hist) > n and all(b > a for a, b in zip(drops, drops[1:]))

    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                      st.integers(0, 3)), max_size=10),
           n=st.integers(0, 4))
    def test_same_verdicts(self, samples, n):
        link = _fake_link()
        w = Watchdog(Simulator(), network=_network(link), stuck_window=n,
                     drop_window=n)
        for i, (queued, sent, drops) in enumerate(samples):
            link.queue_length = queued
            link.stats.transmitted = sent
            link.stats.dropped_overflow = drops
            w._observe()
            hist = [tuple(s) for s in w._link_state["a->sw0"][1]]
            detectors = {d.name: d for d in DEFAULT_DETECTORS}
            assert bool(detectors["stuck_queue"].check(w, float(i))) == \
                self.stuck(hist, n)
            assert bool(detectors["rising_drop_rate"].check(w, float(i))) \
                == self.rising(hist, n)
