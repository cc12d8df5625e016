"""Tests for the discrete-event kernel."""

import pytest

from repro.atm.simulator import Event, Simulator, run_all


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_among_equal_timestamps(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]
        # still FIFO when the heap reshuffles around other timestamps
        order.clear()
        times = [3.0, 1.0, 2.0, 1.0, 3.0, 2.0, 1.0, 3.0, 2.0, 1.0] * 3
        for i, t in enumerate(times):
            sim.schedule_at(10.0 + t, order.append, (t, i))
        sim.run()
        assert order == sorted(order)

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, 1)
        end = sim.run(until=1.0)
        assert fired == [] and end == 1.0 and sim.now == 1.0
        sim.run(until=10.0)
        assert fired == [1]

    def test_run_until_advances_clock_even_when_idle(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, 1)
        ev.cancel()
        sim.run()
        assert fired == []

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, order.append, "second")

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        seen = []
        sim.schedule_at(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_step_runs_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]


class TestMaxEventsClockRegression:
    """run(until, max_events) must not jump the clock over queued
    events: doing so made a follow-up run() execute them with time
    moving backwards."""

    def test_clock_stays_at_last_executed_event(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run(until=10.0, max_events=1)
        assert sim.now == 1.0  # not fast-forwarded to 10.0

    def test_time_never_moves_backwards_across_runs(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: seen.append(sim.now))
        sim.run(until=10.0, max_events=1)
        sim.run(until=10.0)
        assert seen == [1.0, 2.0, 3.0]
        assert seen == sorted(seen)
        assert sim.now == 10.0

    def test_fast_forward_when_remaining_events_beyond_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(50.0, lambda: None)
        # budget stops us after the 1.0 event; the only survivor is at
        # 50.0 > until, so composing runs may still advance to until
        sim.run(until=10.0, max_events=1)
        assert sim.now == 10.0

    def test_fast_forward_ignores_cancelled_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        ev = sim.schedule(5.0, lambda: None)
        ev.cancel()
        sim.run(until=10.0, max_events=1)
        assert sim.now == 10.0


class TestProcess:
    def test_process_yields_delays(self):
        sim = Simulator()
        times = []

        def proc():
            times.append(sim.now)
            yield 1.0
            times.append(sim.now)
            yield 2.0
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [0.0, 1.0, 3.0]

    def test_process_kill_stops_it(self):
        sim = Simulator()
        ticks = []

        def proc():
            while True:
                ticks.append(sim.now)
                yield 1.0

        p = sim.spawn(proc())
        sim.run(until=2.5)
        p.kill()
        sim.run(until=10.0)
        assert p.alive is False
        assert len(ticks) == 3  # t=0, 1, 2

    def test_process_finishes_naturally(self):
        sim = Simulator()

        def proc():
            yield 1.0

        p = sim.spawn(proc())
        assert p.alive
        sim.run()
        assert not p.alive

    def test_run_all_helper(self):
        sim = Simulator()
        out = []

        def make(tag):
            def proc():
                yield tag * 1.0
                out.append(tag)
            return proc()

        run_all(sim, [make(2), make(1)])
        assert out == [1, 2]


class TestStep:
    def test_step_sets_current_seq(self):
        """A step()-driven callback sees its own seq, so a continuation
        it schedules with reschedule_at inherits the right identity."""
        sim = Simulator()
        seen = []
        evs = [sim.schedule(1.0, lambda: seen.append(sim.current_seq))
               for _ in range(3)]
        sim.run(max_events=1)
        assert sim.step() is True
        assert sim.step() is True
        assert seen == [ev.seq for ev in evs]

    def test_step_skips_cancelled_head(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1).cancel()
        sim.schedule(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [2] and sim.now == 2.0
        assert sim.step() is False


class TestHeapOrder:
    def test_shared_seq_continuations_keep_heap_order(self):
        """Entries sharing (time, seq) compare equal, so the heap, not
        insertion order, decides between them.  This scenario pops them
        in reverse; a fresh tiebreaker would make it [0, 1]."""
        sim = Simulator()
        order = []

        def origin():
            for i in range(2):
                sim.reschedule_at(2.0, sim.current_seq, order.append, i)

        sim.schedule(1.0, origin)
        sim.schedule(1.5, lambda: None)
        sim.schedule(1.5, lambda: None)
        sim.run()
        assert order == [1, 0]

    def test_reschedule_at_returns_event_with_inherited_seq(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        cont = sim.reschedule_at(2.0, ev.seq, lambda: None)
        assert (cont.time, cont.seq) == (2.0, ev.seq)
        assert cont == Event(2.0, ev.seq, print)  # equality is (time, seq)

    def test_next_event_time_skips_cancelled_head(self):
        sim = Simulator()
        a = sim.schedule(1.0, lambda: None)
        b = sim.schedule(2.0, lambda: None)
        c = sim.schedule(3.0, lambda: None)
        assert sim._next_event_time() == 1.0
        a.cancel()
        b.cancel()
        assert sim.pending() == 1
        assert sim._next_event_time() == 3.0
        assert len(sim._queue) == 1  # cancelled head entries discarded
        c.cancel()
        assert sim.pending() == 0
        assert sim._next_event_time() is None
        assert sim.run(until=5.0) == 5.0
