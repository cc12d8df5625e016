"""Tests for the RPC layer."""

import pytest

from repro.atm import Simulator, TrafficContract, ServiceCategory
from repro.atm.topology import star_campus
from repro.transport.connection import connect_pair
from repro.transport.rpc import RpcClient, RpcError, RpcServer, SharedProcessor


def setup_rpc(service_time=0.0, buffer_cells=1024):
    sim = Simulator()
    net, _ = star_campus(sim, ["client", "server"], buffer_cells=buffer_cells)
    contract = TrafficContract(ServiceCategory.UBR, pcr=366e3)
    cc, cs = connect_pair(sim, net, "client", "server", contract)
    client = RpcClient(sim, cc)
    server = RpcServer(sim, cs, service_time=service_time)
    return sim, client, server


class TestCalls:
    def test_simple_call(self):
        sim, client, server = setup_rpc()
        server.register("add", lambda p: p["a"] + p["b"])
        results = []
        client.call("add", {"a": 2, "b": 3}, on_result=results.append)
        sim.run(until=1.0)
        assert results == [5]

    def test_concurrent_calls_correlated(self):
        sim, client, server = setup_rpc()
        server.register("echo", lambda p: p)
        results = {}
        for i in range(10):
            client.call("echo", i, on_result=lambda r, i=i: results.__setitem__(i, r))
        sim.run(until=2.0)
        assert results == {i: i for i in range(10)}

    def test_unknown_method_errors(self):
        sim, client, server = setup_rpc()
        errors = []
        client.call("nope", on_error=errors.append)
        sim.run(until=1.0)
        assert len(errors) == 1
        assert "unknown method" in errors[0].reason

    def test_handler_exception_becomes_error(self):
        sim, client, server = setup_rpc()
        def boom(p):
            raise ValueError("kaput")
        server.register("boom", boom)
        errors = []
        client.call("boom", on_error=errors.append)
        sim.run(until=1.0)
        assert "kaput" in errors[0].reason

    def test_rpc_error_reason_preserved(self):
        sim, client, server = setup_rpc()
        def denied(p):
            raise RpcError("login", "bad student number")
        server.register("login", denied)
        errors = []
        client.call("login", on_error=errors.append)
        sim.run(until=1.0)
        assert errors[0].reason == "bad student number"

    def test_timeout_fires_when_no_response(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["client", "server"])
        contract = TrafficContract(ServiceCategory.UBR, pcr=366e3)
        cc, cs = connect_pair(sim, net, "client", "server", contract)
        client = RpcClient(sim, cc, default_timeout=0.5)
        # no server wired on cs: requests vanish into an unhandled sink
        errors = []
        pending = client.call("void", on_error=errors.append)
        sim.run(until=2.0)
        assert pending.done
        assert errors and errors[0].reason == "timed out"

    def test_service_time_delays_response(self):
        sim, client, server = setup_rpc(service_time=0.2)
        server.register("slow", lambda p: "ok")
        done_at = []
        client.call("slow", on_result=lambda r: done_at.append(sim.now))
        sim.run(until=2.0)
        assert done_at[0] >= 0.2

    def test_pending_call_records_result(self):
        sim, client, server = setup_rpc()
        server.register("answer", lambda p: 42)
        pending = client.call("answer")
        sim.run(until=1.0)
        assert pending.done and pending.result == 42 and pending.error is None

    def test_large_response_roundtrips(self):
        sim, client, server = setup_rpc()
        blob = bytes(range(256)) * 512  # 128 KB
        server.register("blob", lambda p: blob)
        results = []
        client.call("blob", on_result=results.append)
        sim.run(until=10.0)
        assert results == [blob]


class TestStreams:
    def test_stream_chunks_arrive_in_order(self):
        sim, client, server = setup_rpc()
        chunks = [bytes([i]) * 5000 for i in range(6)]
        server.register_stream("video", lambda p: chunks)
        done = []
        rx = client.open_stream("video", on_end=done.append)
        sim.run(until=10.0)
        assert rx.finished
        assert rx.data == b"".join(chunks)
        assert done == [rx]

    def test_stream_respects_chunk_size(self):
        sim, client, server = setup_rpc()
        server.chunk_size = 1000
        server.register_stream("clip", lambda p: [bytes(4500)])
        rx = client.open_stream("clip")
        sim.run(until=10.0)
        assert rx.finished
        assert len(rx.data) == 4500
        assert all(len(c) <= 1000 for c in rx.chunks)

    def test_stream_timing_recorded(self):
        sim, client, server = setup_rpc()
        server.register_stream("clip", lambda p: [bytes(100)] * 3)
        rx = client.open_stream("clip")
        sim.run(until=10.0)
        assert rx.first_chunk_at is not None
        assert rx.finished_at >= rx.first_chunk_at

    def test_stream_handler_error(self):
        sim, client, server = setup_rpc()
        def bad(p):
            raise RuntimeError("no such asset")
        server.register_stream("missing", bad)
        rx = client.open_stream("missing")
        sim.run(until=1.0)
        assert not rx.finished
        assert rx.chunks == []


class TestServerCloning:
    def test_clone_shares_registry(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["c1", "c2", "server"])
        contract = TrafficContract(ServiceCategory.UBR, pcr=366e3)
        cc1, cs1 = connect_pair(sim, net, "c1", "server", contract)
        cc2, cs2 = connect_pair(sim, net, "c2", "server", contract)
        server1 = RpcServer(sim, cs1)
        server1.register("hello", lambda p: f"hi {p}")
        server2 = server1.clone_for(cs2)
        r1, r2 = [], []
        RpcClient(sim, cc1).call("hello", "one", on_result=r1.append)
        RpcClient(sim, cc2).call("hello", "two", on_result=r2.append)
        sim.run(until=2.0)
        assert r1 == ["hi one"] and r2 == ["hi two"]


class TestReplyOnClosedConnection:
    """A request still queued on the shared CPU when its connection
    fails must not raise out of the simulator loop when it finishes."""

    def _queued_then_closed(self, register):
        sim, client, server = setup_rpc()
        server.processor = SharedProcessor(sim, service_time=0.5)
        register(server)
        client.call("echo", "hi", timeout=5.0)
        sim.run(until=0.1)  # request delivered, waiting on the CPU
        assert server.processor.jobs_done == 0
        server.connection.close()
        sim.run(until=2.0)  # the job finishes on the closed connection
        return sim, server

    def test_reply_dropped_and_recorded(self):
        sim, server = self._queued_then_closed(
            lambda s: s.register("echo", lambda p: p))
        assert server.requests_served == 1
        dropped = sim.recorder.by_kind("reply_dropped")
        assert [(e.component, e.attrs["message"]) for e in dropped] == [
            ("rpc", "RESPONSE")]
        assert dropped[0].attrs["conn"] == server.connection.name

    def test_stream_reply_dropped(self):
        sim, server = self._queued_then_closed(
            lambda s: s.register_stream("echo", lambda p: [b"x" * 10]))
        kinds = [e.attrs["message"]
                 for e in sim.recorder.by_kind("reply_dropped")]
        assert kinds == ["STREAM_DATA", "STREAM_END"]
