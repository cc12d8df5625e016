"""Per-layer spans for the traced run, recorded from outside the program.

:func:`install` wraps public entry points of each layer of ``repro``
with a timing span.  A span's *self time* is its duration minus the
time its child spans took.  Self time is billed to the phase (setup,
run, dump) the span ran in, so in each phase the self times of all
groups plus an ``other`` remainder sum to that phase's traced wall.
The program itself is not changed: the wrappers replace class
attributes and module bindings in the running process only, and only
in a process started for a traced repetition.

The groups, named after the ``src/repro`` packages:

``atm``            the event loop (``Simulator.run``/``step``) and all
                   it runs that no other span claims: link, switch and
                   cell-train handling, and the glue callbacks of the
                   sites
``util.crc``       ``crc32_aal5``
``util.bitstream`` ``BitWriter``/``BitReader`` reads and writes
``media.produce``  ``MediaProductionCenter.produce_*``
``mheg.codec``     ``MhegCodec.encode``/``decode``
``database``       the database facade, content server, indexes, store
``transport``      ``Connection.send``/``handle_pdu``, ``RpcClient``
                   calls, and the wire codec
``streaming``      ``VideoPlayer.on_pdu``, ``VideoStreamSender.start``
``obs.sample``     ``TelemetrySampler.sample`` (watchdog included)
``obs.export``     ``dump_observability``
``faults``         ``FaultInjector.attach`` and the injections it
                   schedules
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter


class Recorder:
    """Accumulates self time per phase and span group, and calls and
    bytes per span group."""

    def __init__(self) -> None:
        #: the phase spans are billed to; ``repetition.execute`` moves
        #: it along
        self.phase = "setup"
        self.self_s: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.calls: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)
        #: one cell per open span: time taken by its child spans
        self._stack: List[List[float]] = []

    def wrap(self, group: str, fn: Callable[..., Any],
             size: Optional[Callable[[tuple, Any], int]] = None
             ) -> Callable[..., Any]:
        stack = self._stack
        calls = self.calls
        nbytes = self.bytes

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            stack.append(children)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - t0
                stack.pop()
                self.self_s[self.phase][group] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
                calls[group] += 1
            if size is not None:
                nbytes[group] += size(args, result)
            return result
        return span

    def report(self) -> Dict[str, Dict[str, Any]]:
        return {"self_s": {phase: dict(groups)
                           for phase, groups in self.self_s.items()},
                "calls": dict(self.calls), "bytes": dict(self.bytes)}


def _public_methods(cls: type) -> List[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(value)]


def _wrap_method(rec: Recorder, group: str, cls: type, name: str,
                 size: Optional[Callable[[tuple, Any], int]] = None) -> None:
    setattr(cls, name, rec.wrap(group, getattr(cls, name), size))


def _wrap_function(rec: Recorder, group: str, module: Any, name: str,
                   size: Optional[Callable[[tuple, Any], int]] = None
                   ) -> None:
    """Replace a module-level function everywhere it is bound: in its
    own module and in every loaded ``repro`` module that imported it
    by name."""
    original = getattr(module, name)
    wrapped = rec.wrap(group, original, size)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith(
                "repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install() -> Recorder:
    """Wrap every layer's entry points; returns the recorder."""
    from repro.atm.simulator import Simulator
    from repro.database import api, contentserver, index, store
    from repro.faults.injector import FaultInjector
    from repro.media.production import MediaProductionCenter
    from repro.mheg.codec import MhegCodec
    from repro.obs import export
    from repro.obs.timeseries import TelemetrySampler
    from repro.streaming import VideoPlayer, VideoStreamSender
    from repro.transport import wire
    from repro.transport.connection import Connection
    from repro.transport.rpc import RpcClient
    from repro.util import bitstream, crc

    rec = Recorder()
    for name in ("run", "step"):
        _wrap_method(rec, "atm", Simulator, name)
    _wrap_function(rec, "util.crc", crc, "crc32_aal5",
                   lambda args, _r: len(args[0]))
    for cls in (bitstream.BitWriter, bitstream.BitReader):
        for name in _public_methods(cls):
            _wrap_method(rec, "util.bitstream", cls, name)
    for name in _public_methods(MediaProductionCenter):
        if name.startswith("produce_"):
            _wrap_method(rec, "media.produce", MediaProductionCenter, name,
                         lambda _a, media: len(media.data))
    _wrap_method(rec, "mheg.codec", MhegCodec, "encode",
                 lambda _a, blob: len(blob))
    _wrap_method(rec, "mheg.codec", MhegCodec, "decode",
                 lambda args, _r: len(args[1]))
    for cls in (api.CoursewareDatabase, contentserver.ContentServer,
                index.KeywordTree, index.InvertedIndex, store.ObjectStore):
        for name in _public_methods(cls):
            _wrap_method(rec, "database", cls, name)
    for name in ("send", "handle_pdu"):
        _wrap_method(rec, "transport", Connection, name)
    for name in ("call", "open_stream"):
        _wrap_method(rec, "transport", RpcClient, name)
    for name in ("dump_value", "load_value"):
        _wrap_function(rec, "transport", wire, name)
    _wrap_method(rec, "streaming", VideoPlayer, "on_pdu")
    _wrap_method(rec, "streaming", VideoStreamSender, "start")
    _wrap_method(rec, "obs.sample", TelemetrySampler, "sample")
    _wrap_function(rec, "obs.export", export, "dump_observability")
    _wrap_method(rec, "faults", FaultInjector, "attach")
    # injections are simulator callbacks: the loop enters the faults
    # layer through this method, which the plan schedules per fault
    _wrap_method(rec, "faults", FaultInjector, "_inject")
    return rec
