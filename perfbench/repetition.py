"""One repetition of a workload, in a process of its own.

``python3 perfbench/repetition.py`` reads one request from stdin —
``{"spec": ..., "obs": "on"|"bare", "trace": bool, "out_dir": ...}`` —
deploys one MITS system for the generated spec through the public API
only (``MitsSystem`` and its sites, ``Navigator``/``DatabaseClient``,
``VideoStreamSender``/``VideoPlayer``, ``FaultPlan``/``RandomFaults``),
drives the load to completion, and prints one JSON line: phase walls,
the reference-loop walls taken between phases, peak RSS, the simulated
outcome, the layer counters read back from the program and any
correctness violations.  With ``"trace": true`` it
also reports the per-layer spans recorded by ``layers.py``.

``src`` must be on ``PYTHONPATH``; ``run.py`` sets it.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.atm.qos import ServiceCategory, TrafficContract
from repro.authoring import (
    InteractiveDocument, Scene, SceneObject, Section, TimelineEntry,
)
from repro.core.system import MitsSystem
from repro.faults import (
    RESILIENT, FaultInjector, FaultPlan, RandomFaults, RecoveryPolicy,
)
from repro.media.video import VideoStream
from repro.navigator import CoursewarePresenter
from repro.obs import export
from repro.obs.audit import ConservationAuditor
from repro.streaming import VideoPlayer, VideoStreamSender

import layers
from run import percentile
from workloads import user_count

#: length of the short assets every deployment publishes (seconds)
ASSET_SECONDS = 1.0
#: observability settings of the two timed arms: "on" is what the
#: named scenarios run with (tracing plus MitsSystem's default
#: telemetry, watchdog and meter); "bare" switches all of it off
OBS = {
    "on": {"tracing": True},
    "bare": {"tracing": False, "telemetry_interval": None,
             "watchdog": False, "meter": False},
}
#: simulated-time cap on the run phase; the load drains long before
RUN_CAP_S = 600.0
#: iterations of the host-speed reference loop (19–24 ms on a 2-core
#: x86-64 host)
REFERENCE_LOOPS = 200_000


class Op:
    """One scripted request, from issue to reply."""

    __slots__ = ("issued", "done_at", "failed")

    def __init__(self, issued: float) -> None:
        self.issued = issued
        self.done_at: Optional[float] = None
        self.failed = False

    def complete(self, now: float) -> None:
        if self.done_at is None and not self.failed:
            self.done_at = now

    def fail(self) -> None:
        if self.done_at is None:
            self.failed = True

    @property
    def ok(self) -> bool:
        return self.done_at is not None


class Run:
    """A deployed system plus the bookkeeping of its scripted load."""

    def __init__(self, spec: Dict[str, Any], mits: Any) -> None:
        self.spec = spec
        self.mits = mits
        self.sim = mits.sim
        #: (host, navigator) per student, in registration order
        self.students: List[Any] = []
        self.requests: List[Op] = []
        self.streams: List[Dict[str, Any]] = []
        #: per library session, how many of its scripted requests have
        #: been issued; the rest is never issued when one of them never
        #: completes
        self.cursors: List[int] = []

    def request(self) -> Op:
        op = Op(self.sim.now)
        self.requests.append(op)
        return op

    def callbacks(self, op: Op, then: Optional[Callable[[], None]] = None,
                  result: Optional[Callable[[Any], None]] = None
                  ) -> Dict[str, Callable[..., None]]:
        """``on_result``/``on_error`` for an RPC that completes *op*;
        *result*, if given, consumes the reply first."""
        def done(reply: Any = None) -> None:
            if result is not None:
                result(reply)
            op.complete(self.sim.now)
            if then is not None:
                then()

        def failed(_error: Any = None) -> None:
            op.fail()
            if then is not None:
                then()
        return {"on_result": done, "on_error": failed}


def deploy(spec: Dict[str, Any], obs: str) -> Run:
    """Setup: media production, courseware compile and publish, and
    student registration, on a fresh ``MitsSystem``."""
    students = user_count(spec)
    extra = students - (1 if spec["topology"] == "star" else 3)
    mits = MitsSystem(topology=spec["topology"], extra_users=max(0, extra),
                      recovery=RESILIENT if spec["recovery"] == "resilient"
                      else RecoveryPolicy(), **OBS[obs])
    run = Run(spec, mits)
    assets = mits.produce_standard_assets("mits", seconds=ASSET_SECONDS)
    center = mits.production.center
    if spec["lecture"] is not None:
        mits.publish_media(center.produce_video(
            "lecture-video", seconds=spec["lecture"]["video_seconds"]))
    author = mits.add_author("author1", "mits-101", catalog=assets)
    courses = ["lecture"]
    if spec["library"] is not None:
        courses += spec["library"]["courses"]
    for cw in courses:
        scene = Scene(name=f"{cw}-scene", objects=[
            SceneObject(name="diagram", kind="image",
                        content_ref="mits-diagram"),
            SceneObject(name="notes", kind="text", content_ref="mits-notes",
                        position=(0, 300)),
            SceneObject(name="next", kind="choice", label="Next"),
        ])
        scene.timeline.add(TimelineEntry("diagram", 0.0))
        scene.timeline.add(TimelineEntry("notes", 0.5, 1.5))
        scene.behavior.when_selected("next", ("stop", "diagram"))
        course = InteractiveDocument(cw, title=f"Course {cw}")
        course.add_section(Section(name="intro", scenes=[scene]))
        mits.wait(author.publish_courseware(
            author.editor.compile_imd(course), courseware_id=cw,
            title=f"Course {cw}", program="telelearning",
            keywords=["courseware", cw]))
        mits.wait(author.publish_course(
            course_code=cw.upper(), name=f"Course {cw}",
            program="telelearning", courseware_id=cw))
    if spec["library"] is not None:
        for doc in spec["library"]["docs"]:
            ref = f"{doc['doc_id']}-content"
            if doc["kind"] == "image":
                media = center.produce_image(ref, width=64, height=48)
            else:
                media = center.produce_text(ref)
            mits.publish_media(media)
            mits.wait(author.publish_library_doc(
                doc_id=doc["doc_id"], title=doc["doc_id"],
                media_kind=doc["kind"], content_ref=ref,
                keywords=doc["keywords"]))
    registered: List[Any] = []
    for i in range(students):
        nav = mits.add_user(f"user{i + 1}").navigator
        nav.start()
        nav.register(f"Student {i + 1}", on_done=registered.append)
        run.students.append((f"user{i + 1}", nav))
    while len(registered) < students:
        if not mits.sim.step():
            raise RuntimeError("student registration did not complete")
    return run


def drive(run: Run) -> None:
    """Run phase: schedule the scripted load and run it to completion."""
    spec = run.spec
    sim = run.sim
    students = iter(run.students)
    if spec["lecture"] is not None:
        for student in spec["lecture"]["students"]:
            sim.schedule(student["enter_at"], _enter_lecture, run,
                         *next(students), student)
    if spec["library"] is not None:
        for session, ops in enumerate(spec["library"]["sessions"]):
            host, nav = next(students)
            # the classroom's presenter, which decodes the downloaded
            # courseware as a learning session does
            presenter = CoursewarePresenter(sim=sim, client=nav.client,
                                            name=f"library:{host}")
            run.cursors.append(0)
            _next_library_op(run, nav, presenter, session, ops, 0)
    if spec["faults"] is not None:
        _arm_faults(run, spec["faults"])
    sim.run(until=sim.now + RUN_CAP_S)


def _enter_lecture(run: Run, host: str, nav: Any,
                   student: Dict[str, Any]) -> None:
    mits = run.mits
    sim = run.sim
    entry = run.request()
    nav.enter_classroom("LECTURE", "lecture",
                        on_ready=lambda _s: entry.complete(sim.now))
    video = mits.database.db.content.get("lecture-video").data
    policy = mits.recovery
    player = VideoPlayer(sim, preroll=0.5,
                         frames_expected=VideoStream(video).frames,
                         name=f"lecture-{host}",
                         conceal_limit=policy.conceal_limit,
                         degrade_after_stalls=policy.degrade_after_stalls)
    stream = {"player": player, "entered": sim.now, "first_arrival": None}

    def on_pdu(payload: bytes, info: Any) -> None:
        if stream["first_arrival"] is None:
            stream["first_arrival"] = sim.now
        player.on_pdu(payload, info)

    contract = TrafficContract(ServiceCategory.UBR,
                               pcr=mits.spec.access_bps / 424)
    vc = mits.network.open_vc("database", host, contract, on_pdu)
    sender = VideoStreamSender(sim, vc, video, lead=0.25)
    player.on_degrade = sender.downgrade
    sender.start()
    run.streams.append(stream)
    number = nav.student["student_number"]
    every = student["resume_every"]
    for k in range(1, int(run.spec["lecture"]["video_seconds"] / every) + 1):
        sim.schedule(k * every, _save_resume, run, nav, number, k * every)


def _save_resume(run: Run, nav: Any, number: str, position: float) -> None:
    op = run.request()
    nav.client.save_resume(number, "lecture", position,
                           **run.callbacks(op))


def _next_library_op(run: Run, nav: Any, presenter: Any, session: int,
                     ops: List[Dict[str, Any]], index: int) -> None:
    """Closed loop: the next request leaves one think time after the
    previous one completed (or failed)."""
    if index >= len(ops):
        return
    op = ops[index]
    run.sim.schedule(op["think"], _issue_library_op, run, nav, presenter,
                     session, ops, index)


def _issue_library_op(run: Run, nav: Any, presenter: Any, session: int,
                      ops: List[Dict[str, Any]], index: int) -> None:
    spec_op = ops[index]
    kind, arg = spec_op["op"], spec_op.get("arg")
    op = run.request()
    run.cursors[session] = index + 1

    def then() -> None:
        _next_library_op(run, nav, presenter, session, ops, index + 1)
    cb = run.callbacks(op, then)
    client = nav.client
    number = nav.student["student_number"]
    if kind == "catalogue":
        getattr(client, arg)(**cb)
    elif kind == "keyword":
        client.GetDocByKeyword(arg, **cb)
    elif kind == "library_read":
        nav.read_document(arg, on_done=cb["on_result"])
    elif kind == "courseware":
        client.Get_Selected_Doc(arg, **run.callbacks(op, then,
                                                     presenter.load_blob))
    elif kind == "profile":
        client.update_profile(number, email=f"s{number}.{index}@mits",
                              **cb)
    elif kind == "resume":
        client.save_resume(number, arg, float(index), **cb)
    elif kind == "bookmark":
        client.add_bookmark(number, arg, f"ref-{index}", **cb)
    else:
        raise ValueError(f"unknown library operation {kind!r}")


def _arm_faults(run: Run, faults: Dict[str, Any]) -> None:
    now = run.sim.now
    plan = FaultPlan(name="perfbench-chaos", seed=faults["seed"],
                     random_faults=[
                         RandomFaults(kinds=(g["kind"],),
                                      targets=tuple(g["targets"]),
                                      window=(now + g["window"][0],
                                              now + g["window"][1]),
                                      **{k: v for k, v in g.items()
                                         if k not in ("kind", "targets",
                                                      "window")})
                         for g in faults["generators"]])
    run.mits.injector = FaultInjector(plan).attach(run.mits)


# -- what a repetition reports ------------------------------------------------

def outcome(run: Run) -> Dict[str, Any]:
    """The simulated outcome: every ``sim_*`` metric and the op counts.

    A failed or unfinished request counts as slower than any limit, and
    so does a scripted request its closed loop never got to issue.  A
    stream counts as failed when its player never finished.
    ``attempted`` counts the operations the run issued plus those it
    never issued, the latter from the spec's sessions and how far each
    got, so ``run.check`` can compare it with what the spec scripts.
    """
    library = run.spec["library"]
    unissued = sum(len(ops) - done for ops, done in
                   zip(library["sessions"], run.cursors)) \
        if library is not None else 0
    responses = [(op.done_at - op.issued) * 1e3 if op.ok else math.inf
                 for op in run.requests] + [math.inf] * unissued
    players = [s["player"] for s in run.streams]
    startups = [s["first_arrival"] - s["entered"]
                + s["player"].stats.startup_delay
                for s in run.streams if s["first_arrival"] is not None]
    failed_streams = sum(1 for p in players if not p.finished)
    failed_requests = sum(1 for op in run.requests if not op.ok) + unissued
    attempted = len(responses) + len(players)
    failed = failed_requests + failed_streams
    return {
        "sim_response_p50_ms": percentile(responses, 50),
        "sim_response_p95_ms": percentile(responses, 95),
        "sim_startup_p50_s": percentile(startups, 50) if startups
        else None,
        "sim_stall_s": sum(p.stats.rebuffer_time for p in players),
        "sim_frames_lost": sum(p.stats.frames_skipped
                               + p.stats.frames_concealed for p in players),
        "ops_failed_pct": 100.0 * failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "requests": len(responses),
        "unissued": unissued,
        "streams": len(players),
    }


def _entries(report: Dict[str, Any], component: str, name: str
             ) -> List[Dict[str, Any]]:
    return report.get(component, {}).get(name, [])


def _total(report: Dict[str, Any], component: str, name: str) -> int:
    return sum(e["value"] for e in _entries(report, component, name))


def _histogram_p95(entries: List[Dict[str, Any]]) -> float:
    """Upper bound of the bucket holding the merged 95th percentile."""
    counts: Dict[float, int] = {}
    total = 0
    for e in entries:
        total += e["count"]
        for b in e["buckets"]:
            counts[b["le"]] = counts.get(b["le"], 0) + b["count"]
        if e["overflow"]:
            counts[math.inf] = counts.get(math.inf, 0) + e["overflow"]
    seen = 0
    for bound in sorted(counts):
        seen += counts[bound]
        if seen >= 0.95 * total:
            return bound
    return 0.0


def counters(run: Run) -> Dict[str, Any]:
    """Per-layer counts read back from the program after the run."""
    mits = run.mits
    sim = run.sim
    report = sim.metrics.report()
    conns = sim.entities.get("connection", [])
    players = sim.entities.get("player", [])
    sent = sum(c.stats.sent + c.stats.retransmitted for c in conns)
    delivered = sum(c.stats.delivered for c in conns)
    sampler = mits.sampler
    # the sampler's own ticks are simulator events; without them the
    # event count must not depend on whether observability is on
    ticks = sampler.samples - 1 if sampler is not None else 0
    return {
        "atm.events": sim.events_run - ticks,
        "atm.cells": _total(report, "link", "cells_transmitted"),
        "atm.cells_dropped": _total(report, "link", "drops_total")
        + _total(report, "switch", "crash_dropped")
        + _total(report, "switch", "policed_dropped"),
        "atm.pdu_delay_p95_ms": _histogram_p95(
            _entries(report, "vc", "pdu_delay_seconds")) * 1e3,
        "atm.link_queue_peak": max(
            (e["max"] or 0
             for e in _entries(report, "link", "queue_occupancy")),
            default=0),
        "database.requests": mits.database.requests_served(),
        "transport.messages": sum(c.stats.sent for c in conns),
        "transport.retransmits": sum(c.stats.retransmitted for c in conns),
        "transport.reconnects": sum(c.stats.reconnects for c in conns),
        "transport.rpc_retries": _total(report, "rpc", "retries"),
        "transport.goodput_ratio": delivered / sent if sent else 1.0,
        "streaming.frames_sent": _total(report, "streaming", "frames_sent"),
        "streaming.frames_played": sum(p.stats.frames_played
                                       for p in players),
        "streaming.frames_concealed": sum(p.stats.frames_concealed
                                          for p in players),
        "streaming.stalls": sum(p.stats.stalls for p in players),
        "faults.injected": _total(report, "faults", "injected"),
    }


#: counts that exist only because observability is on
OBS_COUNTS = ("obs.ticks", "obs.points", "obs.spans")


def obs_counters(run: Run) -> Dict[str, Any]:
    sampler = run.mits.sampler
    return {
        "obs.ticks": sampler.samples if sampler is not None else 0,
        "obs.points": sum(len(s) for s in sampler.series())
        if sampler is not None else 0,
        "obs.spans": len(run.sim.tracer.spans),
    }


def player_violations(run: Run) -> List[str]:
    """Players whose cursor is not conserved: played + skipped +
    concealed must equal the frames the stream carries."""
    bad = []
    for s in run.streams:
        p = s["player"]
        st = p.stats
        moved = st.frames_played + st.frames_skipped + st.frames_concealed
        if moved != st.frames_expected:
            bad.append(f"{p.name}: played {st.frames_played} + skipped "
                       f"{st.frames_skipped} + concealed "
                       f"{st.frames_concealed} != {st.frames_expected}")
    return bad


def reference_s() -> float:
    """Wall of a fixed pure-Python loop: how fast the host runs now.
    Taken between the phases, never inside one."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def execute(spec: Dict[str, Any], obs: str, out_dir: str,
            recorder: Optional[layers.Recorder] = None) -> Dict[str, Any]:
    """One repetition: deploy, drive, and (obs on) dump the archive.

    Phase walls (``<phase>_s``) and the reference-loop walls taken
    between them (``reference_s``) are host times; everything else in
    the result is simulated and fixed by the spec.
    """
    references = [reference_s()]
    t0 = time.perf_counter()
    run = deploy(spec, obs)
    result: Dict[str, Any] = {"obs": obs,
                              "setup_s": time.perf_counter() - t0}
    references.append(reference_s())
    if recorder is not None:
        recorder.phase = "run"
    t0 = time.perf_counter()
    drive(run)
    result["run_s"] = time.perf_counter() - t0
    references.append(reference_s())
    result["outcome"] = outcome(run)
    result["counts"] = counters(run)
    result["obs_counts"] = obs_counters(run)
    if obs == "on":
        if recorder is not None:
            recorder.phase = "dump"
        t0 = time.perf_counter()
        written = export.dump_observability(run.mits, spec["workload"],
                                            out_dir)
        result["dump_s"] = time.perf_counter() - t0
        references.append(reference_s())
        result["obs_counts"]["obs.archive_bytes"] = sum(
            os.path.getsize(p) for p in written)
    result["reference_s"] = references
    result["violations"] = [str(v) for v in
                            ConservationAuditor(run.mits).check()]
    result["violations"] += player_violations(run)
    if run.sim.pending():
        result["violations"].append(
            f"load did not drain within {RUN_CAP_S} simulated seconds")
    return result


def main() -> int:
    request = json.load(sys.stdin)
    recorder = layers.install() if request["trace"] else None
    result = execute(request["spec"], request["obs"], request["out_dir"],
                     recorder)
    if recorder is not None:
        result["layers"] = recorder.report()
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
