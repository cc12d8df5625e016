"""Seeded workload generators.

A workload is plain data: :func:`generate` turns ``(name, seed)`` into
a JSON-able spec — who enters when, which request each student sends
next, which faults strike where.  The program under test receives only
this spec (see ``repetition.py``); nothing here imports it.

Workloads (see README.md for why each exists):

* ``lecture`` — open loop on the star campus: staggered classroom
  entries, one long UBR lecture stream per student, periodic resume
  saves.
* ``library`` — closed loop on the OCRInet-like metro WAN: each
  student keeps one request outstanding, with seeded think times.
* ``chaos``   — a smaller lecture plus library traffic on the star,
  under a seeded fault plan covering all seven fault kinds and the
  ``RESILIENT`` recovery policy.
"""

from __future__ import annotations

import random
from typing import Any, Dict

WORKLOADS = ("lecture", "library", "chaos")

#: operation kinds of the library mix: reads (catalogue, keyword
#: query, library read by reference, courseware download) with writes
#: (profile, resume, bookmark) beside them.  No recorded MITS traffic
#: gives their proportions, so every kind gets an equal share
LIBRARY_KINDS = ("catalogue", "keyword", "library_read", "courseware",
                 "profile", "resume", "bookmark")
CATALOGUE_CALLS = ("list_courses", "list_courseware", "Get_List_Doc",
                   "list_library")
KEYWORDS = ("atm", "mheg", "video", "network", "courseware", "hypermedia",
            "broadband", "multimedia")

#: full-size parameters per workload; ``tiny`` shrinks them for tests.
#: They are chosen, not measured from MITS traffic.  Where a figure
#: has a source it is this: ``library``'s 10 students are the soak
#: test's ten; its 42 requests each are a 40-request prototype session
#: rounded up to a multiple of the seven operation kinds.  ``lecture``
#: enlarges a 12-student, 10 s-video prototype to 16 students and 12 s
#: so that its run phase lasts about a second.  Think times (mean 50 ms
#: and 100 ms), the video length of ``chaos``, document and course
#: counts and the fault shapes have no source; README.md gives the
#: reason for each
SIZES: Dict[str, Dict[str, Any]] = {
    "lecture": {"students": 16, "video_seconds": 12.0, "enter_window": 4.0,
                "resume_every": (1.5, 3.0)},
    "library": {"students": 10, "requests": 42, "think_mean": 0.05,
                "docs": 12, "courses": 3},
    "chaos": {"students": 4, "video_seconds": 16.0, "enter_window": 2.0,
              "resume_every": (1.5, 3.0), "readers": 8, "requests": 42,
              "think_mean": 0.1, "docs": 6, "courses": 2,
              "faults_per_kind": 4},
}
TINY: Dict[str, Dict[str, Any]] = {
    "lecture": {"students": 2, "video_seconds": 1.0, "enter_window": 0.5,
                "resume_every": (0.4, 0.6)},
    "library": {"students": 2, "requests": 7, "think_mean": 0.05,
                "docs": 3, "courses": 1},
    "chaos": {"students": 1, "video_seconds": 6.0, "enter_window": 0.2,
              "resume_every": (2.0, 3.0), "readers": 1, "requests": 7,
              "think_mean": 0.1, "docs": 2, "courses": 1,
              "faults_per_kind": 1},
}


# -- generators ---------------------------------------------------------------

def generate(workload: str, seed: int, *, tiny: bool = False
             ) -> Dict[str, Any]:
    """The inputs for one workload, determined by *seed* alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(have: {', '.join(WORKLOADS)})")
    size = (TINY if tiny else SIZES)[workload]
    rng = random.Random(f"{workload}/{seed}")
    spec: Dict[str, Any] = {"workload": workload, "seed": seed,
                            "topology": "ocrinet" if workload == "library"
                            else "star",
                            "recovery": "resilient" if workload == "chaos"
                            else "default",
                            "lecture": None, "library": None, "faults": None}
    if workload in ("lecture", "chaos"):
        spec["lecture"] = _lecture_inputs(rng, size)
    if workload in ("library", "chaos"):
        readers = size.get("readers", size["students"])
        spec["library"] = _library_inputs(rng, size, readers)
    if workload == "chaos":
        spec["faults"] = _fault_inputs(rng, size, spec)
    return spec


def _lecture_inputs(rng: random.Random, size: Dict[str, Any]
                    ) -> Dict[str, Any]:
    lo, hi = size["resume_every"]
    return {"video_seconds": size["video_seconds"],
            "students": [{"enter_at": rng.uniform(0.0, size["enter_window"]),
                          "resume_every": rng.uniform(lo, hi)}
                         for _ in range(size["students"])]}


def _library_inputs(rng: random.Random, size: Dict[str, Any],
                    readers: int) -> Dict[str, Any]:
    docs = [{"doc_id": f"doc{i}",
             "kind": "image" if i % 3 == 2 else "text",
             "keywords": sorted(rng.sample(KEYWORDS, 2))}
            for i in range(size["docs"])]
    courses = [f"cw{i}" for i in range(size["courses"])]
    sessions = []
    for _ in range(readers):
        ops = []
        for kind in _mix(rng, size["requests"]):
            op: Dict[str, Any] = {"op": kind,
                                  "think": rng.expovariate(
                                      1.0 / size["think_mean"])}
            if kind == "catalogue":
                op["arg"] = rng.choice(CATALOGUE_CALLS)
            elif kind == "keyword":
                op["arg"] = rng.choice(KEYWORDS)
            elif kind == "library_read":
                op["arg"] = rng.choice(docs)["doc_id"]
            elif kind in ("courseware", "resume", "bookmark"):
                op["arg"] = rng.choice(courses)
            ops.append(op)
        sessions.append(ops)
    return {"docs": docs, "courses": courses, "sessions": sessions}


def _mix(rng: random.Random, n: int) -> list:
    """*n* operation kinds, each kind equally often, in seeded order.
    The counts are fixed so that the seed changes which request comes
    when, not what the workload is made of."""
    if n % len(LIBRARY_KINDS):
        raise ValueError(f"{n} requests do not split evenly over "
                         f"{len(LIBRARY_KINDS)} operation kinds")
    kinds = list(LIBRARY_KINDS) * (n // len(LIBRARY_KINDS))
    rng.shuffle(kinds)
    return kinds


#: how long each kind of fault lasts and how hard it hits.  A link
#: outage outlasts the players' concealment budget (so they stall and
#: ask for a downgrade); a server stall outlasts the RESILIENT RPC
#: timeout (so calls are retried)
FAULT_SHAPES: Dict[str, Dict[str, float]] = {
    "link_down": {"duration": 0.5},
    "burst_loss": {"duration": 1.0, "rate": 0.05},
    "jitter": {"duration": 1.0, "jitter": 0.002},
    "switch_crash": {"duration": 0.05},
    "vc_teardown": {},
    "server_stall": {"duration": 3.0},
    "server_slow": {"duration": 2.0, "factor": 4.0},
}


def _fault_inputs(rng: random.Random, size: Dict[str, Any],
                  spec: Dict[str, Any]) -> Dict[str, Any]:
    """RandomFaults generators over all seven fault kinds, each over
    the targets its kind can hit, with windows relative to the start
    of the run phase."""
    users = [f"user{i + 1}" for i in range(user_count(spec))]
    viewers = users[:len(spec["lecture"]["students"])]
    readers = users[len(viewers):]
    # cell loss, jitter and circuit teardown stay off the links and
    # circuits that carry lecture streams (the viewers' downlinks and
    # the database uplink).  A player skips one lost frame per 2 s stall,
    # so a second of loss there stalls the stream for ~15 s, and a
    # torn-down stream circuit is never re-signalled at all
    links = [f"sw0->{u}" for u in readers] + [f"{u}->sw0" for u in users] \
        + ["sw0->database"]
    targets = {"burst_loss": links, "jitter": links,
               "switch_crash": ["sw0"],
               "vc_teardown": [f"{u}->database" for u in readers],
               "server_stall": ["database"], "server_slow": ["database"]}
    # faults strike in the first three quarters of the lecture, so
    # their recovery tails end before the streams do
    end = max(s["enter_at"] for s in spec["lecture"]["students"]) \
        + spec["lecture"]["video_seconds"]
    lo, hi = 0.5, 0.75 * end
    # one outage per lecture downlink: each stream conceals and stalls
    # about as much in every run, so the simulated span (and with it
    # the telemetry volume) does not swing with the seed
    generators = [{"kind": "link_down", "targets": [f"sw0->{u}"],
                   "window": [lo, hi - FAULT_SHAPES["link_down"]["duration"]],
                   **FAULT_SHAPES["link_down"]}
                  for u in viewers]
    # the other kinds: one fault per equal slot of the window, each
    # over before its slot ends.  Two faults of one kind never overlap:
    # the injector restores a burst-loss rate or a server slowdown to
    # the value it found, so an overlapped pair leaves the fault armed
    # for good (see README.md)
    count = size["faults_per_kind"]
    slot = (hi - lo) / count
    for kind in sorted(targets):
        duration = FAULT_SHAPES[kind].get("duration", 0.0)
        if duration >= slot:
            raise ValueError(f"{kind} faults of {duration} s do not fit "
                             f"{count} to a {hi - lo:.2f} s window")
        generators += [{"kind": kind, "targets": targets[kind],
                        "window": [lo + i * slot,
                                   lo + (i + 1) * slot - duration],
                        **FAULT_SHAPES[kind]}
                       for i in range(count)]
    return {"seed": rng.randrange(1 << 30), "generators": generators}


def user_count(spec: Dict[str, Any]) -> int:
    lecture = len(spec["lecture"]["students"]) if spec["lecture"] else 0
    library = len(spec["library"]["sessions"]) if spec["library"] else 0
    return lecture + library


def scripted_ops(spec: Dict[str, Any]) -> int:
    """Operations the workload scripts: per lecture student a classroom
    entry, a stream and its resume saves; every library request."""
    total = 0
    if spec["lecture"]:
        seconds = spec["lecture"]["video_seconds"]
        total += sum(2 + int(seconds / s["resume_every"])
                     for s in spec["lecture"]["students"])
    if spec["library"]:
        total += sum(len(ops) for ops in spec["library"]["sessions"])
    return total
