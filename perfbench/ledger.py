"""Traced runs: layer probes, self times and the per-layer ledger.

The program already records ``produce.<OP>`` (service worker),
``request.online`` (daemon), ``prefill.layer`` and the retroactive
``pool.wait`` / ``online.wait`` stalls.  :class:`Probes` adds one span
around each layer's public entry points by patching them for the
traced window only; nothing under ``src/`` changes.

A span's *self time* is its duration minus the part its child spans
on the same thread cover.  The ledger lists, per party, the self time
of every span name on the service worker and on the online thread
against that thread's wall time.  Time outside any container span
(``produce.*``, ``request.online``, ``bench.request``) is idle; a
container's own self time is work no layer probe claims -- the
unexplained remainder.
"""

from __future__ import annotations

import functools
import re
import threading

from repro.crypto.crhf import Crhf
from repro.crypto.group import SchnorrGroup
from repro.crypto.prg import ChaChaTreePrg
from repro.ferret import protocol as ferret_protocol
from repro.lpn.encode import EncodePremix
from repro.runtime import daemon as daemon_mod
from repro.runtime import service as service_mod
from repro.runtime.mux import SubChannel

#: (owner, attribute, span name[, index of a count argument]): every
#: layer entry point probed.  ``base_cot_send(channel, n, ...)`` also
#: counts the base COTs it makes.
PROBE_POINTS = (
    (ChaChaTreePrg, "expand", "crypto.prg_expand"),
    (Crhf, "hash", "crypto.crhf"),
    (Crhf, "hash_tweaked", "crypto.crhf"),
    (SchnorrGroup, "exp", "crypto.group_exp"),
    (SchnorrGroup, "gexp", "crypto.group_exp"),
    (ferret_protocol, "base_cot_send", "ot.base_ot", 1),
    (ferret_protocol, "base_cot_receive", "ot.base_ot"),
    (ferret_protocol, "mpcot_send", "spcot.mpcot"),
    (ferret_protocol, "mpcot_receive", "spcot.mpcot"),
    (ferret_protocol, "encode_blocks", "lpn.encode"),
    (ferret_protocol, "encode_bits", "lpn.encode"),
    (EncodePremix, "finish", "lpn.encode"),
    (SubChannel, "recv_bytes", "mux.recv_wait"),
    (service_mod, "generate_bit_triples", "mpc.bit_triples"),
    (service_mod, "generate_ring_triples", "mpc.ring_triples"),
    (service_mod, "generate_matrix_triples", "mpc.matrix_triples"),
    (daemon_mod, "relu_via_service", "mpc.relu_online"),
    (daemon_mod, "matmul_via_service", "mpc.matmul_online"),
    (daemon_mod, "matmul_rescale_via_service", "mpc.matmul_online"),
)

#: Spans that only group work: their self time is the unexplained part.
CONTAINERS = ("produce.", "request.online", "bench.request")

_PARTY_RE = re.compile(r"-p([01])(?:-|$)")


def party_of(thread_name: str) -> int:
    """Party lane of a thread by its name (``corr-service-p1``, ...)."""
    m = _PARTY_RE.search(thread_name)
    return int(m.group(1)) if m else 0


class Probes:
    """Patch the probe points to record spans on the calling party's
    tracer; :meth:`remove` restores the originals."""

    def __init__(self, tracers):
        self.tracers = tracers
        self.counts = {}
        self._saved = []
        self._lock = threading.Lock()

    def _wrap(self, fn, name, count_arg):
        tracers, counts, lock = self.tracers, self.counts, self._lock

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if count_arg is not None:
                with lock:
                    counts[name] = counts.get(name, 0) + int(args[count_arg])
            tr = tracers[party_of(threading.current_thread().name)]
            tr.begin(name, cat="layer")
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end(name, cat="layer")

        return probe

    def install(self) -> None:
        for owner, attr, name, *count_arg in PROBE_POINTS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, (count_arg or [None])[0]))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


# -- self times ---------------------------------------------------------------------
class Span:
    __slots__ = ("name", "start", "end", "tid", "args", "child", "parent")

    def __init__(self, name, start, end, tid, args):
        self.name, self.start, self.end = name, start, end
        self.tid, self.args, self.child, self.parent = tid, args, 0.0, None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return max(0.0, self.dur - self.child)


def collect_spans(tracers, lo: float, hi: float) -> tuple:
    """Spans of every thread clipped to ``[lo, hi]``, with child time
    filled in; returns ``(spans, thread_names)``."""
    names = {}
    per_tid = {}
    for tr in tracers:
        names.update(tr.thread_names)
        open_ = {}
        for ev in tr.events:
            ph, tid = ev["ph"], ev["tid"]
            if ph == "B":
                open_.setdefault(tid, []).append(ev)
            elif ph == "E":
                stack = open_.get(tid)
                if stack:
                    b = stack.pop()
                    per_tid.setdefault(tid, []).append(
                        (b["name"], b["ts"], ev["ts"], b["args"])
                    )
            elif ph == "X":
                per_tid.setdefault(tid, []).append(
                    (ev["name"], ev["ts"], ev["ts"] + ev["dur"], ev["args"])
                )
        for tid, stack in open_.items():
            for b in stack:
                per_tid.setdefault(tid, []).append((b["name"], b["ts"], hi, b["args"]))
    spans = []
    for tid, raw in per_tid.items():
        clipped = [
            Span(name, max(s, lo), min(e, hi), tid, args)
            for name, s, e, args in raw
            if e > lo and s < hi
        ]
        clipped.sort(key=lambda sp: (sp.start, -sp.end))
        stack = []
        for sp in clipped:
            while stack and stack[-1].end <= sp.start:
                stack.pop()
            if stack:
                parent = sp.parent = stack[-1]
                sp.end = min(sp.end, parent.end)
                parent.child += sp.dur
            stack.append(sp)
        spans.extend(clipped)
    return spans, names


def is_container(name: str) -> bool:
    return name.startswith(CONTAINERS)


def in_container(sp) -> bool:
    """Whether a span is, or runs inside, a container span."""
    while sp is not None:
        if is_container(sp.name):
            return True
        sp = sp.parent
    return False


def lane_of(thread_name: str):
    """Ledger lane of a thread: ``worker``, ``online`` or None."""
    if thread_name.startswith("corr-service-"):
        return "worker"
    if thread_name.startswith("daemon-") and thread_name.endswith("_online_loop"):
        return "online"
    if thread_name == "MainThread":  # cot_stream's client loop
        return "online"
    return None


def lane_spans(spans, names) -> list:
    """Spans the ledger accounts for: on a lane, inside a container."""
    return [
        sp for sp in spans
        if lane_of(names.get(sp.tid, "")) is not None and in_container(sp)
    ]


def ledger(spans, names, wall: float) -> list:
    """One row per (party, lane): wall, per-name self times, idle and
    the unexplained remainder (container self time)."""
    rows = {}
    for sp in lane_spans(spans, names):
        tname = names.get(sp.tid, "")
        lane = lane_of(tname)
        party = "both" if tname == "MainThread" else party_of(tname)
        row = rows.setdefault(
            (party, lane),
            {"party": party, "lane": lane, "wall_s": wall, "busy_s": 0.0,
             "self_s": {}, "unexplained_s": 0.0},
        )
        row["self_s"][sp.name] = row["self_s"].get(sp.name, 0.0) + sp.self_s
        if is_container(sp.name):  # containers never nest
            row["busy_s"] += sp.dur
            row["unexplained_s"] += sp.self_s
    out = []
    for row in rows.values():
        row["idle_s"] = max(0.0, wall - row["busy_s"])
        row["unexplained_frac"] = row["unexplained_s"] / wall
        out.append(row)
    out.sort(key=lambda r: (str(r["party"]), r["lane"]))
    return out


def format_ledger(rows) -> str:
    lines = []
    for row in rows:
        lines.append(
            f"# ledger party {row['party']} {row['lane']}: wall {row['wall_s']:.2f}s "
            f"busy {row['busy_s']:.2f}s idle {row['idle_s']:.2f}s "
            f"unexplained {row['unexplained_s']:.3f}s "
            f"({100 * row['unexplained_frac']:.1f}% of wall)"
        )
        for name, s in sorted(row["self_s"].items(), key=lambda kv: -kv[1]):
            tag = "  (unexplained)" if is_container(name) else ""
            lines.append(f"#   {name:<24} {s:9.3f}s{tag}")
    return "\n".join(lines)
