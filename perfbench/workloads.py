"""The benchmark workloads.

Each drives a fresh service pair through public APIs only
(``session.draw_*``, ``InferenceDaemon.submit/result``,
``service.telemetry()``) in a closed loop for a fixed window, checks
every output, and records one sample per request.

* ``cot_stream``: one session per party draws raw COTs; a request is
  one fwd chunk then one rev chunk.  No derived production.
* ``mlp_serve``: an InferenceDaemon pair serving a quantized
  Linear->Rescale->ReLU->Linear MLP to two zero-think-time clients,
  one item per request.  Comparison (bit-triple) heavy.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.ot.cot import verify_cot
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.runtime import DaemonConfig, InferenceDaemon, ServiceTuning

from common import (
    FX, MASK, PARAMS, RING_BITS, SMOKE_PARAMS, WAIT_S, ferret_config, mux_bytes,
)


class CheckFailed(Exception):
    """An output was wrong: the benchmark must exit non-zero."""


@dataclass
class Window:
    """What one timed window measured."""

    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Per completed request: (latency_s, first_wait_s).
    samples: list = field(default_factory=list)
    cots: int = 0  # verified COTs (cot_stream only)
    wire_bytes: int = 0
    tel_before: tuple = ()
    tel_after: tuple = ()
    last_end: float = 0.0  # perf_counter() at the last completion
    errors: list = field(default_factory=list)  # failed ops, as repr()
    wrong: Exception = None  # first wrong output (CheckFailed)
    #: Party 0's DaemonRequest of each completed request (mlp_serve only).
    requests: list = field(default_factory=list)


class Workload:
    """Sizes and hooks shared by the workloads."""

    name = ""
    #: Headline throughput metric (for obs.trace_overhead).
    headline = ""
    warmup_requests = 0  # per client
    clients = 1

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.cfg = ferret_config(SMOKE_PARAMS if smoke else PARAMS)

    def tuning(self) -> ServiceTuning:
        raise NotImplementedError

    def make_daemons(self, svc0, svc1):
        return ()

    def run_window(self, pair, seconds: float, warmup: bool = False) -> Window:
        raise NotImplementedError

    def check_pair(self, pair, windows) -> None:
        """Whole-run checks after every window."""

    def _measure(self, pair, seconds, loop, warmup) -> Window:
        """Run ``loop(w, more)``; a client keeps issuing requests while
        ``more(done)`` holds -- for the warm-up count, or until the
        window's deadline.  Requests in flight at the deadline finish
        and count; the window ends at the last completion."""
        w = Window()
        w.tel_before = tuple(s.telemetry() for s in pair.svcs)
        bytes0 = mux_bytes(pair)
        t0 = time.perf_counter()
        deadline = t0 + seconds
        if warmup:
            def more(done):
                return done < self.warmup_requests
        else:
            def more(done):
                return time.perf_counter() < deadline
        loop(w, more)
        if w.wrong is not None:
            raise w.wrong
        w.elapsed_s = (w.last_end if w.samples else time.perf_counter()) - t0
        w.wire_bytes = mux_bytes(pair) - bytes0
        w.tel_after = tuple(s.telemetry() for s in pair.svcs)
        w.failed += sum(
            a.get("service/degraded_events", 0) - b.get("service/degraded_events", 0)
            for a, b in zip(w.tel_after, w.tel_before)
        )
        return w


class CotStream(Workload):
    name = "cot_stream"
    headline = "cot_per_s"
    warmup_requests = 2

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        #: COTs per draw: one extend's net output.
        self.chunk = self.cfg.net_output

    def tuning(self) -> ServiceTuning:
        # Zero COT watermarks: production is strictly on demand, so each
        # chunk draw waits on exactly one extend of its direction (with
        # stock kept ahead, latency alternates between two modes).
        return ServiceTuning(
            cot_low=0, cot_high=0,
            enable_triples=False, enable_ring_triples=False, enable_rots=False,
            take_timeout_s=WAIT_S,
        )

    def run_window(self, pair, seconds, warmup=False) -> Window:
        s0 = pair.extra.setdefault("s0", pair.svcs[0].session("stream"))
        s1 = pair.extra.setdefault("s1", pair.svcs[1].session("stream"))
        n = self.chunk

        def draw(direction, w):
            tr = pair.svcs[0].tracer  # NULL_TRACER outside traced windows
            # Party 0 allocates every range, so its draw always goes first.
            with tr.span("session.draw", cat="bench", direction=direction):
                if direction == "fwd":
                    sender, _ = s0.draw_sender_cots(n)
                    receiver, _ = s1.draw_receiver_cots(n)
                else:
                    receiver, _ = s0.draw_receiver_cots(n)
                    sender, _ = s1.draw_sender_cots(n)
            with tr.span("bench.verify", cat="bench"):
                ok = verify_cot(sender, receiver)
            if not ok:
                raise CheckFailed(
                    f"{self.name}: {direction} COTs break y == q ^ x*Delta"
                )
            w.cots += n

        def loop(w, more):
            done = 0
            while more(done):
                w.attempted += 1
                start = time.perf_counter()
                try:
                    with pair.svcs[0].tracer.span("bench.request", cat="bench"):
                        draw("fwd", w)
                        first = time.perf_counter()
                        draw("rev", w)
                except ReproError as exc:
                    w.failed += 1
                    w.errors.append(repr(exc))
                    break
                w.last_end = end = time.perf_counter()
                w.samples.append((end - start, first - start))
                done += 1

        return self._measure(pair, seconds, loop, warmup)


class MlpServe(Workload):
    """A daemon pair; closed-loop clients each submit to both parties."""

    name = "mlp_serve"
    headline = "req_per_s"
    warmup_requests = 1
    clients = 2
    #: Plan layer the first online op (Linear+Rescale) waits on.
    first_gate = 1
    #: Purpose guard: bit-triple (+ truncation-pair) production's share
    #: of mpc production busy time.  It reads 0.53-0.56 here and 0.26
    #: for a matmul-heavy shape such as (2, 16, 16, 8).
    min_comparison_share = 0.4

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        # Narrow linear layers around a wide ReLU: comparison material
        # (bit triples) is the largest share of mpc production.
        self.dims = (2, 2, 8, 2) if smoke else (8, 2, 16, 2)
        m, k, h, out = self.dims
        rng = np.random.default_rng([seed, 0x5E])
        self.w1 = rng.integers(-4, 4, (k, h))
        self.w2 = rng.integers(-4, 4, (h, out))
        self.w_shares = [
            share_arith_nd(from_signed(w, RING_BITS), rng, bits=RING_BITS)
            for w in (self.w1, self.w2)
        ]
        self.graph = Graph("perfbench-mlp", (m, k))
        self.graph.add(Linear(h))
        self.graph.add(Rescale())
        self.graph.add(Activation("relu"))
        self.graph.add(Linear(out))
        self.completed = 0

    def oracle(self, x) -> np.ndarray:
        hid = np.maximum((x @ self.w1) >> FX.frac_bits, 0)
        return ((hid @ self.w2).astype(np.int64) & int(MASK)).astype(np.uint64)

    def tuning(self) -> ServiceTuning:
        # Plan-driven production only (bench_daemon's setting): every
        # correlation is produced for a request's pipeline.
        return ServiceTuning(
            ring_bits=RING_BITS,
            triple_low=0, triple_high=0, triple_chunk=512,
            rtri_chunk=128, enable_rots=False, take_timeout_s=WAIT_S,
        )

    def make_daemons(self, svc0, svc1):
        dcfg = DaemonConfig(
            max_inflight=self.clients + 1, session_inflight=2,
            lease_ttl_s=4 * WAIT_S, max_batch=1, request_timeout_s=WAIT_S,
        )
        return tuple(
            InferenceDaemon(
                svc, self.graph, [ws[p] for ws in self.w_shares], fx=FX, cfg=dcfg
            ).start()
            for p, svc in enumerate((svc0, svc1))
        )

    def run_window(self, pair, seconds, warmup=False) -> Window:
        d0, d1 = pair.daemons
        m, k = self.dims[0], self.dims[1]
        lock = threading.Lock()
        stop = threading.Event()
        # Inputs follow from (seed, client, window, request index) only.
        tag = pair.extra.get("windows", 0)
        pair.extra["windows"] = tag + 1

        def client(c, w, more):
            rng = np.random.default_rng([self.seed, c, tag])
            r = 0
            while not stop.is_set() and more(r):
                x = rng.integers(-8, 8, (m, k))
                x0, x1 = share_arith_nd(from_signed(x, RING_BITS), rng, bits=RING_BITS)
                with lock:
                    w.attempted += 1
                start = time.perf_counter()
                try:
                    q0 = d0.submit(f"cli{c}", x0)
                    q1 = d1.submit(f"cli{c}", x1)
                    (y0,), (y1,) = q0.result(WAIT_S), q1.result(WAIT_S)
                except ReproError as exc:
                    with lock:
                        w.failed += 1
                        w.errors.append(repr(exc))
                    stop.set()
                    return
                end = time.perf_counter()
                if not np.array_equal((y0 + y1) & MASK, self.oracle(x)):
                    w.wrong = CheckFailed(
                        f"{self.name}: request output not bit-exact "
                        "against the numpy fixed-point oracle"
                    )
                    stop.set()
                    return
                first = max(q0.first_wait_s, q1.first_wait_s)
                with lock:
                    w.last_end = max(w.last_end, end)
                    w.samples.append((end - start, first))
                    w.requests.append(q0)
                    self.completed += 1
                r += 1

        def loop(w, more):
            threads = [
                threading.Thread(
                    target=client, args=(c, w, more), name=f"bench-client-{c}",
                    daemon=True,
                )
                for c in range(self.clients)
            ]
            for t in threads:
                t.start()
            bound = time.perf_counter() + seconds + 3 * WAIT_S
            for t in threads:
                t.join(max(0.0, bound - time.perf_counter()))
            if any(t.is_alive() for t in threads):
                stop.set()
                w.failed += 1
                w.errors.append("client thread still blocked after its bound")

        return self._measure(pair, seconds, loop, warmup)

    def check_pair(self, pair, windows) -> None:
        """Session draws == plan x items (only meaningful with no failed op)."""
        if any(w.failed for w in windows):
            return
        drawn = pair.svcs[0].session_draw_counts()
        base = pair.extra.get("draws_at_start", {})
        for kind, count in pair.daemons[0].plan.pool_targets().items():
            got = drawn.get(kind, 0) - base.get(kind, 0)
            if got != count * self.completed:
                raise CheckFailed(
                    f"{self.name}: {kind} draws {got} != plan {count} x "
                    f"{self.completed} items"
                )


WORKLOADS = {w.name: w for w in (CotStream, MlpServe)}
