"""The background correlation provisioning service.

One :class:`CorrelationService` runs per party.  It owns up to two
Ferret endpoints -- the *forward* direction (party 0 is the COT sender)
and the *reverse* direction (party 1 is the sender), because every
role-switching workload (bit triples, the ReLU multiplexer) needs OTs
both ways -- and a worker thread that keeps typed pools above their
low watermarks by running ``extend()`` and derived production while
consumers draw.  This is the Figure 1(b) amortization realized as a
long-lived runtime: the Init (128 PKC base OTs + IKNP) runs once per
direction, then extends stream correlations to any number of sessions.

**Determinism.**  A correlation only works if both parties consume the
same one, so all allocation decisions are made on party 0 (the
*leader*) and propagated in-band:

* consumer draws: party 0 reserves the absolute range in the pool and
  sends the offset to its peer session over the session sub-channel;
* production (extends, triple generation, random-OT conversion): the
  leader's worker sends a command frame on the ``prov/ctl`` sub-channel
  naming the operation and the exact input ranges; the follower's
  worker replays commands in order.

Thread interleaving on either host therefore cannot desynchronize the
two parties: the command stream and the per-session offset streams are
the only sources of truth.

**Liveness.**  The leader only schedules triple/ROT production over
ranges that are already produced (``try_reserve_produced``), so the
worker never blocks waiting on an extend that the worker itself would
have to run.  Consumer draws may over-reserve freely; the resulting
negative pool level is exactly the demand signal the leader tops up.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    ServiceDegraded,
    ServiceError,
)
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.mpc.matmul import MatmulDims, generate_matrix_triples
from repro.mpc.triples import generate_bit_triples, generate_ring_triples
from repro.mpc.truncation import generate_trunc_pairs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.ot.cot import CotPool
from repro.ot.retry import RetryingChannel, RetryPolicy
from repro.ot.ot_from_cot import (
    cot_to_random_ot_receiver,
    cot_to_random_ot_sender,
    ot_receive_from_cot,
    ot_send_from_cot,
)
from repro.runtime.mux import MuxChannel
from repro.runtime.recipes import (
    COT_FWD,
    COT_REV,
    EXTEND,
    OP_STOP,
    RECIPES,
    decode_frame,
    encode_frame,
    parse_command,
    recipe_for,
    resolve,
)
from repro.runtime.shard import ShardManager
from repro.runtime.pool import (
    MatrixTriplePool,
    ReceiverCotPool,
    RingTriplePool,
    RotReceiverPool,
    RotSenderPool,
    SenderCotPool,
    TriplePool,
    TruncPairPool,
)

#: Extend opcode -> direction it extends.
_EXTEND_DIR = {op: kind[4:] for kind, op in EXTEND.items()}
#: Resync frames (variable length: opcode + JSON payload).  SYNC is the
#: leader's recovery barrier, SACK the follower's reply, NACK the
#: follower's prompt "my command execution failed" signal.  Every other
#: ``prov/ctl`` frame is laid out by :mod:`repro.runtime.recipes`.
OP_SYNC = b"SYNC"
OP_SYNC_ACK = b"SACK"
OP_NACK = b"NACK"

#: Transient transport faults the worker survives by degrading (and
#: later resyncing) instead of dying.
_TRANSIENT = (ChannelClosed, ChannelTimeout)


class _StopRequested(Exception):
    """Internal: a liveness probe noticed the stop flag mid-wait."""


@dataclass
class ServiceTuning:
    """Watermarks and batch sizes for the provisioning worker.

    ``None`` watermarks are derived from the Ferret config at service
    construction (keep about one extend's output in flight).
    ``ring_bits`` fixes the ring Z_2^bits of every arithmetic (ring and
    matrix) triple the service produces -- both parties must agree, and
    preprocessing plans must be computed at the same width.
    ``enable_ring_triples=None`` follows ``enable_reverse`` (ring
    triples, like bit triples, need OTs both ways).
    ``tprc_batch_chunks`` caps how many ``tprc_chunk``-sized batches
    one TPRC command may fuse when stock allows: pair generation pays
    its millionaires'/B2A message rounds once per command, so fusing
    chunks amortizes the per-chunk opening rounds of deep deficits.
    ``shards`` moves raw-COT production into that many producer
    *process pairs* (see :mod:`repro.runtime.shard`); 1 keeps today's
    in-thread extends byte-identically.  Derived ``None`` COT
    watermarks scale with the shard count so every shard can keep one
    extend's output in flight.
    """

    cot_low: int = None
    cot_high: int = None
    shards: int = 1
    triple_low: int = 128
    triple_high: int = 1024
    triple_chunk: int = 1024
    ring_bits: int = 32
    rtri_low: int = 0
    rtri_high: int = 0
    rtri_chunk: int = 256
    tprc_chunk: int = 64
    tprc_batch_chunks: int = 8
    rot_low: int = 0
    rot_high: int = 512
    rot_chunk: int = 512
    enable_reverse: bool = True
    enable_triples: bool = True
    enable_ring_triples: bool = None
    enable_rots: bool = True
    poll_interval_s: float = 0.02
    take_timeout_s: float = 300.0
    #: Retry/backoff bounds for the worker's blocking receives (sliced
    #: waits that re-check liveness) and, when the transport stack
    #: includes a ReconnectingChannel, its redial loop.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: How often a degraded worker attempts a resync barrier.
    degraded_retry_s: float = 0.5
    #: How many times a worker whose loop died on a transient transport
    #: fault is restarted before the error becomes fatal.
    max_worker_restarts: int = 1


class CorrelationService:
    """Pooled Ferret provisioning for one party.

    Args:
        party: 0 (leader / allocation authority) or 1 (follower).
        mux: this party's :class:`MuxChannel` endpoint; the service
            claims the ``prov/*`` sub-channels and hands sessions
            ``sess/<name>`` sub-channels.
        config: the Ferret configuration (shared by both directions).
        tuning: watermarks / batch sizes; both parties should pass
            equal ``enable_*`` flags.
        seed: base seed for the Ferret endpoints; both parties must
            pass the same value (they derive distinct per-role seeds
            from it, mirroring :func:`repro.ferret.protocol.ferret_pair`).
    """

    def __init__(
        self,
        party: int,
        mux: MuxChannel,
        config: FerretConfig,
        tuning: ServiceTuning = None,
        seed: int = 0x10C,
    ):
        if party not in (0, 1):
            raise ServiceError("party must be 0 or 1")
        self.party = party
        self.mux = mux
        self.config = config
        self.tuning = tuning or ServiceTuning()
        self._ctl = mux.sub("prov/ctl")
        # Provisioning data channels wait in policy-sized slices with a
        # liveness probe between slices, so a worker blocked mid-protocol
        # notices a stop request or a dead pump in ~attempt_timeout_s
        # instead of after the full (mux-default) receive timeout.
        retry = self.tuning.retry

        def _wrap(tag: str) -> RetryingChannel:
            return RetryingChannel(
                mux.sub(tag), retry,
                probe=self._worker_probe, default_timeout=mux.timeout,
            )

        self._ch_fwd = _wrap("prov/fwd")
        self._ch_rev = _wrap("prov/rev")
        self._ch_tri = _wrap("prov/tri")
        self._ch_rtri = _wrap("prov/rtri")
        self._ch_mtri = _wrap("prov/mtri")
        self._ch_tprc = _wrap("prov/tprc")
        self._data_channels = (
            self._ch_fwd, self._ch_rev, self._ch_tri,
            self._ch_rtri, self._ch_mtri, self._ch_tprc,
        )
        self._rng = np.random.default_rng(seed + 0x7000 + party)

        # Ferret endpoints: forward = party 0 sends, reverse = party 1.
        if party == 0:
            self.ferret_fwd = FerretSender(config, seed=seed)
            self.ferret_rev = (
                FerretReceiver(config, seed=seed + 2)
                if self.tuning.enable_reverse
                else None
            )
        else:
            self.ferret_fwd = FerretReceiver(config, seed=seed + 1)
            self.ferret_rev = (
                FerretSender(config, seed=seed + 3)
                if self.tuning.enable_reverse
                else None
            )

        t = self.tuning
        if t.shards < 1:
            raise ServiceError("shards must be >= 1")
        # Shard-aware defaults: with N producer shards, keep N extends'
        # worth of output in flight so no shard idles against a full pool.
        cot_low = (
            t.cot_low if t.cot_low is not None
            else max(1, config.net_output * t.shards // 4)
        )
        cot_high = t.cot_high if t.cot_high is not None else config.net_output * t.shards

        # One wake event shared by every pool: any demand pulse (a
        # reserve dipping below the low watermark, a blocked take)
        # nudges the leader's scheduling loop.
        self._wake = threading.Event()

        # Flight recorder: one registry unifying every stats surface
        # (pools, mux tags, ferret extends, retry/degraded/reconnect
        # accounting, session draws) behind :meth:`telemetry`, plus a
        # tracer (no-op until :meth:`set_tracer`) for the timeline.
        self.tracer = NULL_TRACER
        self.metrics = MetricsRegistry()
        self._stall_hist = self.metrics.histogram("pool/stall_ms")
        self.metrics.add_collector("pool", self._collect_pools)
        self.metrics.add_collector("mux", self._collect_mux)
        self.metrics.add_collector("ferret", self._collect_ferret)
        self.metrics.add_collector("service", self._collect_service)
        self.metrics.add_collector("reconnect", self._collect_reconnect)
        self.metrics.add_collector("draws", self.session_draw_counts)

        self.pools: dict = {}
        cot_marks = dict(low_watermark=cot_low, high_watermark=cot_high)
        for kind, ep in ((COT_FWD, self.ferret_fwd), (COT_REV, self.ferret_rev)):
            if ep is not None:
                self._add_pool(
                    SenderCotPool(kind, ep.delta, **cot_marks)
                    if isinstance(ep, FerretSender)
                    else ReceiverCotPool(kind, **cot_marks)
                )
        if t.enable_triples:
            if not t.enable_reverse:
                raise ServiceError("triple production needs the reverse direction")
            self._add_pool(
                TriplePool("tri", low_watermark=t.triple_low, high_watermark=t.triple_high)
            )
        enable_rtri = (
            t.enable_ring_triples
            if t.enable_ring_triples is not None
            else t.enable_reverse
        )
        if enable_rtri:
            if not t.enable_reverse:
                raise ServiceError("ring-triple production needs the reverse direction")
            self._add_pool(
                RingTriplePool(
                    "rtri", t.ring_bits,
                    low_watermark=t.rtri_low, high_watermark=t.rtri_high,
                )
            )
        if t.enable_rots:
            for kind, ep in (("rot/fwd", self.ferret_fwd), ("rot/rev", self.ferret_rev)):
                if ep is not None:
                    rot = RotSenderPool if isinstance(ep, FerretSender) else RotReceiverPool
                    self._add_pool(
                        rot(kind, low_watermark=t.rot_low, high_watermark=t.rot_high)
                    )

        # Process-sharded raw-COT production (repro.runtime.shard):
        # shards=1 constructs none of the machinery, keeping the
        # single-worker stream byte-identical.
        self._shard_mgr = None
        if t.shards > 1:
            self._shard_mgr = ShardManager(self, t.shards, seed=seed)
            self.metrics.add_collector("shard", self._shard_mgr.collect)

        self._alloc_lock = threading.Lock()
        #: Leader-side per-kind totals of consumer (session) draws --
        #: what the preprocessing planner's demand is validated against.
        self.session_draws: dict = {}
        self._stop = threading.Event()
        self._ready = threading.Event()
        self.error = None
        self.extends = {"fwd": 0, "rev": 0}
        # Degraded-mode + recovery state (tentpole 3).
        self.degraded_since = None  # time.monotonic() at entry, or None
        self.degraded_cause = None
        self.degraded_events = 0
        self.worker_restarts = 0
        self.resyncs = 0  # successful resync barriers
        self.rolled_back = 0  # pool items discarded by resyncs
        self.segments_dropped = 0  # parked shard segments discarded by resyncs
        self._sync_nonce = 0
        self._nack_sent = False
        #: Last completed extend per direction: (endpoint snapshot taken
        #: before the extend, pool produced count before its append).  A
        #: resync that rolls a COT pool back to that count also restores
        #: the endpoint, so the re-run extend starts from matching state.
        self._last_extend = {"fwd": None, "rev": None}
        self._worker = threading.Thread(
            target=self._run, name=f"corr-service-p{party}", daemon=True
        )
        self._started = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "CorrelationService":
        self._worker.start()
        self._started = True
        return self

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until base-OT setup finished on this side."""
        if not self._ready.wait(timeout):
            self._raise_if_failed()
            raise ServiceError("service setup did not finish in time")
        self._raise_if_failed()

    def stop(self, timeout: float = 30.0) -> None:
        """Shut the worker down.

        The leader (party 0) broadcasts STOP to the peer, so stop the
        leader first (or concurrently).  The follower's stop() waits for
        that STOP to arrive before forcing its loop to exit, so a
        follower stopped "too early" keeps replaying commands instead of
        wedging the leader mid-protocol.
        """
        if self.party == 0:
            self._stop.set()
            self._wake.set()
            if self._started:
                self._worker.join(timeout)
        elif self._started:
            if self.degraded_since is not None or self.mux._pump_dead:
                # The command stream is down: the leader's STOP can
                # never arrive, so skip the grace join and force the
                # loop out now.
                self._stop.set()
                self._worker.join(5.0)
            else:
                # Give the leader's STOP a chance to arrive and drain
                # the command stream cleanly; force the loop only as a
                # fallback.
                self._worker.join(timeout)
                if self._worker.is_alive():
                    self._stop.set()
                    self._worker.join(5.0)
        else:
            self._stop.set()
        self._raise_if_failed()

    def _raise_if_failed(self) -> None:
        if self.error is not None:
            raise ServiceError(f"service worker failed: {self.error!r}") from self.error

    # -- liveness / degraded mode -------------------------------------------
    @property
    def degraded(self) -> bool:
        return self.degraded_since is not None

    def _worker_probe(self) -> None:
        """Between-slice liveness check for the worker's own receives."""
        if self._stop.is_set():
            raise _StopRequested("service stop requested")
        self.mux._check_pump()

    def _pool_probe(self) -> None:
        """Per-tick liveness check for consumers blocked on a pool.

        Only waits for *future* production reach this (already-produced
        takes never wait), so raising here is exactly the ISSUE's
        degraded-mode contract: stock still serves, but backpressure on
        a dead producer surfaces as a typed error with recovery hints
        instead of a hang.
        """
        if self.error is not None:
            raise ServiceError(
                f"service worker failed: {self.error!r}"
            ) from self.error
        if self.degraded_since is not None:
            raise ServiceDegraded(
                f"service is degraded (production down for "
                f"{time.monotonic() - self.degraded_since:.1f}s: "
                f"{self.degraded_cause!r}); this wait needs future production",
                cause=self.degraded_cause,
                since=self.degraded_since,
            )

    def _enter_degraded(self, exc: Exception) -> None:
        if self.degraded_since is None:
            self.degraded_since = time.monotonic()
            self.degraded_cause = exc
            self.degraded_events += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "degraded.enter", cat="degraded", cause=repr(exc)[:200]
                )

    def _clear_degraded(self) -> None:
        was_degraded = self.degraded_since is not None
        self.degraded_since = None
        self.degraded_cause = None
        self._nack_sent = False
        if was_degraded and self.tracer.enabled:
            self.tracer.instant("degraded.clear", cat="degraded")

    def retry_stats(self) -> dict:
        """Recovery accounting: retried receive slices, degraded spells,
        resync barriers, and (when the transport stack reconnects)
        redial/replay totals from the ReconnectingChannel underneath."""
        out = {
            "stalled_recvs": sum(c.stalled_recvs for c in self._data_channels),
            "retry_slices": sum(c.retry_slices for c in self._data_channels),
            "degraded_events": self.degraded_events,
            "worker_restarts": self.worker_restarts,
            "resyncs": self.resyncs,
            "rolled_back": self.rolled_back,
            "segments_dropped": self.segments_dropped,
        }
        base = getattr(self.mux, "base", None)
        if base is not None and hasattr(base, "reconnect_events"):
            out["reconnects"] = base.reconnects
            out["replayed_frames"] = base.replayed_frames
            out["replayed_bytes"] = base.replayed_bytes
            out["reconnect_events"] = list(base.reconnect_events)
        return out

    # -- flight recorder ------------------------------------------------------
    def _observe_stall(self, pool_name: str, dur_ms: float) -> None:
        self._stall_hist.observe(dur_ms)

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to this party's whole stack: the service, every
        pool (current and future), the mux, the retrying data channels,
        and -- when the transport reconnects -- the ReconnectingChannel
        underneath.  Pass :data:`repro.obs.trace.NULL_TRACER` to detach."""
        self.tracer = tracer
        with self._alloc_lock:
            pools = list(self.pools.values())
        for pool in pools:
            pool.tracer = tracer
        for ch in self._data_channels:
            ch.tracer = tracer
        self.mux.tracer = tracer
        base = getattr(self.mux, "base", None)
        if base is not None and hasattr(base, "reconnect_events"):
            base.tracer = tracer

    def telemetry(self) -> dict:
        """One coherent snapshot of every stats surface, flat-keyed:
        ``pool/<kind>/...``, ``mux/<tag>/...``, ``ferret/<dir>/...``,
        ``service/...``, ``reconnect/...``, ``draws/<kind>`` plus the
        ``pool/stall_ms`` histogram.  Pure read; see
        ``metrics.snapshot_delta()`` for periodic deltas."""
        return self.metrics.snapshot()

    def session_draw_counts(self) -> dict:
        """Consistent snapshot of leader-side per-kind session draws
        (the mutations happen under the same allocation lock)."""
        with self._alloc_lock:
            return dict(self.session_draws)

    def _collect_pools(self) -> dict:
        out = {}
        with self._alloc_lock:
            pools = list(self.pools.items())
        for kind, pool in pools:
            stats = pool.stats.as_dict()
            stats["level"] = pool.level
            stats["produced"] = pool.produced
            stats["deficit"] = pool.deficit
            stats["low_watermark"], stats["high_watermark"] = pool.watermarks
            for key, value in stats.items():
                out[f"{kind}/{key}"] = value
        return out

    def _collect_mux(self) -> dict:
        out = {}
        frames = self.mux.receive_counts()
        for tag, stats in self.mux.stats_by_tag().items():
            for key, value in stats.as_dict().items():
                out[f"{tag}/{key}"] = value
            out[f"{tag}/rx_frames"] = frames.get(tag, 0)
        return out

    def _collect_ferret(self) -> dict:
        out = {}
        for direction in ("fwd", "rev"):
            ep = self._endpoint(direction)
            if ep is None:
                continue
            out[f"{direction}/extends"] = self.extends[direction]
            out[f"{direction}/iterations"] = ep.iterations
            last = ep.last_stats
            if last is not None:
                out[f"{direction}/last_n_output"] = last.n_output
                out[f"{direction}/last_prg_calls"] = last.prg_calls
                out[f"{direction}/last_bytes_sent"] = last.bytes_sent
                out[f"{direction}/last_rounds"] = last.rounds
        return out

    def _collect_service(self) -> dict:
        return {
            "stalled_recvs": sum(c.stalled_recvs for c in self._data_channels),
            "retry_slices": sum(c.retry_slices for c in self._data_channels),
            "degraded": int(self.degraded_since is not None),
            "degraded_events": self.degraded_events,
            "worker_restarts": self.worker_restarts,
            "resyncs": self.resyncs,
            "rolled_back": self.rolled_back,
            "segments_dropped": self.segments_dropped,
        }

    def _collect_reconnect(self) -> dict:
        base = getattr(self.mux, "base", None)
        if base is None or not hasattr(base, "reconnect_events"):
            return {}
        return {
            "reconnects": base.reconnects,
            "epoch": base.epoch,
            "replayed_frames": base.replayed_frames,
            "replayed_bytes": base.replayed_bytes,
            "journal_depth": base.journal_depth,
        }

    def resume_state(self) -> dict:
        """The JSON state this party contributes to a reconnect resume
        handshake: per-tag mux receive counts plus per-pool absolute
        stream positions (wire a ReconnectingChannel's
        ``state_provider`` to this)."""
        with self._alloc_lock:
            pools = {kind: pool.produced for kind, pool in self.pools.items()}
            pending = {
                kind: pool.pending_segments
                for kind, pool in self.pools.items()
                if pool.pending_segments
            }
        state = {
            "party": self.party,
            "tags": self.mux.receive_counts(),
            "pools": pools,
        }
        if pending:
            # Parked out-of-order shard segments are NOT resumable state
            # (the resync barrier discards them); surfacing the count
            # lets the peer's handshake log explain a larger-than-
            # expected re-produce after a sharded reconnect.
            state["pending_segments"] = pending
        return state

    # -- allocation (leader authority) --------------------------------------
    def reserve(self, kind: str, n: int) -> int:
        """Claim the next range of ``kind``; leader-side sessions only."""
        if self.party != 0:
            raise ServiceError("only party 0 allocates; party 1 receives offsets")
        with self._alloc_lock:
            if kind not in self.pools:
                raise ServiceError(f"unknown pool kind {kind!r}")
            self.session_draws[kind] = self.session_draws.get(kind, 0) + n
            return self.pools[kind].reserve(n)

    def _add_pool(self, pool):
        """Register ``pool`` and wire the service's hooks into it (the
        caller holds the allocation lock once the worker may run)."""
        pool.refill = self._wake
        pool.failure_probe = self._pool_probe
        pool.stall_observer = self._observe_stall
        pool.tracer = self.tracer
        self.pools[pool.name] = pool
        return pool

    def matrix_pool(self, m: int, k: int, n: int) -> MatrixTriplePool:
        """The shape-keyed matrix-triple pool for (m, k, n), creating it
        on first use.  Creation is local and idempotent, so sessions and
        the command replay can each ensure the pool exists on their side
        without any cross-party coordination."""
        key = MatrixTriplePool.key_for(m, k, n)
        with self._alloc_lock:
            return self.pools.get(key) or self._add_pool(
                MatrixTriplePool(
                    key, m, k, n, self.tuning.ring_bits,
                    low_watermark=0, high_watermark=0,
                )
            )

    def trunc_pool(self, frac_bits: int) -> TruncPairPool:
        """The frac-keyed truncation-pair pool, creating it on first
        use.  Like :meth:`matrix_pool`, creation is local and
        idempotent; pair production additionally consumes pooled bit
        triples, so the service must run with ``enable_triples``."""
        if not self.tuning.enable_triples:
            raise ServiceError("truncation pairs need bit-triple production")
        key = TruncPairPool.key_for(frac_bits)
        with self._alloc_lock:
            return self.pools.get(key) or self._add_pool(
                TruncPairPool(
                    key, self.tuning.ring_bits, frac_bits,
                    low_watermark=0, high_watermark=0,
                )
            )

    def session(self, name: str) -> "ServiceSession":
        """A consumer session speaking over the ``sess/<name>`` sub-channel."""
        return ServiceSession(self, self.mux.sub(f"sess/{name}"), name)

    def pool_stats(self) -> dict:
        with self._alloc_lock:
            pools = list(self.pools.items())
        out = {}
        for kind, pool in pools:
            stats = pool.stats.as_dict()
            stats["low_watermark"], stats["high_watermark"] = pool.watermarks
            stats["level"] = pool.level
            stats["produced"] = pool.produced
            out[kind] = stats
        return out

    # -- preprocessing phase -------------------------------------------------
    def prefill(self, targets: dict, timeout: float = None, one_shot: bool = False) -> None:
        """Run the preprocessing phase: block until every pool in
        ``targets`` holds that many items produced ahead.

        ``targets`` maps pool kind (including ``mtri/...`` keys created
        beforehand via :meth:`matrix_pool`) to the number of items the
        online phase will draw.  On the leader this *raises the
        low watermark* to the target, so the worker also keeps the pool
        warm for the next batch after consumption -- the steady-state
        service shape.  Both parties call this before their online
        phase; the follower waits for the mirrored production to land.

        With ``one_shot=True`` the leader restores every targeted
        pool's pre-call watermarks once the targets are met: the plan
        is served exactly once and no inflated refill target is left
        behind to make the worker regenerate demand that will never
        come back (the pipelined-prefill contract).
        """
        timeout = self.tuning.take_timeout_s if timeout is None else timeout
        deadline = time.monotonic() + timeout
        with self._alloc_lock:
            for kind in targets:
                if kind not in self.pools:
                    raise ServiceError(f"prefill: unknown pool kind {kind!r}")
        saved = None
        if self.party == 0:
            if one_shot:
                saved = {kind: self.pools[kind].watermarks for kind in targets}
            for kind, count in targets.items():
                if count > 0:
                    self.pools[kind].raise_watermarks(low=count, high=count)
        self._wake.set()
        live = {kind: count for kind, count in targets.items() if count > 0}
        try:
            if self.party == 0:
                # Loop until every target holds SIMULTANEOUSLY: derived
                # production scheduled while one kind is being waited on
                # reserves raw COTs internally and can eat an
                # already-checked level back below its target.  Once all
                # derived targets are met that internal consumption
                # stops, so the re-check converges.
                while True:
                    for kind, count in live.items():
                        self._raise_if_failed()
                        self.pools[kind].wait_level(
                            count, deadline - time.monotonic()
                        )
                    if all(
                        self.pools[kind].level >= count
                        for kind, count in live.items()
                    ):
                        break
            else:
                for kind, count in live.items():
                    self._raise_if_failed()
                    # The follower never reserves, so "produced ahead" is
                    # measured against what it has already taken -- repeated
                    # prefills wait for fresh production, not history.
                    self.pools[kind].wait_available(
                        count, deadline - time.monotonic()
                    )
        finally:
            if saved is not None:
                for kind, (low, high) in saved.items():
                    self.pools[kind].set_watermarks(low, high)
        self._raise_if_failed()

    def raise_produce_targets(self, targets: dict) -> None:
        """Leader-side: schedule production out to absolute stream positions.

        ``targets`` maps pool kind to an absolute produced-count floor
        (see :meth:`CorrelationPool.raise_produce_target`).  Unlike
        :meth:`prefill` this does not block and does not touch
        watermarks: the pipelined planner raises one layer's targets,
        lets the online phase overlap, and the targets go inert as soon
        as production passes them.
        """
        if self.party != 0:
            raise ServiceError("only party 0 schedules production")
        with self._alloc_lock:
            for kind in targets:
                if kind not in self.pools:
                    raise ServiceError(
                        f"produce target: unknown pool kind {kind!r}"
                    )
            pools = {kind: self.pools[kind] for kind in targets}
        for kind, target in targets.items():
            pools[kind].raise_produce_target(target)
        self._wake.set()

    # -- worker -------------------------------------------------------------
    def _run(self) -> None:
        try:
            if self._shard_mgr is not None:
                # Sharded mode: base OTs run per shard pair over their
                # own sockets; the parent endpoints only contribute the
                # Delta and are never set up or extended.
                self._shard_mgr.start()
            else:
                self.ferret_fwd.setup(self._ch_fwd)
                if self.ferret_rev is not None:
                    self.ferret_rev.setup(self._ch_rev)
            self._ready.set()
            if self.party == 0:
                try:
                    self._run_loop(self._leader_loop)
                finally:
                    # Always tell the follower to wind down -- even when
                    # the leader loop died on an exception -- so its
                    # consumers fail fast instead of polling forever.
                    try:
                        self._ctl.send_bytes(encode_frame((OP_STOP, 0, 0, 0)))
                    except Exception:  # noqa: BLE001 - link may be gone
                        pass
            else:
                self._run_loop(self._follower_loop)
        except _StopRequested:
            pass  # a probe noticed stop() mid-wait: clean fast exit
        except BaseException as exc:  # noqa: BLE001 - crossing a thread
            self.error = exc
        finally:
            if self._shard_mgr is not None:
                try:
                    self._shard_mgr.stop()
                except Exception as exc:  # noqa: BLE001 - already unwinding
                    if self.error is None:
                        self.error = exc
            self._ready.set()
            for pool in self.pools.values():
                pool.close()

    def _run_loop(self, loop) -> None:
        """Run the party loop, restarting it once after a transient
        transport death (the restart-once contract: one more chance for
        a healed link, then the error is fatal and surfaces)."""
        while True:
            try:
                loop()
                return
            except _TRANSIENT as exc:
                if self.worker_restarts >= self.tuning.max_worker_restarts:
                    raise
                self.worker_restarts += 1
                self._enter_degraded(exc)
                if self.tracer.enabled:
                    self.tracer.instant(
                        "worker.restart", cat="degraded", cause=repr(exc)[:200]
                    )

    def _leader_loop(self) -> None:
        while not self._stop.is_set():
            self._check_peer_nack()
            if self.degraded_since is not None:
                if not self._leader_resync():
                    self._stop.wait(self.tuning.degraded_retry_s)
                    continue
            cmd = self._decide()
            if cmd is None:
                self._wake.wait(self.tuning.poll_interval_s)
                self._wake.clear()
                continue
            try:
                self._ctl.send_bytes(encode_frame(cmd))
                self._execute(cmd)
            except _TRANSIENT as exc:
                # The command's retry budget (sliced receives over a
                # self-healing transport) is spent: abandon it, serve
                # stock only, and try to resync with the peer.  The
                # command is NOT resent -- after the resync barrier the
                # scheduler re-decides from the rolled-back pool state.
                self._enter_degraded(exc)

    def _follower_loop(self) -> None:
        while True:
            try:
                frame = self._ctl.recv_bytes(timeout=0.2)
            except ChannelTimeout:
                if self._stop.is_set():
                    return
                continue
            op = bytes(frame[:4])
            if op == OP_STOP:
                return
            if op == OP_SYNC:
                self._follower_resync(frame)
                continue
            if op in (OP_SYNC_ACK, OP_NACK):
                continue  # stale resync chatter; barriers are leader-driven
            cmd = decode_frame(frame)
            if self.degraded_since is not None:
                # Commands issued before the leader noticed our failure:
                # keep pool consumption aligned without running the
                # (unservable) interactive protocol.
                self._align_stale_command(cmd)
                continue
            try:
                self._execute(cmd)
            except _TRANSIENT as exc:
                self._enter_degraded(exc)
                self._send_nack(exc)

    # -- resync barrier ------------------------------------------------------
    def _check_peer_nack(self) -> None:
        """Leader: drain ctl for a follower failure report (NACK)."""
        for frame in self._ctl.drain():
            if bytes(frame[:4]) == OP_NACK:
                detail = frame[4:].decode(errors="replace")
                self._enter_degraded(
                    ChannelError(f"peer reported command failure: {detail}")
                )

    def _send_nack(self, exc: Exception) -> None:
        """Follower: tell the leader promptly that execution failed, so
        it stops issuing commands we can no longer serve."""
        if self._nack_sent:
            return
        try:
            self._ctl.send_bytes(OP_NACK + repr(exc).encode()[:512])
            self._nack_sent = True
        except ChannelError:
            pass  # link fully down; the leader will notice by timeout

    def _produced_counts(self) -> dict:
        with self._alloc_lock:
            return {kind: pool.produced for kind, pool in self.pools.items()}

    def _leader_resync(self) -> bool:
        """One resync attempt: barrier + mutual rollback.  True on success.

        The leader publishes its per-pool produced counts; the follower
        drains every provisioning data channel (FIFO ordering guarantees
        all frames of the abandoned command precede the SYNC), replies
        with its own counts, and both sides roll every pool back to the
        elementwise minimum -- restoring the mirrored absolute-index
        streams.  At most ONE command can have completed asymmetrically
        (commands are sequential), so at most one pool moves.
        """
        self._sync_nonce += 1
        payload = {"nonce": self._sync_nonce, "produced": self._produced_counts()}
        try:
            self._ctl.send_bytes(OP_SYNC + json.dumps(payload).encode())
            deadline = time.monotonic() + self.tuning.retry.deadline_s
            while True:
                remaining = max(0.05, deadline - time.monotonic())
                frame = self._ctl.recv_bytes(timeout=remaining)
                op = bytes(frame[:4])
                if op == OP_NACK:
                    continue  # already degraded; the barrier supersedes it
                if op != OP_SYNC_ACK:
                    raise ChannelError(
                        f"resync expected SACK, got {op!r}"
                    )
                reply = json.loads(frame[4:].decode())
                if reply.get("nonce") == self._sync_nonce:
                    break
                # A stale ack from an earlier attempt: keep waiting.
            # All follower frames from the abandoned command precede its
            # SACK on the wire, so they are queued by now: drop them.
            for ch in self._data_channels:
                ch.base.drain()
            self._rollback_pools(reply["produced"])
        except _TRANSIENT:
            return False
        self.resyncs += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "service.resync", cat="resync", role="leader", nonce=self._sync_nonce
            )
        self._clear_degraded()
        return True

    def _follower_resync(self, frame: bytes) -> None:
        """Answer a leader resync barrier (see :meth:`_leader_resync`)."""
        payload = json.loads(frame[4:].decode())
        # Every leader frame from the abandoned command precedes the
        # SYNC on the wire, so the stray data frames are queued: drain
        # them before acking, then roll back to the mutual minimum.
        for ch in self._data_channels:
            ch.base.drain()
        mine = self._produced_counts()
        try:
            self._ctl.send_bytes(
                OP_SYNC_ACK
                + json.dumps({"nonce": payload["nonce"], "produced": mine}).encode()
            )
        except ChannelError as exc:
            self._enter_degraded(exc)
            return
        self._rollback_pools(payload["produced"])
        self.resyncs += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "service.resync",
                cat="resync",
                role="follower",
                nonce=payload["nonce"],
            )
        self._clear_degraded()

    def _rollback_pools(self, peer_produced: dict) -> None:
        """Roll every pool back to min(local, peer) produced counts.

        A COT pool that moves also restores its Ferret endpoint to the
        snapshot taken before the rolled-back extend, so the re-run
        extend consumes matching LPN/SPCOT state on both parties.
        """
        with self._alloc_lock:
            pools = dict(self.pools)
        for kind, pool in pools.items():
            # Parked out-of-order shard segments are one-sided state: a
            # segment that survived here but not on the peer would later
            # collide with the peer's re-produced range (duplicate or
            # overlapping-segment ServiceError at merge time).  The
            # barrier discards them on BOTH sides unconditionally --
            # even pools whose produced frontier does not move can be
            # holding parked futures above it.
            self.segments_dropped += pool.drop_pending_segments()
            target = min(pool.produced, int(peer_produced.get(kind, pool.produced)))
            if target >= pool.produced:
                continue
            if kind in ("cot/fwd", "cot/rev"):
                direction = "fwd" if kind == "cot/fwd" else "rev"
                last = self._last_extend.get(direction)
                if last is None or last[1] != target:
                    raise ServiceError(
                        f"resync: pool {kind} must roll back to {target} but "
                        f"the last extend snapshot covers "
                        f"{None if last is None else last[1]}; more than one "
                        f"extend diverged -- state unrecoverable"
                    )
                self._ferret_restore(direction, last[0])
            self.rolled_back += pool.rollback_to(target)

    def _align_stale_command(self, cmd) -> None:
        """Keep consumption aligned for commands issued before the
        leader noticed our failure (we cannot run their interactive
        protocol any more, but the leader consumed their inputs).

        Local ROT conversions execute fully when their input range is
        available -- identical output on both sides, pools stay level.
        Interactive commands only have their pool *inputs* consumed
        (the leader's execution of them timed out too, so neither side
        appended output).  Inputs not yet produced locally are left to
        the resync rollback, which erases the leader's view of them.
        """
        if cmd[0] in _EXTEND_DIR:
            return  # extends consume no pool inputs: nothing to align
        job = parse_command(cmd, self.tuning.ring_bits)
        if job.recipe.local:
            if all(self.pools[kind].produced >= lo + n for kind, lo, n in job.takes):
                self._produce(job)
            return
        self._output(job)  # a keyed output pool exists on both sides
        for kind, lo, n in job.takes:
            if n > 0 and self.pools[kind].produced >= lo + n:
                self.pools[kind].take_columns(lo, n)

    # -- ferret endpoint snapshots -------------------------------------------
    def _endpoint(self, direction: str):
        return self.ferret_fwd if direction == "fwd" else self.ferret_rev

    def _ferret_snapshot(self, direction: str) -> dict:
        """Capture the mutable mid-stream state of one Ferret endpoint.

        ``extend`` is compute-then-commit except for the endpoint's own
        rng, the SPCOT base-COT cursor, and the LPN seed refs it swaps
        at the end -- exactly the fields below.  Restoring them makes a
        retried extend bit-compatible with the peer's fresh run.
        """
        ep = self._endpoint(direction)
        return {
            "rng_state": ep.rng.bit_generator.state,
            "lpn_r": getattr(ep, "_lpn_r", None),
            "lpn_e": getattr(ep, "_lpn_e", None),
            "lpn_s": getattr(ep, "_lpn_s", None),
            "spcot_pool": ep._spcot_pool,
            "spcot_cursor": None if ep._spcot_pool is None else ep._spcot_pool._cursor,
            "iterations": ep.iterations,
        }

    def _ferret_restore(self, direction: str, snap: dict) -> None:
        ep = self._endpoint(direction)
        ep.rng.bit_generator.state = snap["rng_state"]
        if hasattr(ep, "_lpn_r"):
            ep._lpn_r = snap["lpn_r"]
        if hasattr(ep, "_lpn_e"):
            ep._lpn_e = snap["lpn_e"]
            ep._lpn_s = snap["lpn_s"]
        ep._spcot_pool = snap["spcot_pool"]
        if ep._spcot_pool is not None:
            ep._spcot_pool._cursor = snap["spcot_cursor"]
        ep.iterations = snap["iterations"]

    def _starved(self, kind: str):
        """Derived production is starved on raw COT pool ``kind``.

        Unsharded, the extend itself becomes the next command.  Sharded,
        extends are not commands: nudge the shard fleet to keep at least
        one extend of that direction in flight and return ``None`` so
        the loop sleeps on ``_wake`` until the merger lands a batch.
        """
        if self._shard_mgr is None:
            return (EXTEND[kind], 0, 0, 0)
        self._shard_mgr.request_extend(kind[4:])
        return None

    def _decide(self):
        """Leader scheduling: pick the next production command, if any.

        Extends come first (they are the only source of raw COTs), then
        one recipe per derived pool in table order -- keyed pools in
        creation order -- over ranges that are *already produced*, so
        the worker never deadlocks on its own output.

        In sharded mode extends never become commands: raw-COT deficits
        are dispatched to the shard workers instead, and derived
        production waits for the merged pools to fill.
        """
        pools = self.pools
        if self._shard_mgr is not None:
            self._shard_mgr.request_refills()
        else:
            for kind, op in EXTEND.items():
                if kind in pools and pools[kind].needs_refill():
                    return (op, 0, 0, 0)
        with self._alloc_lock:
            for recipe in RECIPES:
                for kind, pool in list(pools.items()):
                    if recipe.fills(kind) and pool.needs_refill():
                        return self._schedule(recipe, pool, pool.deficit)
        return None

    def _schedule(self, recipe, pool, deficit: int):
        """One ``recipe`` command toward ``deficit`` more items of
        ``pool`` (caller holds the allocation lock).

        A batch makes ``min(deficit, cap, level_i // need_i)`` items.
        When an input is short the scheduler starves on it instead: a
        raw-COT pool (the emptier one when both directions are short)
        becomes an extend; a derived pool -- the bit triples truncation
        pairs eat -- runs its own recipe for what the capped batch
        lacks.  An :data:`EITHER` input draws from the direction with
        more stock, the Gilboa sender role of both matrix cross terms
        belonging to that direction's COT sender.
        """
        pools = self.pools
        direction = int(COT_REV in pools and pools[COT_REV].level > pools[COT_FWD].level)
        inputs = [
            (resolve(kind, direction), need)
            for kind, need in recipe.inputs(pool.key_args, self.tuning.ring_bits)
        ]
        cap = recipe.cap(self.tuning)
        want = min([deficit, cap] + [pools[kind].level // need for kind, need in inputs])
        if want <= 0:
            short = [(kind, need) for kind, need in inputs if pools[kind].level < need]
            raw = [kind for kind, _ in short if kind in EXTEND]
            if raw:
                return self._starved(min(raw, key=lambda kind: pools[kind].level))
            if not short:
                return None
            kind, need = short[0]
            lacking = max(min(deficit, cap) * need - pools[kind].level, 1)
            return self._schedule(recipe_for(kind), pools[kind], lacking)
        offsets = [pools[kind].try_reserve_produced(want * need) for kind, need in inputs]
        if None in offsets:  # pragma: no cover - racing
            return None
        return recipe.command(want, pool.key_args, direction, offsets)

    def _execute(self, cmd) -> None:
        tr = self.tracer
        if not tr.enabled:
            return self._execute_cmd(cmd)
        op = cmd[0].decode("ascii", errors="replace").rstrip("\x00")
        with tr.span(f"produce.{op}", cat="produce", n=int(cmd[1])):
            return self._execute_cmd(cmd)

    def _execute_cmd(self, cmd) -> None:
        if cmd[0] in _EXTEND_DIR:
            self._run_extend(_EXTEND_DIR[cmd[0]])
        else:
            self._produce(parse_command(cmd, self.tuning.ring_bits))

    def _run_extend(self, direction: str) -> None:
        """One extend, snapshot-protected for abandon/rollback.

        Extend mutates endpoint state mid-protocol (rng draws, SPCOT
        cursor, LPN seed swap), so a transient failure restores the
        pre-extend snapshot before propagating -- and a *completed*
        extend keeps its snapshot in ``_last_extend`` so a later resync
        can undo it if the peer's half never finished.
        """
        pool = self.pools[f"cot/{direction}"]
        channel = self._ch_fwd if direction == "fwd" else self._ch_rev
        snap = self._ferret_snapshot(direction)
        produced_before = pool.produced
        try:
            batch = self._endpoint(direction).extend(channel)
        except _TRANSIENT:
            self._ferret_restore(direction, snap)
            raise
        pool.append_batch(batch)
        self._last_extend[direction] = (snap, produced_before)
        self.extends[direction] += 1

    # -- derived production: one producer per recipe ------------------------
    def _output(self, job):
        """The pool ``job`` fills (a keyed pool is created on first use)."""
        recipe = job.recipe
        if recipe.family:
            return getattr(self, recipe.family)(*job.key)
        return self.pools[recipe.output]

    def _produce(self, job) -> None:
        """Run ``job``'s producer on its output pool and its input ranges
        (each taken at the size its recipe charges)."""
        inputs = [self.pools[kind].take_batch(lo, n) for kind, lo, n in job.takes]
        getattr(self, job.recipe.produce)(self._output(job), job, *inputs)

    def _produce_triples(self, pool, job, fwd, rev) -> None:
        """Both workers run one triple-generation batch in lockstep."""
        lo_fwd, _ = job.offsets
        if self.party == 0:
            send_pool, recv_pool = CotPool(sender=fwd), CotPool(receiver=rev)
        else:
            send_pool, recv_pool = CotPool(sender=rev), CotPool(receiver=fwd)
        triples = generate_bit_triples(
            self._ch_tri, job.n, send_pool, recv_pool, self._rng,
            party=self.party, tweak_base=lo_fwd,
        )
        pool.append_columns((triples.a, triples.b, triples.c))

    def _produce_ring_triples(self, pool, job, fwd, rev) -> None:
        """Lockstep Gilboa ring-triple batch over both COT directions."""
        lo_fwd, lo_rev = job.offsets
        if self.party == 0:
            send_pool, recv_pool = CotPool(sender=fwd), CotPool(receiver=rev)
            send_tweak, recv_tweak = lo_fwd, lo_rev
        else:
            send_pool, recv_pool = CotPool(sender=rev), CotPool(receiver=fwd)
            send_tweak, recv_tweak = lo_rev, lo_fwd
        triples = generate_ring_triples(
            self._ch_rtri, job.n, pool.bits, send_pool, recv_pool, self._rng,
            party=self.party, send_tweak_base=send_tweak, recv_tweak_base=recv_tweak,
        )
        pool.append_columns((triples.a, triples.b, triples.c))

    def _produce_matrix_triple(self, pool, job, batch) -> None:
        """Generate one (m,k,n) matrix triple from one direction's COTs.

        ``job.direction`` 0 draws from cot/fwd (party 0 is the Ferret --
        and therefore Gilboa -- sender), 1 from cot/rev (party 1 sends):
        both Fig 16 role directions are live code paths picked by stock.
        """
        (lo,) = job.offsets
        if (self.party == 0) == (job.direction == 0):
            cot_pool = CotPool(sender=batch)
        else:
            cot_pool = CotPool(receiver=batch)
        triple = generate_matrix_triples(
            self._ch_mtri, MatmulDims(*job.key), pool.bits, cot_pool, self._rng,
            party=self.party, ot_sender=job.direction, tweak_base=lo,
        )
        pool.append_triple(triple)

    def _produce_trunc_pairs(self, pool, job, batch, triples) -> None:
        """Lockstep truncation-pair batch: forward COTs + pooled triples.

        Party 0 is the millionaires'/Gilboa OT sender (the forward COT
        direction), mirroring the online wrap-fixed protocol's roles.
        """
        lo_cot, _ = job.offsets
        if self.party == 0:
            cot_pool = CotPool(sender=batch)
        else:
            cot_pool = CotPool(receiver=batch)
        pairs = generate_trunc_pairs(
            self._ch_tprc, job.n, pool.bits, pool.frac_bits, cot_pool, triples,
            self._rng, party=self.party, tweak_base=lo_cot,
        )
        pool.append_columns((pairs.r, pairs.s))

    def _produce_rots(self, pool, job, batch) -> None:
        """Figure 2 conversion of pooled COTs into random OTs (local)."""
        ((kind, lo, _),) = job.takes
        if (self.party == 0) == (kind == COT_FWD):
            m0, m1 = cot_to_random_ot_sender(batch, tweak_base=lo)
            pool.append_columns((m0, m1))
        else:
            bits, chosen = cot_to_random_ot_receiver(batch, tweak_base=lo)
            pool.append_columns((bits, chosen))


class ServiceSession:
    """One consumer's handle on the service: typed draws + a channel.

    The session's sub-channel carries both the allocation offsets and
    whatever protocol traffic the consumer runs; peers must create
    sessions with matching names and issue draws in the same order
    (which any two-party protocol does naturally).
    """

    def __init__(self, service: CorrelationService, channel, name: str):
        self.service = service
        self.channel = channel
        self.name = name

    @property
    def party(self) -> int:
        return self.service.party

    # -- allocation handshake ------------------------------------------------
    def _alloc(self, kind: str, n: int) -> int:
        """Party 0 reserves and announces the range; party 1 receives it."""
        if self.party == 0:
            lo = self.service.reserve(kind, n)
            self.channel.send_int(lo)
        else:
            lo = self.channel.recv_int()
        tr = self.service.tracer
        if tr.enabled:
            tr.instant(
                "session.alloc", cat="session",
                session=self.name, kind=kind, n=n, lo=lo,
            )
        return lo

    def _take(self, kind: str, lo: int, n: int):
        return self.service.pools[kind].take_batch(
            lo, n, timeout=self.service.tuning.take_timeout_s
        )

    def _alloc_many(self, requests: list) -> list:
        """One allocation round-trip for several draws.

        ``requests`` is a list of ``(kind, n)``; party 0 reserves every
        range and announces ALL offsets in one message (a uint64
        vector), so a fused verb pays one wire round for its whole
        correlation shopping list instead of one per pool kind.
        """
        if self.party == 0:
            offsets = [self.service.reserve(kind, n) for kind, n in requests]
            self.channel.send_ring(np.asarray(offsets, dtype=np.uint64))
        else:
            got = self.channel.recv_ring()
            if got.shape[0] != len(requests):
                raise ServiceError(
                    f"fused allocation expected {len(requests)} offsets, "
                    f"got {got.shape[0]}"
                )
            offsets = [int(v) for v in got]
        tr = self.service.tracer
        if tr.enabled:
            tr.instant(
                "session.alloc", cat="session", session=self.name,
                kinds=",".join(kind for kind, _ in requests),
            )
        return offsets

    # -- typed draws ---------------------------------------------------------
    def draw_sender_cots(self, n: int) -> tuple:
        """(CotSenderBatch, absolute offset) in this party's send direction."""
        kind = "cot/fwd" if self.party == 0 else "cot/rev"
        lo = self._alloc(kind, n)
        return self._take(kind, lo, n), lo

    def draw_receiver_cots(self, n: int) -> tuple:
        """(CotReceiverBatch, absolute offset); pairs the peer's sender draw."""
        kind = "cot/rev" if self.party == 0 else "cot/fwd"
        lo = self._alloc(kind, n)
        return self._take(kind, lo, n), lo

    def sender_cot_pool(self, n: int) -> CotPool:
        batch, _ = self.draw_sender_cots(n)
        return CotPool(sender=batch)

    def receiver_cot_pool(self, n: int) -> CotPool:
        batch, _ = self.draw_receiver_cots(n)
        return CotPool(receiver=batch)

    def draw_triples(self, n: int):
        """This party's shares of n pooled Beaver bit triples."""
        lo = self._alloc("tri", n)
        return self.service.pools["tri"].take_triples(
            lo, n, timeout=self.service.tuning.take_timeout_s
        )

    def draw_ring_triples(self, n: int):
        """This party's shares of n pooled mod-2^k Beaver triples."""
        lo = self._alloc("rtri", n)
        return self.service.pools["rtri"].take_triples(
            lo, n, timeout=self.service.tuning.take_timeout_s
        )

    def draw_trunc_pairs(self, n: int, frac_bits: int):
        """This party's shares of n pooled truncation pairs (r, r>>frac).

        Both parties' calls ensure the frac-keyed pool exists locally;
        the leader reserves the range and announces its offset.
        """
        pool = self.service.trunc_pool(frac_bits)
        lo = self._alloc(pool.name, n)
        return pool.take_pairs(lo, n, timeout=self.service.tuning.take_timeout_s)

    def draw_matrix_triple(self, m: int, k: int, n: int):
        """One pooled matrix Beaver triple of shape (m, k) @ (k, n).

        Both parties' calls ensure the shape-keyed pool exists locally;
        the leader reserves the next triple and announces its offset.
        A warm (prefilled) pool serves instantly; a cold pool stalls
        here while the service produces on demand.
        """
        pool = self.service.matrix_pool(m, k, n)
        lo = self._alloc(pool.name, 1)
        return pool.take_triple(lo, timeout=self.service.tuning.take_timeout_s)

    def draw_matmul_rescale(self, m: int, k: int, n: int, fx, mode: str = "pair"):
        """Fused matmul+rescale draw: ONE allocation round-trip covers
        the matrix-triple draw AND the truncation material for the
        ``m*n`` product elements.

        Returns ``(matrix_triple, trunc_material)`` where the material
        dict holds ``pairs`` (pair mode) or ``cot_pool`` / ``triples``
        / ``ring_triples`` (wrap/exact mode) -- exactly what
        :func:`repro.mpc.truncation.truncate_pair_online` /
        :func:`~repro.mpc.truncation.truncate_shares` consume.  The
        per-kind draw counts are identical to the unfused
        ``draw_matrix_triple`` + ``trunc_via_service`` path, so
        preprocessing plans price both the same.
        """
        from repro.mpc.truncation import (
            trunc_bit_triples,
            trunc_cots,
            trunc_ring_triples,
        )

        svc_bits = self.service.tuning.ring_bits
        if svc_bits != fx.bits:
            raise ServiceError(
                f"service produces {svc_bits}-bit correlations, "
                f"config wants {fx.bits}"
            )
        mpool = self.service.matrix_pool(m, k, n)
        n_el = m * n
        requests = [(mpool.name, 1)]
        if mode == "pair":
            tpool = self.service.trunc_pool(fx.frac_bits)
            requests.append((tpool.name, n_el))
        elif mode in ("wrap", "exact"):
            exact = mode == "exact"
            requests.append(("cot/fwd", trunc_cots(n_el, fx, exact)))
            requests.append(("tri", trunc_bit_triples(n_el, fx, exact)))
            requests.append(("rtri", trunc_ring_triples(n_el, fx, exact)))
        else:
            raise ServiceError(f"unknown truncation mode {mode!r}")
        offsets = self._alloc_many(requests)
        timeout = self.service.tuning.take_timeout_s
        triple = mpool.take_triple(offsets[0], timeout=timeout)
        if mode == "pair":
            pairs = tpool.take_pairs(offsets[1], n_el, timeout=timeout)
            return triple, {"pairs": pairs}
        batch = self._take("cot/fwd", offsets[1], requests[1][1])
        cot_pool = (
            CotPool(sender=batch) if self.party == 0 else CotPool(receiver=batch)
        )
        triples = self.service.pools["tri"].take_triples(
            offsets[2], requests[2][1], timeout=timeout
        )
        ring_triples = self.service.pools["rtri"].take_triples(
            offsets[3], requests[3][1], timeout=timeout
        )
        return triple, {
            "cot_pool": cot_pool,
            "triples": triples,
            "ring_triples": ring_triples,
        }

    def draw_random_ots_send(self, n: int) -> tuple:
        """(m0, m1) random-OT message pairs (this party is the sender)."""
        kind = "rot/fwd" if self.party == 0 else "rot/rev"
        lo = self._alloc(kind, n)
        return self.service.pools[kind].take_pairs(
            lo, n, timeout=self.service.tuning.take_timeout_s
        )

    def draw_random_ots_receive(self, n: int) -> tuple:
        """(choice bits, chosen messages); pairs the peer's send draw."""
        kind = "rot/rev" if self.party == 0 else "rot/fwd"
        lo = self._alloc(kind, n)
        return self.service.pools[kind].take_pairs(
            lo, n, timeout=self.service.tuning.take_timeout_s
        )

    # -- chosen-message OT straight off the pool -----------------------------
    def ot_send(self, messages0: np.ndarray, messages1: np.ndarray) -> None:
        """Chosen-message OT sender over the session channel."""
        n = messages0.shape[0]
        batch, lo = self.draw_sender_cots(n)
        tweaks = np.arange(lo, lo + n, dtype=np.uint64)
        ot_send_from_cot(self.channel, batch, messages0, messages1, tweaks=tweaks)

    def ot_receive(self, choices: np.ndarray) -> np.ndarray:
        """Chosen-message OT receiver; returns messages[choices[i]]."""
        n = np.asarray(choices).shape[0]
        batch, lo = self.draw_receiver_cots(n)
        tweaks = np.arange(lo, lo + n, dtype=np.uint64)
        return ot_receive_from_cot(self.channel, batch, choices, tweaks=tweaks)
