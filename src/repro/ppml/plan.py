"""Preprocessing planner: exact correlation demand for a model graph.

Ironman's premise is that COT correlations are *preprocessing*: the
accelerator mass-produces them ahead of time and the online phase
merely consumes them (Section 5.2, Figure 16).  This module is the
bridge from a model to that contract: walk a :class:`repro.ppml.layers.Graph`
trace, charge every layer its exact correlation demand -- matrix-triple
shapes for linear/conv layers, comparison COTs + bit triples + mux COTs
for ReLU/MaxPool -- and drive a :class:`repro.runtime.CorrelationService`
to prefill its pools before the online phase starts.

Demand counts mirror the *executable* consumers one-for-one:
``relu_demand`` counts exactly what :func:`repro.mpc.relu.relu_via_service`
draws, ``matmul_demand`` what :func:`repro.mpc.matmul.matmul_via_service`
draws, so a prefilled service serves the whole online phase without a
single production stall (asserted by the test suite).
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ParameterError, ServiceError, WaitTimeout
from repro.mpc.compare import cots_needed, triples_needed
from repro.mpc.matmul import MatmulDims
from repro.mpc.truncation import (
    FixedPointConfig,
    trunc_bit_triples,
    trunc_cots,
    trunc_ring_triples,
)
from repro.ppml.layers import Conv2d, Graph, Linear
from repro.runtime.pool import MatrixTriplePool, TruncPairPool
from repro.runtime.recipes import COT_FWD, COT_REV, EITHER, MTRI, RTRI, TPRC, TRI, expand


@dataclass
class CorrelationDemand:
    """Exact correlation counts one workload draws from the service.

    Directions are named from the shared pool perspective: ``cot_fwd``
    is the direction where party 0 is the COT sender.  ``matrix`` maps
    :class:`MatmulDims` to triple counts; ``unplanned`` records
    nonlinear/linear work with no executable OT protocol here yet
    (GELU, softmax, layernorm, raw attention MACs) so a plan is honest
    about its coverage.
    """

    cot_fwd: int = 0
    cot_rev: int = 0
    bit_triples: int = 0
    ring_triples: int = 0
    matrix: dict = field(default_factory=dict)
    trunc_pairs: dict = field(default_factory=dict)  # frac_bits -> count
    unplanned: dict = field(default_factory=dict)

    def merge(self, other: "CorrelationDemand") -> "CorrelationDemand":
        self.cot_fwd += other.cot_fwd
        self.cot_rev += other.cot_rev
        self.bit_triples += other.bit_triples
        self.ring_triples += other.ring_triples
        for dims, count in other.matrix.items():
            self.matrix[dims] = self.matrix.get(dims, 0) + count
        for frac, count in other.trunc_pairs.items():
            self.trunc_pairs[frac] = self.trunc_pairs.get(frac, 0) + count
        for kind, count in other.unplanned.items():
            self.unplanned[kind] = self.unplanned.get(kind, 0) + count
        return self

    @property
    def matrix_triples(self) -> int:
        return sum(self.matrix.values())

    def internal(self, bits: int) -> dict:
        """Every input the derived part of this demand consumes while it
        is produced (:func:`repro.runtime.recipes.expand`): raw COTs per
        direction, ``cot/*`` for matrix triples (one direction, picked
        at runtime), and the bit triples truncation pairs eat."""
        items = [(TRI, (), self.bit_triples), (RTRI, (), self.ring_triples)]
        items += [(MTRI, (d.m, d.k, d.n), count) for d, count in self.matrix.items()]
        items += [(TPRC, (frac,), count) for frac, count in self.trunc_pairs.items()]
        return expand(items, bits)

    def total_cots(self, ring_bits: int) -> int:
        """All raw COTs behind this demand (consumer draws + derived)."""
        inner = self.internal(ring_bits)
        return self.cot_fwd + self.cot_rev + sum(
            inner.get(kind, 0) for kind in (COT_FWD, COT_REV, EITHER)
        )

    def as_pool_targets(self) -> dict:
        """Pool kind -> item count, the :meth:`CorrelationService.prefill`
        input (zero entries omitted)."""
        targets = {
            "cot/fwd": self.cot_fwd,
            "cot/rev": self.cot_rev,
            "tri": self.bit_triples,
            "rtri": self.ring_triples,
        }
        for dims, count in self.matrix.items():
            targets[MatrixTriplePool.key_for(dims.m, dims.k, dims.n)] = count
        for frac, count in self.trunc_pairs.items():
            targets[TruncPairPool.key_for(frac)] = count
        return {kind: count for kind, count in targets.items() if count > 0}


def relu_demand(n_elements: int, bits: int) -> CorrelationDemand:
    """Exactly what ``relu_via_service`` draws for n shared elements:
    comparison COTs (P0 sender), one mux COT per element per direction,
    and the comparison's bit triples."""
    cmp_bits = bits - 1
    return CorrelationDemand(
        cot_fwd=cots_needed(n_elements, cmp_bits) + n_elements,
        cot_rev=n_elements,
        bit_triples=triples_needed(n_elements, cmp_bits),
    )


def max_demand(n_comparisons: int, bits: int) -> CorrelationDemand:
    """Secure max costs one ReLU per pairwise comparison (maxpool_cmp)."""
    return relu_demand(n_comparisons, bits)


def matmul_demand(dims: MatmulDims, count: int = 1) -> CorrelationDemand:
    """One preprocessed matrix triple per secure MatMul of this shape."""
    return CorrelationDemand(matrix={dims: count})


def mul_demand(n_elements: int) -> CorrelationDemand:
    """Elementwise Beaver multiplication: one ring triple per element."""
    return CorrelationDemand(ring_triples=n_elements)


def trunc_demand(
    n_elements: int, fx: FixedPointConfig, mode: str = "exact"
) -> CorrelationDemand:
    """Exactly what ``trunc_via_service`` draws for n rescaled elements.

    ``pair`` mode consumes one pooled truncation pair per element (the
    one-round probabilistic protocol); ``wrap``/``exact`` consume the
    comparison COTs (party 0 sender), their bit triples, and the ring
    triples the B2A of the correction bits multiplies with.
    """
    if mode == "pair":
        return CorrelationDemand(trunc_pairs={fx.frac_bits: n_elements})
    if mode not in ("wrap", "exact"):
        raise ParameterError(f"unknown truncation mode {mode!r}")
    exact = mode == "exact"
    return CorrelationDemand(
        cot_fwd=trunc_cots(n_elements, fx, exact),
        bit_triples=trunc_bit_triples(n_elements, fx, exact),
        ring_triples=trunc_ring_triples(n_elements, fx, exact),
    )


def layer_demand(
    layer,
    in_shape: tuple,
    out_shape: tuple,
    bits: int,
    fx: FixedPointConfig = None,
    trunc_mode: str = "exact",
) -> CorrelationDemand:
    """Correlation demand of one applied layer.

    Linear/Conv2d become matrix-triple shapes (conv via im2col, one
    triple per group); ReLU-family activations and MaxPool comparisons
    charge the exact service draws; Rescale layers charge truncation
    demand when a :class:`FixedPointConfig` is given; every other cost
    lands in ``unplanned`` so coverage gaps are visible, not silent.
    """
    demand = CorrelationDemand()
    if isinstance(layer, Linear):
        m = math.prod(in_shape[:-1]) if len(in_shape) > 1 else 1
        demand.merge(matmul_demand(MatmulDims(m, in_shape[-1], layer.out_features)))
        return demand
    if isinstance(layer, Conv2d):
        c = in_shape[0]
        _, oh, ow = out_shape
        dims = MatmulDims(
            oh * ow,
            (c // layer.groups) * layer.kernel * layer.kernel,
            layer.out_channels // layer.groups,
        )
        demand.merge(matmul_demand(dims, count=layer.groups))
        return demand
    _, cost = layer.apply(in_shape)
    for kind, count in cost.nonlinear.items():
        if kind == "relu":
            demand.merge(relu_demand(count, bits))
        elif kind == "maxpool_cmp":
            demand.merge(max_demand(count, bits))
        elif kind == "trunc" and fx is not None:
            if fx.bits != bits:
                raise ParameterError(
                    f"fixed-point config is {fx.bits}-bit but the plan ring is {bits}-bit"
                )
            demand.merge(trunc_demand(count, fx, trunc_mode))
        else:
            # relu6 (two comparisons, no service protocol yet), gelu,
            # softmax, layernorm, avgpool truncation: honest gaps.
            demand.unplanned[kind] = demand.unplanned.get(kind, 0) + count
    if cost.macs:
        demand.unplanned["macs"] = demand.unplanned.get("macs", 0) + cost.macs
    return demand


def _layer_produce_counts(demand: CorrelationDemand, bits: int) -> dict:
    """Pool production one layer's demand requires, per kind.

    Consumer draws (``as_pool_targets``) plus the derived inputs this
    layer's production consumes *internally* -- the bit triples
    truncation-pair generation eats, which the worker must have
    produced before the TPRC batch can run.
    """
    counts = dict(demand.as_pool_targets())
    for kind, count in demand.internal(bits).items():
        if not kind.startswith("cot/") and count:
            counts[kind] = counts.get(kind, 0) + count
    return counts


def _layer_internal_cots(demand: CorrelationDemand, bits: int) -> dict:
    """Raw COTs one layer's *derived production* reserves internally.

    A matrix triple draws its whole demand from ONE direction chosen by
    stock at runtime, so it is charged to BOTH directions here --
    conservative by at most one layer's matrix demand in the unused
    direction, which the extend batch quantum absorbs.  The pipeline
    adds this margin to the raw COT watermark *before* scheduling the
    layer's derived production, so internal reserves can never eat the
    stock that keeps already ready layers' consumer draws warm.
    """
    inner = demand.internal(bits)
    counts = {
        kind: inner.get(kind, 0) + inner.get(EITHER, 0) for kind in (COT_FWD, COT_REV)
    }
    return {kind: count for kind, count in counts.items() if count}


#: Column titles matching :meth:`PreprocessingPlan.summary_rows`.
SUMMARY_HEADER = ["layer", "cot_fwd", "cot_rev", "bit triples", "matrix", "trunc pairs"]


@dataclass
class PreprocessingPlan:
    """A model's full preprocessing schedule: per-layer + total demand."""

    model: str
    bits: int
    demand: CorrelationDemand
    per_layer: list  # (layer name, CorrelationDemand)

    def pool_targets(self) -> dict:
        return self.demand.as_pool_targets()

    def _validate_service(self, service) -> None:
        if service.tuning.ring_bits != self.bits:
            raise ParameterError(
                f"plan is for {self.bits}-bit rings but the service produces "
                f"{service.tuning.ring_bits}-bit triples"
            )

    def _ensure_pools(self, service) -> None:
        for dims in self.demand.matrix:
            service.matrix_pool(dims.m, dims.k, dims.n)
        for frac in self.demand.trunc_pairs:
            service.trunc_pool(frac)

    def prefill(self, service, timeout: float = None, one_shot: bool = False) -> None:
        """Drive one party's service through the preprocessing phase.

        Ensures every shape-keyed matrix pool exists, then blocks until
        all planned correlations are produced ahead.  Both parties call
        this (leader raises watermarks, follower waits for the mirrored
        production); afterwards the online phase runs stall-free.
        ``one_shot=True`` restores the pre-plan watermarks once the
        targets are met, so a plan served exactly once does not leave
        inflated refill targets behind.
        """
        self._validate_service(service)
        self._ensure_pools(service)
        service.prefill(self.pool_targets(), timeout, one_shot=one_shot)

    def layer_schedule(self) -> tuple:
        """Per-layer production targets for the pipeline.

        Returns ``(cum_derived, cum_cot, internal_cot)``: for each
        layer index, the total items every derived pool kind must have
        produced for layers ``0..i`` inclusive (consumer draws plus the
        bit triples TPRC generation consumes internally); the
        cumulative raw consumer COT draws per direction; and that
        single layer's internal raw-COT production demand
        (:func:`_layer_internal_cots`).  Raw COT stock is managed by
        level watermarks rather than stream positions because extends
        arrive in fixed-size batches and derived production also feeds
        on them.
        """
        cum_derived, cum_cot, internal_cot = [], [], []
        total_d, total_c = {}, {}
        for _, demand in self.per_layer:
            for kind, count in _layer_produce_counts(demand, self.bits).items():
                if kind.startswith("cot/"):
                    total_c[kind] = total_c.get(kind, 0) + count
                else:
                    total_d[kind] = total_d.get(kind, 0) + count
            cum_derived.append(dict(total_d))
            cum_cot.append(dict(total_c))
            internal_cot.append(_layer_internal_cots(demand, self.bits))
        return cum_derived, cum_cot, internal_cot

    def prefill_pipelined(
        self,
        service,
        timeout: float = None,
        tag: str = None,
        batch: int = 1,
        channel=None,
        draws_baseline: dict = None,
    ) -> "PipelinedPrefill":
        """Start the streaming preprocessing pipeline (non-blocking).

        Both parties call this with their service, then run the online
        phase layer by layer, gating each layer's draws on
        :meth:`PipelinedPrefill.wait_layer`.  Layer i's online rounds
        run while the worker produces layer i+1's correlations in the
        background -- the software analogue of Ironman's schedule
        overlap (Fig. 8) -- so time-to-first-layer-online is one
        layer's preprocessing, not the whole plan's.  Call
        :meth:`PipelinedPrefill.finish` after the online phase to
        restore steady-state watermarks and surface worker errors.

        ``batch`` scales every per-layer produce target and raw-COT
        watermark by B: the online phase then pushes B inputs through
        the same plan (B matrix-triple draws per linear layer, B-times
        the elements through each fused nonlinear draw).  ``channel``
        reuses an existing sub-channel for the in-band baseline
        exchange instead of allocating a fresh ``pipe/<plan>`` tag --
        long-lived daemons start many pipelines and per-pipeline tags
        would leak mux queues.  ``draws_baseline`` overrides the live
        per-kind session-draw snapshot the raw-COT watermarks are
        computed against: a pipeline overlapping a previous request's
        online tail passes the PLANNED cumulative floor instead, so the
        tail's still-draining draws are not mistaken for its own.
        """
        self._validate_service(service)
        self._ensure_pools(service)
        return PipelinedPrefill(
            self, service, timeout, tag, batch, channel, draws_baseline
        )

    def summary_rows(self) -> list:
        """Printable per-layer rows: layer, COTs per direction, bit
        triples, matrix-triple shapes, and truncation pairs (for
        ``print_table`` with :data:`SUMMARY_HEADER`)."""
        rows = []
        for name, d in self.per_layer:
            mats = ", ".join(
                f"{dims.label}x{count}" for dims, count in d.matrix.items()
            ) or "-"
            pairs = ", ".join(
                f"f{frac}x{count}" for frac, count in d.trunc_pairs.items()
            ) or "-"
            rows.append(
                [name, str(d.cot_fwd), str(d.cot_rev), str(d.bit_triples), mats, pairs]
            )
        return rows


def plan_graph(
    graph: Graph,
    bits: int = 32,
    fx: FixedPointConfig = None,
    trunc_mode: str = "exact",
) -> PreprocessingPlan:
    """Walk a traced model graph into a :class:`PreprocessingPlan`.

    ``bits`` is the arithmetic ring width of the activations (and so of
    every ring/matrix triple); it must match the serving service's
    ``ServiceTuning.ring_bits``.  ``fx`` prices the graph's Rescale
    layers as executable truncation demand (``trunc_mode`` selecting
    pair/wrap/exact); without it they surface as unplanned.
    """
    total = CorrelationDemand()
    per_layer = []
    for layer, in_shape, out_shape in graph.trace:
        demand = layer_demand(layer, in_shape, out_shape, bits, fx, trunc_mode)
        per_layer.append((layer.name, demand))
        total.merge(demand)
    return PreprocessingPlan(graph.name, bits, total, per_layer)


class PipelinedPrefill:
    """Streaming preprocessing: layer-by-layer production overlapping
    the online phase.

    Created by :meth:`PreprocessingPlan.prefill_pipelined` on BOTH
    parties.  A background thread walks the plan's layers in order; for
    each layer it schedules exactly that layer's correlation production
    (absolute produce targets for derived pools, cumulative consumer
    watermarks for raw COTs), waits for it to land, and marks the layer
    ready -- then immediately moves on to the next layer while the
    caller runs the current layer's online rounds.  The online phase
    gates each layer's draws on :meth:`wait_layer`, so it starts after
    ONE layer's preprocessing instead of the whole plan's, and never
    stalls a pool afterwards.

    Determinism: absolute targets are computed from the leader's pool
    baselines and shipped to the follower in-band over a dedicated
    ``pipe/<plan>`` sub-channel (production streams are mirrored
    command-by-command, so leader stream positions are valid on both
    sides).  The follower waits on the same produced counts; only the
    leader schedules.

    The pipeline assumes the planned workload is the dominant consumer
    while it runs (same contract as ``prefill``): concurrent unplanned
    sessions may re-introduce stalls, never wrong results.
    """

    def __init__(
        self,
        plan: PreprocessingPlan,
        service,
        timeout: float,
        tag: str,
        batch: int = 1,
        channel=None,
        draws_baseline: dict = None,
    ):
        if batch < 1:
            raise ParameterError(f"batch must be >= 1, got {batch}")
        self.plan = plan
        self.service = service
        self.batch = batch
        self.timeout = (
            service.tuning.take_timeout_s if timeout is None else timeout
        )
        self.error = None
        self.n_layers = len(plan.per_layer)
        self._cum_derived, self._cum_cot, self._internal_cot = plan.layer_schedule()
        if batch > 1:
            # Demand counts are linear in element count, so a B-input
            # request through the same shapes is exactly B-times every
            # per-layer target and watermark.
            scale = lambda seq: [  # noqa: E731
                {kind: count * batch for kind, count in layer.items()}
                for layer in seq
            ]
            self._cum_derived = scale(self._cum_derived)
            self._cum_cot = scale(self._cum_cot)
            self._internal_cot = scale(self._internal_cot)
        self._ready = [threading.Event() for _ in range(self.n_layers)]
        self._t0 = time.monotonic()
        self._ready_elapsed = [None] * self.n_layers
        self._channel = (
            channel if channel is not None
            else service.mux.sub(tag or f"pipe/{plan.model}")
        )
        self._draws_baseline = (
            service.session_draw_counts()
            if draws_baseline is None
            else dict(draws_baseline)
        )
        self._saved_cot_marks = None
        self._finished = False
        if service.party == 0:
            kinds = set()
            for layer in self._cum_cot:
                kinds.update(layer)
            for layer in self._internal_cot:
                kinds.update(layer)
            # A forward-only service has no cot/rev pool; the internal
            # margin charged to the missing direction simply cannot be
            # reserved there (matrix production falls back to cot/fwd,
            # whose own charge already covers it).
            self._saved_cot_marks = {
                kind: service.pools[kind].watermarks
                for kind in sorted(kinds)
                if kind in service.pools
            }
        self._thread = threading.Thread(
            target=self._run,
            name=f"pipelined-prefill-p{service.party}",
            daemon=True,
        )
        self._thread.start()

    # -- background production driver ---------------------------------------
    def _run(self) -> None:
        try:
            svc = self.service
            derived_kinds = sorted(self._cum_derived[-1]) if self._cum_derived else []
            if svc.party == 0:
                baseline = {
                    kind: svc.pools[kind].produced for kind in derived_kinds
                }
                self._channel.send_bytes(json.dumps(baseline).encode())
            else:
                baseline = json.loads(
                    self._channel.recv_bytes(timeout=self.timeout).decode()
                )
            for i in range(self.n_layers):
                deadline = time.monotonic() + self.timeout
                with svc.tracer.span(
                    "prefill.layer", cat="prefill",
                    layer=i, op=self.plan.per_layer[i][0],
                ):
                    if svc.party == 0:
                        # Raw COT stock first: before this layer's derived
                        # production may reserve raw COTs internally, the
                        # level must cover (a) every already-ready layer's
                        # consumer demand not yet drawn -- so the overlapped
                        # online phase keeps finding produced ranges -- plus
                        # (b) this layer's internal reserves.  The watermark
                        # is re-set (possibly LOWERED) each layer from the
                        # live draw counters, so extends track the plan
                        # just-in-time instead of front-loading the total.
                        for kind, level in self._cot_levels(i).items():
                            svc._raise_if_failed()
                            pool = svc.pools[kind]
                            low = max(level, self._saved_cot_marks[kind][0])
                            pool.set_watermarks(low, low)
                            pool.wait_level(low, deadline - time.monotonic())
                    targets = {
                        kind: baseline[kind] + count
                        for kind, count in self._cum_derived[i].items()
                    }
                    if svc.party == 0:
                        svc.raise_produce_targets(targets)
                    for kind, target in targets.items():
                        svc._raise_if_failed()
                        svc.pools[kind].wait_produced(
                            target, deadline - time.monotonic()
                        )
                    self._ready_elapsed[i] = time.monotonic() - self._t0
                    self._ready[i].set()
                if svc.tracer.enabled:
                    svc.tracer.instant(
                        "prefill.ready", cat="prefill",
                        layer=i, elapsed_s=self._ready_elapsed[i],
                    )
        except BaseException as exc:  # noqa: BLE001 - crossing a thread
            self.error = exc

    def _cot_levels(self, i: int) -> dict:
        """Raw-COT level targets before layer i's production starts:
        undrawn consumer demand of layers ``0..i`` (consumers of layer
        i start the moment it is marked ready) plus layer i's internal
        production reserves."""
        levels = {}
        kinds = (set(self._cum_cot[i]) | set(self._internal_cot[i])) & set(
            self._saved_cot_marks
        )
        draws = self.service.session_draw_counts()
        for kind in sorted(kinds):
            drawn = draws.get(kind, 0) - self._draws_baseline.get(
                kind, 0
            )
            undrawn = max(0, self._cum_cot[i].get(kind, 0) - drawn)
            levels[kind] = undrawn + self._internal_cot[i].get(kind, 0)
        return levels

    # -- caller side ---------------------------------------------------------
    def _check_failed(self) -> None:
        if self.error is not None:
            raise ServiceError(
                f"pipelined prefill failed: {self.error!r}"
            ) from self.error
        self.service._raise_if_failed()

    def wait_layer(self, i: int, timeout: float = None) -> None:
        """Block until layers ``0..i`` have their correlations pooled."""
        if not 0 <= i < self.n_layers:
            raise ParameterError(f"layer index {i} outside plan of {self.n_layers}")
        deadline = time.monotonic() + (
            self.timeout if timeout is None else timeout
        )
        waited = not self._ready[i].is_set()
        start = time.monotonic()
        try:
            while not self._ready[i].wait(0.05):
                self._check_failed()
                if time.monotonic() > deadline:
                    raise WaitTimeout(
                        f"pipelined prefill: layer {i} "
                        f"({self.plan.per_layer[i][0]}) not ready in time",
                        what=f"layer {i} ({self.plan.per_layer[i][0]})",
                    )
        finally:
            if waited:
                tr = self.service.tracer
                if tr.enabled:
                    end = tr.now()
                    tr.complete(
                        "online.wait", end - (time.monotonic() - start), end,
                        cat="stall",
                        layer=i, op=self.plan.per_layer[i][0],
                    )
        self._check_failed()

    def wait_all(self, timeout: float = None) -> None:
        if self.n_layers:
            self.wait_layer(self.n_layers - 1, timeout)

    def ready_elapsed(self, i: int) -> float:
        """Seconds from pipeline start until layer i was ready."""
        return self._ready_elapsed[i]

    def finish(self, timeout: float = None, restore: bool = True) -> None:
        """Join the producer thread and restore steady-state watermarks.

        Call after the online phase: the raised raw-COT consumer
        watermarks drop back to their pre-pipeline values (produce
        targets are absolute, so they are already inert), leaving the
        service in the same steady-state shape a one-shot ``prefill``
        leaves behind.  Idempotent; raises if either the pipeline
        thread or the service worker failed.

        ``restore=False`` skips the watermark restore: a daemon chaining
        pipelines back-to-back must not clobber the marks the NEXT
        request's pipeline already set -- it restores steady-state marks
        once, at shutdown.
        """
        if self._finished:
            self._check_failed()
            return
        self._thread.join(self.timeout if timeout is None else timeout)
        if self._thread.is_alive():
            # Still producing: restoring now would be clobbered by the
            # thread's own per-layer watermark updates.  Leave state
            # untouched so a later finish() can complete the job.
            raise WaitTimeout(
                "pipelined prefill producer did not finish in time",
                what="producer join",
            )
        if restore and self._saved_cot_marks is not None:
            for kind, (low, high) in self._saved_cot_marks.items():
                self.service.pools[kind].set_watermarks(low, high)
        self._finished = True
        self._check_failed()
