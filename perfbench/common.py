"""Shared configuration and helpers of the repository benchmark.

Every workload runs the same Ferret configuration: LPN n=2^14, k=512,
t=32 with 4-ary ChaCha8 GGM trees, the bench_pipeline setting.  Both
parties live in this one process and talk over ``LocalChannel`` +
``MuxChannel``.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.crypto.prg import ChaChaTreePrg
from repro.ferret.config import FerretConfig
from repro.lpn.params import LpnParams
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import FixedPointConfig
from repro.obs.trace import NULL_TRACER
from repro.ot.channel import LocalChannel, run_concurrently
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning

PARAMS = LpnParams("perfbench", 1 << 14, 512, 512, 32, 0.0)
#: The self-test's tiny configuration (setup well under a second).
SMOKE_PARAMS = LpnParams("perfbench-smoke", 1 << 11, 128, 128, 8, 0.0)
RING_BITS = 16
MASK = ring_mask_u64(RING_BITS)
#: bench_daemon's fixed-point format: 4 fractional bits, |x| < 2^9.
FX = FixedPointConfig(bits=RING_BITS, frac_bits=4, mag_bits=9)
#: Bound on every blocking wait, so a one-sided failure surfaces as a
#: failed op well inside the run's 180 s budget instead of a hang.
WAIT_S = 30.0


def ferret_config(params: LpnParams = PARAMS) -> FerretConfig:
    return FerretConfig(params=params, arity=4, prg_kind="chacha8")


@dataclass
class Pair:
    """A started two-party service pair over one in-process link."""

    svcs: tuple
    muxes: tuple
    setup_s: float
    daemons: tuple = ()
    extra: dict = field(default_factory=dict)

    def stop(self) -> None:
        """Stop daemons, then services (leader first), then the link."""
        errors = []
        if self.daemons:
            d0, d1 = self.daemons
            run_concurrently(
                lambda: d0.stop(WAIT_S), lambda: d1.stop(WAIT_S), 2 * WAIT_S
            )
        for svc in self.svcs:
            try:
                svc.stop(WAIT_S)
            except Exception as exc:  # noqa: BLE001 - report after cleanup
                errors.append(exc)
        for mux in self.muxes:
            mux.close()
        if errors:
            raise errors[0]


def start_pair(cfg: FerretConfig, tuning: ServiceTuning, seed: int,
               make_daemons=None, tracers=None) -> Pair:
    """Construct a service pair (and its daemons) and time it to ready.

    ``setup_s`` spans construction -- LPN matrix generation for both
    directions -- through both parties' ``wait_ready``, i.e. the PKC
    base OTs in both directions.  ``make_daemons(svc0, svc1)`` builds
    the serving daemons inside the timed region.
    """
    t0 = time.perf_counter()
    base0, base1 = LocalChannel.pair(timeout=WAIT_S)
    muxes = (MuxChannel(base0, timeout=WAIT_S), MuxChannel(base1, timeout=WAIT_S))
    svcs = tuple(
        CorrelationService(p, muxes[p], cfg, tuning, seed=seed) for p in (0, 1)
    )
    if tracers is not None:
        for svc, tr in zip(svcs, tracers):
            svc.set_tracer(tr)
    for svc in svcs:
        svc.start()
    daemons = tuple(make_daemons(*svcs)) if make_daemons else ()
    for svc in svcs:
        svc.wait_ready(WAIT_S * 2)
    return Pair(svcs, muxes, time.perf_counter() - t0, daemons)


def set_tracers(pair: Pair, tracers) -> None:
    for svc, tr in zip(pair.svcs, tracers or (NULL_TRACER, NULL_TRACER)):
        svc.set_tracer(tr)


def mux_bytes(pair: Pair) -> int:
    """Bytes both parties' muxes have sent so far (all sub-channels)."""
    return sum(
        stats.bytes_sent
        for mux in pair.muxes
        for stats in mux.stats_by_tag().values()
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


def host_record() -> dict:
    """What the run ran on, plus a fixed reference kernel's time.

    ``chacha_ref_s`` times ChaCha8 ``expand`` over a fixed 4096-node
    input (median of 7), so host drift between two sets of runs is
    visible next to the workload numbers.
    """
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    prg = ChaChaTreePrg(arity=4, rounds=8)
    nodes = np.arange(4096 * 2, dtype=np.uint64).reshape(4096, 2)
    prg.expand(nodes, 0)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        prg.expand(nodes, 1)
        times.append(time.perf_counter() - t0)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": has_numba,
        "machine": platform.machine(),
        "chacha_ref_s": median(times),
    }


def log(msg: str) -> None:
    """Progress and tables go to stderr; stdout ends with the result."""
    print(msg, file=sys.stderr, flush=True)
