"""The PCG-style OT extension protocol (Ferret, CCS'20), end to end.

One protocol instance lives through three phases (Section 2.3):

1. **setup** -- runs once: 128 PKC base OTs, with the roles swapped,
   are extended by IKNP (:mod:`repro.ot.iknp`) into ``k + c`` genuine
   COT correlations under the sender's Delta (``k`` feeding LPN, ``c``
   feeding SPCOT's per-level OTs).  This is the "Init" bar of
   Figure 1(b); its PKC part is constant in ``k + c``.
2. **extend** -- repeatable: an interactive multi-point SPCOT produces
   ``w = v XOR u*Delta`` over n points, then both parties *locally*
   LPN-encode, stretching k correlations into n.  The first
   ``k + c`` fresh correlations are reserved to bootstrap the next
   iteration; the rest are the protocol's output.
3. Outputs can be converted to standard OTs via
   :mod:`repro.ot.ot_from_cot` (Figure 2).

Sender and receiver are symmetric classes speaking over a
:class:`repro.ot.channel.Channel`; :func:`ferret_pair` wires two of
them together in threads for tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto import blocks
from repro.errors import ProtocolError
from repro.ferret.config import FerretConfig
from repro.lpn.encode import encode_bits, encode_blocks, premix_bits, premix_blocks
from repro.lpn.matrix import generate_matrix
from repro.ot.base_ot import base_cot_receive, base_cot_send
from repro.ot.channel import Channel, run_pair
from repro.ot.cot import CotPool, CotReceiverBatch, CotSenderBatch
from repro.ot.iknp import KAPPA, iknp_receive, iknp_send
from repro.spcot.mpcot import mpcot_receive, mpcot_send, sample_alphas


@dataclass
class ExtendStats:
    """Per-iteration accounting surfaced to the benchmarks.

    Every field is a delta over one ``extend()`` call (bytes and rounds
    are snapshotted before/after, like ``prg_calls``), not a cumulative
    channel total.
    """

    n_output: int
    prg_calls: int
    bytes_sent: int
    rounds: int


class FerretSender:
    """The COT sender: holds the global Delta."""

    def __init__(self, config: FerretConfig, seed: int = 1):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.delta = blocks.random_blocks(1, self.rng)
        self.prg = config.make_prg()
        self.matrix = generate_matrix(
            config.params.n, config.params.k, config.matrix_seed
        )
        self._lpn_r = None  # (k, 2) blocks feeding the next LPN encode
        self._spcot_pool = None  # CotPool for SPCOT per-level OTs
        self.iterations = 0
        self.last_stats = None

    def setup(self, channel: Channel) -> None:
        """One-time init: 128 base OTs choosing with Delta's bits, then
        IKNP to the ``k + c`` COTs the first iteration consumes."""
        cfg = self.config
        bits = np.unpackbits(blocks.to_uint8(self.delta)[0], bitorder="little")
        y = base_cot_receive(channel, bits)
        r = iknp_send(channel, CotReceiverBatch(bits, y), cfg.base_cots_needed).z
        self._lpn_r = r[: cfg.params.k]
        self._spcot_pool = CotPool(
            sender=CotSenderBatch(self.delta, r[cfg.params.k :])
        )

    def extend(self, channel: Channel) -> CotSenderBatch:
        """One OTE iteration; returns the net-new sender correlations."""
        if self._lpn_r is None:
            raise ProtocolError("setup() must run before extend()")
        cfg = self.config
        prev_calls = self.prg.total_calls
        prev_bytes = channel.stats.bytes_sent
        prev_rounds = channel.stats.rounds
        # Overlapped extend: A @ r only needs last iteration's LPN state,
        # so it runs under the interactive MPCOT instead of after it.
        premix = premix_blocks(self.matrix, self._lpn_r) if cfg.overlap_encode else None
        w = mpcot_send(
            channel,
            self._spcot_pool,
            self.delta,
            self.prg,
            cfg.params.n,
            cfg.params.t,
            self.rng,
            batched=cfg.batched,
        )
        if premix is not None:
            z = premix.finish(w)
        else:
            z = encode_blocks(self.matrix, self._lpn_r, w)
        reserve = cfg.base_cots_needed
        self._lpn_r = z[: cfg.params.k].copy()
        self._spcot_pool = CotPool(
            sender=CotSenderBatch(self.delta, z[cfg.params.k : reserve].copy())
        )
        self.iterations += 1
        self.last_stats = ExtendStats(
            n_output=cfg.params.n - reserve,
            prg_calls=self.prg.total_calls - prev_calls,
            bytes_sent=channel.stats.bytes_sent - prev_bytes,
            rounds=channel.stats.rounds - prev_rounds,
        )
        return CotSenderBatch(self.delta, z[reserve:])


class FerretReceiver:
    """The COT receiver: ends up with choice bits x and blocks y."""

    def __init__(self, config: FerretConfig, seed: int = 2):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.prg = config.make_prg()
        self.matrix = generate_matrix(
            config.params.n, config.params.k, config.matrix_seed
        )
        self._lpn_e = None  # (k,) choice bits
        self._lpn_s = None  # (k, 2) blocks
        self._spcot_pool = None
        self.iterations = 0
        self.last_stats = None

    def setup(self, channel: Channel) -> None:
        """One-time init, mirror of the sender's: send 128 base OTs
        under a fresh Delta_k, then IKNP-receive ``k + c`` COTs."""
        cfg = self.config
        bits = self.rng.integers(0, 2, cfg.base_cots_needed).astype(np.uint8)
        delta_k = blocks.random_blocks(1, self.rng)
        r = base_cot_send(channel, KAPPA, delta_k, self.rng)
        y = iknp_receive(channel, CotSenderBatch(delta_k, r), bits).y
        self._lpn_e = bits[: cfg.params.k]
        self._lpn_s = y[: cfg.params.k]
        self._spcot_pool = CotPool(
            receiver=CotReceiverBatch(bits[cfg.params.k :], y[cfg.params.k :])
        )

    def extend(self, channel: Channel) -> CotReceiverBatch:
        """One OTE iteration; returns the net-new receiver correlations."""
        if self._lpn_e is None:
            raise ProtocolError("setup() must run before extend()")
        cfg = self.config
        prev_calls = self.prg.total_calls
        prev_bytes = channel.stats.bytes_sent
        prev_rounds = channel.stats.rounds
        alphas = sample_alphas(cfg.params.n, cfg.params.t, self.rng)
        if cfg.overlap_encode:
            premix_e = premix_bits(self.matrix, self._lpn_e)
            premix_s = premix_blocks(self.matrix, self._lpn_s)
        else:
            premix_e = premix_s = None
        u, v = mpcot_receive(
            channel,
            self._spcot_pool,
            alphas,
            self.prg,
            cfg.params.n,
            cfg.params.t,
            batched=cfg.batched,
        )
        if premix_e is not None:
            x = premix_e.finish(u)
            y = premix_s.finish(v)
        else:
            x = encode_bits(self.matrix, self._lpn_e, u)
            y = encode_blocks(self.matrix, self._lpn_s, v)
        reserve = cfg.base_cots_needed
        self._lpn_e = x[: cfg.params.k].copy()
        self._lpn_s = y[: cfg.params.k].copy()
        self._spcot_pool = CotPool(
            receiver=CotReceiverBatch(
                x[cfg.params.k : reserve].copy(), y[cfg.params.k : reserve].copy()
            )
        )
        self.iterations += 1
        self.last_stats = ExtendStats(
            n_output=cfg.params.n - reserve,
            prg_calls=self.prg.total_calls - prev_calls,
            bytes_sent=channel.stats.bytes_sent - prev_bytes,
            rounds=channel.stats.rounds - prev_rounds,
        )
        return CotReceiverBatch(x[reserve:], y[reserve:])


def ferret_pair(config: FerretConfig, rounds: int = 1, seed: int = 7) -> tuple:
    """Run setup + ``rounds`` extends between two in-memory parties.

    Returns (sender_batches, receiver_batches, sender_stats,
    receiver_stats): one output batch per round plus the channel
    accounting for the whole session.
    """
    sender = FerretSender(config, seed=seed)
    receiver = FerretReceiver(config, seed=seed + 1)

    def run_sender(channel):
        sender.setup(channel)
        return [sender.extend(channel) for _ in range(rounds)]

    def run_receiver(channel):
        receiver.setup(channel)
        return [receiver.extend(channel) for _ in range(rounds)]

    s_out, r_out, s_stats, r_stats = run_pair(run_sender, run_receiver)
    return s_out, r_out, s_stats, r_stats
