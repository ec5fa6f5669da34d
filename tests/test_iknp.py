"""IKNP OT extension and the Ferret Init it bootstraps."""

import numpy as np
import pytest

from repro.crypto import blocks
from repro.errors import ProtocolError
from repro.ferret import protocol as ferret_protocol
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.ot.base_ot import base_cot_receive, base_cot_send
from repro.ot.channel import LocalChannel, run_pair
from repro.ot.cot import CotReceiverBatch, CotSenderBatch, verify_cot
from repro.ot.iknp import KAPPA, iknp_receive, iknp_send


def delta_bits(delta):
    return np.unpackbits(blocks.to_uint8(delta)[0], bitorder="little")


@pytest.fixture(scope="module")
def base():
    """128 real PKC base COTs, IKNP roles: (sender's half, receiver's half).

    The IKNP sender is the base-OT receiver, choosing with Delta's bits.
    """
    rng = np.random.default_rng(5)
    delta = blocks.random_blocks(1, rng)
    delta_k = blocks.random_blocks(1, rng)
    bits = delta_bits(delta)
    r, y, _, _ = run_pair(
        lambda ch: base_cot_send(ch, KAPPA, delta_k, rng),
        lambda ch: base_cot_receive(ch, bits),
    )
    return delta, CotReceiverBatch(bits, y), CotSenderBatch(delta_k, r)


@pytest.mark.parametrize("m", [1, 100, 832, 833, 173_760])
def test_extension_is_delta_correlated(base, m):
    """m < 128, m not a multiple of 8, and the Table-4 2^20 base-COT count."""
    delta, s_base, r_base = base
    choices = np.random.default_rng(m).integers(0, 2, m).astype(np.uint8)
    s_out, r_out, _, _ = run_pair(
        lambda ch: iknp_send(ch, s_base, m),
        lambda ch: iknp_receive(ch, r_base, choices),
    )
    assert len(s_out) == len(r_out) == m
    assert np.array_equal(s_out.delta, delta)
    assert np.array_equal(r_out.x, choices)
    assert verify_cot(s_out, r_out)


def test_u_matrix_is_one_message_of_kappa_rows(base):
    _, s_base, r_base = base
    m = 1000
    _, _, s_stats, r_stats = run_pair(
        lambda ch: iknp_send(ch, s_base, m),
        lambda ch: iknp_receive(ch, r_base, np.zeros(m, dtype=np.uint8)),
    )
    assert r_stats.messages_sent == 1
    assert r_stats.bytes_sent == KAPPA * 125
    assert s_stats.bytes_sent == 0


def test_malformed_u_matrix_rejected(base):
    _, s_base, r_base = base
    a, b = LocalChannel.pair(timeout=5.0)
    # The receiver finishes first (it only sends), extending 8 more COTs
    # than the sender expects: one byte too many per u row.
    iknp_receive(a, r_base, np.zeros(108, dtype=np.uint8))
    with pytest.raises(ProtocolError, match="u-matrix"):
        iknp_send(b, s_base, 100)


def test_needs_exactly_kappa_base_cots(base):
    _, s_base, _ = base
    short = CotReceiverBatch(s_base.x[:64], s_base.y[:64])
    a, _ = LocalChannel.pair(timeout=5.0)
    with pytest.raises(ProtocolError, match="128 base COTs"):
        iknp_send(a, short, 10)


def test_ferret_with_overridden_delta_keeps_correlation():
    """The shard path sets ``sender.delta`` before ``setup()``: the IKNP
    Delta is that value, so every later COT is correlated under it."""
    cfg = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
    forced = blocks.random_blocks(1, np.random.default_rng(77))
    sender, receiver = FerretSender(cfg, seed=3), FerretReceiver(cfg, seed=4)
    sender.delta = forced.copy()

    def run_sender(ch):
        sender.setup(ch)
        return [sender.extend(ch) for _ in range(2)]

    def run_receiver(ch):
        receiver.setup(ch)
        return [receiver.extend(ch) for _ in range(2)]

    s_out, r_out, _, _ = run_pair(run_sender, run_receiver)
    for s_batch, r_batch in zip(s_out, r_out):
        assert np.array_equal(s_batch.delta, forced)
        assert verify_cot(s_batch, r_batch)


@pytest.mark.parametrize("scale", [2048, 256])
def test_ferret_init_makes_128_pkc_base_cots(monkeypatch, scale):
    """One PKC Init of 128 OTs per endpoint, whatever ``k + c`` is."""
    cfg = FerretConfig.small(scale=scale, arity=4, prg_kind="chacha8")
    sent, chosen = [], []
    orig_send = ferret_protocol.base_cot_send
    orig_receive = ferret_protocol.base_cot_receive

    def counting_send(channel, n, *args, **kwargs):
        sent.append(n)
        return orig_send(channel, n, *args, **kwargs)

    def counting_receive(channel, choices, *args, **kwargs):
        chosen.append(len(choices))
        return orig_receive(channel, choices, *args, **kwargs)

    monkeypatch.setattr(ferret_protocol, "base_cot_send", counting_send)
    monkeypatch.setattr(ferret_protocol, "base_cot_receive", counting_receive)
    sender, receiver = FerretSender(cfg), FerretReceiver(cfg)
    s_out, r_out, _, _ = run_pair(
        lambda ch: (sender.setup(ch), sender.extend(ch))[1],
        lambda ch: (receiver.setup(ch), receiver.extend(ch))[1],
    )
    assert sent == [KAPPA] and chosen == [KAPPA]
    assert cfg.base_cots_needed != KAPPA
    assert verify_cot(s_out, r_out)
