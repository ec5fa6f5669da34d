"""Semi-honest IKNP OT extension (Ishai-Kilian-Nissim-Petrank, CRYPTO'03).

Turns ``KAPPA = 128`` base COTs into any number ``m`` of
Delta-correlated COTs with one message of ``128 * ceil(m / 8)`` bytes
and symmetric crypto only.  Ferret's Init uses it to bootstrap its
``k + c`` base correlations from a constant 128 PKC OTs, the way
emp-ot's Ferret setup does.

Roles are swapped relative to the base OTs: the IKNP *sender* (the
party that ends up holding Delta) is the base-OT *receiver*, choosing
with the 128 bits of its Delta; the IKNP *receiver* is the base-OT
sender.  With seeds ``k0_i, k1_i`` (base-OT sender) and ``k_{s_i}``
(base-OT receiver) and a PRG ``G`` to m bits:

* receiver: ``t_i = G(k0_i)``, sends ``u_i = t_i XOR G(k1_i) XOR r``
  for its m choice bits ``r``;
* sender: ``q_i = G(k_{s_i}) XOR s_i * u_i = t_i XOR s_i * r``.

Transposing the 128 x m bit matrices gives, per column j, the COT
``q^j = t^j XOR r_j * s`` with ``Delta = s``.

The functions take an already-made base-COT batch rather than running
PKC themselves.  The base COTs share the base-OT sender's Delta_k, so
they are first hashed to independent seeds with the CRHF (Figure 2's
COT-to-random-OT step) before keying the PRG.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.crypto.prg import ChaChaTreePrg
from repro.errors import ProtocolError
from repro.ot.channel import Channel
from repro.ot.cot import CotReceiverBatch, CotSenderBatch
from repro.ot.ot_from_cot import cot_to_random_ot_receiver, cot_to_random_ot_sender

#: Base COTs IKNP consumes: one per bit of Delta.
KAPPA = 128


def _require_kappa(base) -> None:
    if len(base) != KAPPA:
        raise ProtocolError(f"IKNP needs {KAPPA} base COTs, got {len(base)}")


def _expand_rows(seeds: np.ndarray, m: int) -> np.ndarray:
    """PRG each of the 128 seeds to m bits: a (128, ceil(m/8)) byte matrix."""
    prg = ChaChaTreePrg(arity=max(2, -(-m // 128)), salt=b"ironman-iknp")
    rows = blocks.to_uint8(prg.expand(seeds, 0)).reshape(KAPPA, -1)
    return rows[:, : -(-m // 8)]


def _transpose(rows: np.ndarray, m: int) -> np.ndarray:
    """(128, ceil(m/8)) bit-packed rows -> m blocks, block j = column j."""
    bits = np.unpackbits(rows, axis=1, count=m, bitorder="little")
    return blocks.from_uint8(np.packbits(bits.T, axis=1, bitorder="little"))


def iknp_send(channel: Channel, base: CotReceiverBatch, m: int) -> CotSenderBatch:
    """IKNP sender: extend 128 base COTs (choice bits = Delta's bits) to m.

    Returns the sender half of m COTs under ``Delta`` = ``base.x``
    packed into one block.
    """
    _require_kappa(base)
    s, seeds = cot_to_random_ot_receiver(base)
    q = _expand_rows(seeds, m)
    u = np.frombuffer(channel.recv_bytes(), dtype=np.uint8)
    if u.size != q.size:
        raise ProtocolError(
            f"IKNP u-matrix has {u.size} bytes, expected {q.size} for m={m}"
        )
    q ^= u.reshape(q.shape) * s[:, None]
    delta = blocks.from_uint8(np.packbits(s, bitorder="little")[None, :])
    return CotSenderBatch(delta, _transpose(q, m))


def iknp_receive(
    channel: Channel, base: CotSenderBatch, choices: np.ndarray
) -> CotReceiverBatch:
    """IKNP receiver: one COT per choice bit from 128 base COTs it sent."""
    _require_kappa(base)
    choices = np.asarray(choices, dtype=np.uint8)
    m = choices.shape[0]
    k0, k1 = cot_to_random_ot_sender(base)
    t = _expand_rows(k0, m)
    u = t ^ _expand_rows(k1, m) ^ np.packbits(choices, bitorder="little")
    channel.send_bytes(u.tobytes())
    return CotReceiverBatch(choices, _transpose(t, m))
