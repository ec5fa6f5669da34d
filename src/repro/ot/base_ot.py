"""PKC base oblivious transfer (the OTE "Init" phase).

Implements the simplest-OT flavour of Chou-Orlandi over a Schnorr
group: one group element from the sender, one per choice from the
receiver, and hashed Diffie-Hellman values as message keys.  Ferret's
Init runs a constant 128 of these per endpoint and extends them with
IKNP (:mod:`repro.ot.iknp`) to the ``k + c`` base correlations it
needs; PCG-style OTE then extends those forever (Section 2.3), which
is why the paper's Figure 1(b) shows "Init" as a small fixed cost.

This module also provides :func:`base_cot_send` /
:func:`base_cot_receive`, the delta-correlated variant: the sender's
two messages are ``(r, r XOR Delta)``, giving the receiver a COT
``(b, r XOR b*Delta)``.

Two wire schedules produce identical outputs:

* **batched** (default): the receiver sends *one* message carrying all
  n group elements and the sender answers with one payload -- two big
  messages total, so a whole Ferret setup costs O(1) round trips
  instead of O(n) messages (the per-element modexps remain, they are
  the irreducible PKC cost).
* **sequential** (``batched=False``): the original per-OT element
  messages, kept as a reference oracle.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.crypto import blocks
from repro.crypto.group import DEFAULT_GROUP, SchnorrGroup
from repro.errors import ProtocolError
from repro.ot.channel import Channel


def _mask(key16: bytes, message: np.ndarray, index: int) -> np.ndarray:
    """One-time mask a single block with a pad derived from DH + index.

    ``key16`` is already a SHA-256 KDF output of the DH value, so the
    pad is one more hash, ``SHA-256(key16 || index)[:16]``, rather than
    a fresh AES key schedule per OT.
    """
    pad = hashlib.sha256(key16 + index.to_bytes(8, "little")).digest()[:16]
    return blocks.xor(message, blocks.from_bytes(pad))


def _sender_payload_for(
    group: SchnorrGroup,
    a: int,
    big_a_inv_a: int,
    b_elem: int,
    messages0: np.ndarray,
    messages1: np.ndarray,
    i: int,
) -> bytes:
    """Masked ciphertext pair for one receiver element (both schedules)."""
    if not 1 < b_elem < group.p - 1:
        raise ProtocolError("receiver sent a degenerate group element")
    b_to_a = group.exp(b_elem, a)
    # If B = g^b * A^c then B^a * A^{-ac} = g^{ab}: key_c is the DH value.
    key0 = group.hash_to_key(b_to_a, b"|0")
    key1 = group.hash_to_key(group.mul(b_to_a, big_a_inv_a), b"|1")
    return blocks.to_bytes(_mask(key0, messages0[i : i + 1], i)) + blocks.to_bytes(
        _mask(key1, messages1[i : i + 1], i)
    )


def base_ot_send(
    channel: Channel,
    messages0: np.ndarray,
    messages1: np.ndarray,
    group: SchnorrGroup = DEFAULT_GROUP,
    batched: bool = True,
) -> None:
    """Sender side: transfer one of (messages0[i], messages1[i]) per i.

    Args:
        channel: duplex channel to the receiver.
        messages0: (n, 2) blocks, the "0" messages.
        messages1: (n, 2) blocks, the "1" messages.
        batched: receive all n group elements in one message (default)
            instead of one message per OT; both sides must agree.
    """
    blocks.require_blocks(messages0, "messages0")
    blocks.require_blocks(messages1, "messages1")
    if messages0.shape != messages1.shape:
        raise ProtocolError("message arrays must have identical shape")
    n = messages0.shape[0]
    a = group.random_scalar()
    big_a = group.gexp(a)
    channel.send_int(n)
    channel.send_bytes(group.element_bytes(big_a))
    big_a_inv_a = group.exp(group.inv(big_a), a)  # A^{-a}, reused per OT
    width = len(group.element_bytes(big_a))
    payload = bytearray()
    if batched:
        blob = channel.recv_bytes()
        if len(blob) != n * width:
            raise ProtocolError(
                f"batched element blob has {len(blob)} bytes, expected {n * width}"
            )
        for i in range(n):
            b_elem = int.from_bytes(blob[i * width : (i + 1) * width], "big")
            payload += _sender_payload_for(
                group, a, big_a_inv_a, b_elem, messages0, messages1, i
            )
    else:
        for i in range(n):
            b_elem = int.from_bytes(channel.recv_bytes(), "big")
            payload += _sender_payload_for(
                group, a, big_a_inv_a, b_elem, messages0, messages1, i
            )
    channel.send_bytes(bytes(payload))


def base_ot_receive(
    channel: Channel,
    choices: np.ndarray,
    group: SchnorrGroup = DEFAULT_GROUP,
    batched: bool = True,
) -> np.ndarray:
    """Receiver side: obtain messages[choices[i]][i] for each i."""
    choices = np.asarray(choices, dtype=np.uint8)
    n_sender = channel.recv_int()
    if n_sender != choices.shape[0]:
        raise ProtocolError(
            f"sender offers {n_sender} OTs but receiver has {choices.shape[0]} choices"
        )
    big_a = int.from_bytes(channel.recv_bytes(), "big")
    if not 1 < big_a < group.p - 1:
        raise ProtocolError("sender sent a degenerate group element")
    keys = []
    elems = bytearray()
    for i in range(choices.shape[0]):
        b = group.random_scalar()
        b_elem = group.gexp(b)
        if choices[i]:
            b_elem = group.mul(b_elem, big_a)
        if batched:
            elems += group.element_bytes(b_elem)
        else:
            channel.send_bytes(group.element_bytes(b_elem))
        keys.append(group.hash_to_key(group.exp(big_a, b), b"|%d" % choices[i]))
    if batched:
        channel.send_bytes(bytes(elems))
    payload = channel.recv_bytes()
    out = blocks.zeros(choices.shape[0])
    for i, key in enumerate(keys):
        offset = i * 32 + int(choices[i]) * 16
        cipher = blocks.from_bytes(payload[offset : offset + 16])
        out[i : i + 1] = _mask(key, cipher, i)
    return out


def base_cot_send(
    channel: Channel,
    n: int,
    delta: np.ndarray,
    rng: np.random.Generator,
    group: SchnorrGroup = DEFAULT_GROUP,
    batched: bool = True,
) -> np.ndarray:
    """Delta-correlated base OTs, sender side: returns r (n blocks).

    The receiver obtains ``r XOR b*Delta`` for its choice bits ``b``; the
    pair of sides therefore holds genuine COT correlations, exactly what
    the Ferret setup consumes.
    """
    r = blocks.random_blocks(n, rng)
    base_ot_send(channel, r, blocks.xor(r, delta), group=group, batched=batched)
    return r


def base_cot_receive(
    channel: Channel,
    choices: np.ndarray,
    group: SchnorrGroup = DEFAULT_GROUP,
    batched: bool = True,
) -> np.ndarray:
    """Delta-correlated base OTs, receiver side: returns r XOR b*Delta."""
    return base_ot_receive(channel, choices, group=group, batched=batched)
