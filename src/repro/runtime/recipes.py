"""The recipe table: one record per derived correlation kind.

Every derived pool the provisioning service fills -- bit triples, ring
triples, matrix triples, truncation pairs, random OTs -- is made from
pooled inputs at a fixed per-item cost.  That cost, the opcode naming a
batch on the ``prov/ctl`` sub-channel, the frame layout of its
arguments, its batch cap and its producer are written here once.  The
leader's scheduler, the follower's command replay, a degraded
follower's stale-command alignment and the preprocessing planner's cost
model all read this table, so they cannot drift apart.

Adding a kind is one :class:`Recipe` here plus its producer method on
:class:`repro.runtime.service.CorrelationService`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from repro.errors import ServiceError
from repro.mpc.matmul import MatmulDims, matmul_cots
from repro.mpc.truncation import trunc_pair_bit_triples, trunc_pair_cots

#: Raw-COT pool kinds: filled by extends, never by a recipe.
COT_FWD, COT_REV = "cot/fwd", "cot/rev"
#: An input drawn whole from ONE COT direction, the one holding more
#: stock when the command is scheduled; the command's ``dir`` argument
#: names it (0 forward, 1 reverse).
EITHER = "cot/*"

#: Extend opcode per raw-COT pool, and the leader's shutdown opcode.
EXTEND = {COT_FWD: b"EXT0", COT_REV: b"EXT1"}
OP_STOP = b"STOP"


@dataclass(frozen=True)
class Recipe:
    """How one derived kind is produced.

    ``output`` is the pool kind the recipe fills or, ending in ``/``, a
    family of keyed pools (``mtri/4x24x24``, ``tprc/12``) reached through
    the service accessor ``family`` and carrying their ``key_args``.
    ``layout`` names the u64 arguments of the command frame in order:
    ``n`` the item count (absent: one item), ``key`` the keyed pool's
    arguments, ``dir`` the direction an :data:`EITHER` input drew from,
    ``lo`` the start offset of each input in ``inputs`` order, ``pad``
    a zero.  ``inputs(key, bits)`` is the per-item cost as
    ``((input kind, count), ...)``; ``cap(tuning)`` bounds the items one
    command makes; ``produce`` names the service method that runs a
    batch; a ``local`` recipe exchanges no messages (both parties derive
    their output from their own inputs).
    """

    opcode: bytes
    output: str
    layout: tuple
    inputs: Callable
    cap: Callable
    produce: str
    family: str = None
    local: bool = False

    def fills(self, kind: str) -> bool:
        """Whether pool ``kind`` is this recipe's output."""
        return kind == self.output or (self.family is not None and kind.startswith(self.output))

    def command(self, n: int, key: tuple, direction: int, offsets: list) -> tuple:
        """The command tuple ``(opcode, *args)`` for one batch."""
        feeds = {
            "n": iter((n,)), "key": iter(key), "dir": iter((direction,)),
            "lo": iter(offsets), "pad": repeat(0),
        }
        return (self.opcode,) + tuple(next(feeds[f]) for f in self.layout)


RECIPES = (
    Recipe(
        b"TRI\x00", "tri", ("n", "lo", "lo"),
        inputs=lambda key, bits: ((COT_FWD, 1), (COT_REV, 1)),
        cap=lambda t: t.triple_chunk,
        produce="_produce_triples",
    ),
    Recipe(
        b"RTRI", "rtri", ("n", "lo", "lo"),
        inputs=lambda key, bits: ((COT_FWD, bits), (COT_REV, bits)),
        cap=lambda t: t.rtri_chunk,
        produce="_produce_ring_triples",
    ),
    Recipe(
        b"MTRI", "mtri/", ("key", "key", "key", "dir", "lo"),
        inputs=lambda key, bits: ((EITHER, int(matmul_cots(MatmulDims(*key), bits))),),
        cap=lambda t: 1,
        produce="_produce_matrix_triple",
        family="matrix_pool",
    ),
    Recipe(
        b"TPRC", "tprc/", ("n", "key", "lo", "lo"),
        inputs=lambda key, bits: (
            (COT_FWD, trunc_pair_cots(bits, *key)),
            ("tri", trunc_pair_bit_triples(bits, *key)),
        ),
        cap=lambda t: t.tprc_chunk * max(1, t.tprc_batch_chunks),
        produce="_produce_trunc_pairs",
        family="trunc_pool",
    ),
    Recipe(
        b"ROT0", "rot/fwd", ("n", "lo", "pad"),
        inputs=lambda key, bits: ((COT_FWD, 1),),
        cap=lambda t: t.rot_chunk,
        produce="_produce_rots",
        local=True,
    ),
    Recipe(
        b"ROT1", "rot/rev", ("n", "lo", "pad"),
        inputs=lambda key, bits: ((COT_REV, 1),),
        cap=lambda t: t.rot_chunk,
        produce="_produce_rots",
        local=True,
    ),
)
TRI, RTRI, MTRI, TPRC = RECIPES[:4]

_BY_OPCODE = {r.opcode: r for r in RECIPES}
_NARGS = {r.opcode: len(r.layout) for r in RECIPES}
_NARGS.update(dict.fromkeys((*EXTEND.values(), OP_STOP), 3))


def recipe_for(kind: str) -> Recipe:
    """The recipe filling pool ``kind``, or None for a raw-COT pool."""
    return next((r for r in RECIPES if r.fills(kind)), None)


def resolve(kind: str, direction: int) -> str:
    """The concrete pool an input kind names under ``direction``."""
    if kind == EITHER:
        return COT_REV if direction else COT_FWD
    return kind


# -- prov/ctl frames ----------------------------------------------------------
def encode_frame(cmd: tuple) -> bytes:
    """``(opcode, *args)`` as a 4-byte opcode plus one u64 per argument."""
    return struct.pack("<4s" + "Q" * _NARGS[cmd[0]], *cmd)


def decode_frame(frame: bytes) -> tuple:
    """Inverse of :func:`encode_frame`; a frame whose opcode is not in
    the table or whose length does not match the opcode's argument
    count is a :class:`ServiceError`."""
    op = bytes(frame[:4])
    nargs = _NARGS.get(op)
    if nargs is None:
        raise ServiceError(f"ctl frame has unknown opcode {op!r}")
    if len(frame) != 4 + 8 * nargs:
        raise ServiceError(
            f"ctl frame {op!r} is {len(frame)} bytes, expected {4 + 8 * nargs}"
        )
    return struct.unpack("<4s" + "Q" * nargs, frame)


# -- commands -----------------------------------------------------------------
@dataclass(frozen=True)
class Job:
    """A decoded derived-production command: ``takes`` lists each input
    as ``(pool kind, lo, count)`` in the recipe's input order."""

    recipe: Recipe
    n: int
    key: tuple
    direction: int
    takes: tuple

    @property
    def offsets(self) -> list:
        return [lo for _, lo, _ in self.takes]


def parse_command(cmd: tuple, bits: int) -> Job:
    """Resolve a derived-production command against its recipe."""
    recipe = _BY_OPCODE.get(cmd[0])
    if recipe is None:
        raise ServiceError(f"unknown provisioning opcode {cmd[0]!r}")
    fields = {"n": [], "key": [], "dir": [], "lo": [], "pad": []}
    for name, value in zip(recipe.layout, cmd[1:]):
        fields[name].append(int(value))
    n = fields["n"][0] if fields["n"] else 1
    direction = fields["dir"][0] if fields["dir"] else 0
    key = tuple(fields["key"])
    takes = tuple(
        (resolve(kind, direction), lo, n * need)
        for (kind, need), lo in zip(recipe.inputs(key, bits), fields["lo"])
    )
    return Job(recipe, n, key, direction, takes)


# -- planner cost model -------------------------------------------------------
def expand(items, bits: int, out: dict = None) -> dict:
    """Every input a batch of derived items consumes, recursively.

    ``items`` is ``[(recipe, key, count)]``.  A derived input (the bit
    triples truncation pairs eat) is counted under its own kind AND
    expanded into the raw COTs it costs; :data:`EITHER` inputs are
    counted once, under that kind.
    """
    out = {} if out is None else out
    for recipe, key, count in items:
        for kind, need in recipe.inputs(key, bits):
            out[kind] = out.get(kind, 0) + need * count
            sub = recipe_for(kind)
            if sub is not None:
                expand([(sub, (), need * count)], bits, out)
    return out
