"""Golden replay of the leader's production scheduler and cost model.

The leader's ``_decide`` is the only source of the ``prov/ctl`` command
stream, so its exact output -- command tuples and their encoded frames
-- is pinned here by digest.  The harness drives a party-0 service
without starting it: every decided command's effect is applied by
appending zero columns (``net_output`` COTs per extend, ``n`` items per
derived command), which is all the scheduler reads.  The planner's cost
model (``total_cots`` and ``layer_schedule``) is pinned by known
answers for the perfbench MLP in exact and pair truncation modes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.ferret.config import FerretConfig
from repro.mpc.truncation import FixedPointConfig
from repro.ot.channel import LocalChannel
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.ppml.plan import plan_graph
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning
from repro.runtime.recipes import decode_frame, encode_frame

CFG = FerretConfig.small(scale=1024)
REPLAY_TUNING = dict(
    ring_bits=32, triple_low=0, triple_high=0, triple_chunk=512,
    rtri_chunk=128, rot_high=0,
)
REPLAY_TARGETS = {
    "tri": 3000, "rtri": 700, "mtri/4x24x24": 3, "tprc/12": 300,
    "rot/fwd": 900, "rot/rev": 100,
}
#: Recorded before scheduling became table-driven: the command stream
#: (and so every produced correlation) must not move.
REPLAY_COMMANDS = 322
REPLAY_DIGEST = "9ff08a79d694005aa597ac3573b895c6c870518c14bbdd395223c8a858048709"

#: Output pool of each derived opcode (MTRI and TPRC are keyed).
OUTPUT = {
    b"TRI\x00": "tri", b"RTRI": "rtri", b"ROT0": "rot/fwd", b"ROT1": "rot/rev",
}


@pytest.fixture
def leader():
    """Build a party-0 service (never started) over a live mux pair."""
    muxes = []

    def build(**tuning):
        base_a, base_b = LocalChannel.pair(timeout=5.0)
        muxes.extend((MuxChannel(base_a, timeout=5.0), MuxChannel(base_b, timeout=5.0)))
        return CorrelationService(0, muxes[-2], CFG, ServiceTuning(**tuning), seed=7)

    yield build
    for mux in muxes:
        mux.close()


def fill(pool, n: int) -> None:
    pool.append_columns(tuple(np.zeros(n, np.uint8) for _ in pool._columns))


def apply(svc, cmd) -> None:
    """Land a decided command's output as the executed command would."""
    op = cmd[0]
    if op in (b"EXT0", b"EXT1"):
        kind = "cot/fwd" if op == b"EXT0" else "cot/rev"
        fill(svc.pools[kind], CFG.net_output)
    elif op == b"MTRI":
        fill(svc.matrix_pool(*cmd[1:4]), 1)
    elif op == b"TPRC":
        fill(svc.trunc_pool(cmd[2]), cmd[1])
    else:
        fill(svc.pools[OUTPUT[op]], cmd[1])


def replay(svc, limit: int = 5000) -> list:
    """Decide and apply until the scheduler goes idle."""
    stream = []
    for _ in range(limit):
        cmd = svc._decide()
        if cmd is None:
            return stream
        stream.append(cmd)
        apply(svc, cmd)
    raise AssertionError("scheduler never went idle")


def digest(stream: list) -> str:
    h = hashlib.sha256()
    for cmd in stream:
        norm = (cmd[0],) + tuple(int(v) for v in cmd[1:])
        h.update(repr(norm).encode())
        h.update(encode_frame(cmd))
    return h.hexdigest()


class TestCommandStream:
    def test_golden_digest(self, leader):
        svc = leader(**REPLAY_TUNING)
        svc.matrix_pool(4, 24, 24)
        svc.trunc_pool(12)
        svc.raise_produce_targets(REPLAY_TARGETS)
        stream = replay(svc)
        assert len(stream) == REPLAY_COMMANDS
        assert {cmd[0] for cmd in stream} == {
            b"EXT0", b"EXT1", b"TRI\x00", b"RTRI", b"MTRI", b"TPRC", b"ROT0", b"ROT1",
        }
        assert {cmd[4] for cmd in stream if cmd[0] == b"MTRI"} == {0, 1}
        assert digest(stream) == REPLAY_DIGEST
        for kind, target in REPLAY_TARGETS.items():
            assert svc.pools[kind].produced >= target

    def test_frames_round_trip(self, leader):
        svc = leader(**REPLAY_TUNING)
        svc.matrix_pool(4, 24, 24)
        svc.trunc_pool(12)
        svc.raise_produce_targets(REPLAY_TARGETS)
        sizes = {}
        for cmd in replay(svc):
            frame = encode_frame(cmd)
            sizes[cmd[0]] = len(frame)
            assert decode_frame(frame) == tuple(cmd)
        assert sizes == {
            b"EXT0": 28, b"EXT1": 28, b"TRI\x00": 28, b"RTRI": 28,
            b"ROT0": 28, b"ROT1": 28, b"MTRI": 44, b"TPRC": 36,
        }


#: Starvation tuning: no raw-COT watermarks, so only derived demand
#: drives the scheduler and every short input is visible.
STARVE = dict(
    ring_bits=32, cot_low=0, cot_high=0, triple_low=0, triple_high=0,
    triple_chunk=512, rot_high=0,
)


class TestStarvedInputs:
    """One short-input case per recipe: what the scheduler asks for."""

    def decide(self, leader, targets, fwd=0, rev=0, tri=0, **tuning):
        svc = leader(**{**STARVE, **tuning})
        for kind in targets:
            if kind.startswith("mtri/"):
                svc.matrix_pool(*map(int, kind[5:].split("x")))
            elif kind.startswith("tprc/"):
                svc.trunc_pool(int(kind[5:]))
        for kind, n in (("cot/fwd", fwd), ("cot/rev", rev), ("tri", tri)):
            if n:
                fill(svc.pools[kind], n)
        svc.raise_produce_targets(targets)
        return svc._decide()

    @pytest.mark.parametrize("kind", ["tri", "rtri"])
    def test_triples_starve_on_the_emptier_direction(self, leader, kind):
        assert self.decide(leader, {kind: 10})[0] == b"EXT0"
        assert self.decide(leader, {kind: 10}, fwd=31, rev=31)[0] == (
            b"EXT0" if kind == "rtri" else b"TRI\x00"
        )
        assert self.decide(leader, {kind: 10}, fwd=20)[0] == b"EXT1"
        assert self.decide(leader, {kind: 10}, rev=20)[0] == b"EXT0"
        assert self.decide(leader, {"rtri": 10}, fwd=40, rev=31)[0] == b"EXT1"

    def test_matrix_triple_starves_on_the_fuller_direction(self, leader):
        need = (4 * 24 + 24 * 24) * 32
        assert self.decide(leader, {"mtri/4x24x24": 1}, fwd=need - 1)[0] == b"EXT0"
        assert self.decide(leader, {"mtri/4x24x24": 1}, rev=need - 1)[0] == b"EXT1"
        assert self.decide(leader, {"mtri/4x24x24": 1}, fwd=5, rev=5)[0] == b"EXT0"
        assert self.decide(leader, {"mtri/4x24x24": 1}, fwd=need, rev=need - 1) == (
            b"MTRI", 4, 24, 24, 0, 0,
        )
        assert self.decide(leader, {"mtri/4x24x24": 1}, fwd=need - 1, rev=need) == (
            b"MTRI", 4, 24, 24, 1, 0,
        )

    def test_trunc_pairs_starve_on_cots_then_on_triples(self, leader):
        assert self.decide(leader, {"tprc/12": 10}, fwd=10, rev=10**4, tri=10**4) == (
            b"EXT0", 0, 0, 0,
        )
        # Enough forward COTs but no bit triples: one triple batch sized
        # by the pairs' triple demand, capped by both COT directions.
        cmd = self.decide(leader, {"tprc/12": 10}, fwd=10**4, rev=100)
        assert cmd == (b"TRI\x00", 100, 0, 0)
        # 2 pairs need 2 * 88 triples; 50 are stocked.
        cmd = self.decide(leader, {"tprc/12": 2}, fwd=10**4, rev=10**4, tri=50)
        assert cmd == (b"TRI\x00", 2 * 88 - 50, 0, 0)
        assert self.decide(leader, {"tprc/12": 10}, fwd=10**4)[0] == b"EXT1"

    @pytest.mark.parametrize(
        "kind, op", [("rot/fwd", b"EXT0"), ("rot/rev", b"EXT1")]
    )
    def test_rots_starve_on_their_own_direction(self, leader, kind, op):
        assert self.decide(leader, {kind: 10}) == (op, 0, 0, 0)
        other = {"fwd": 50} if kind == "rot/rev" else {"rev": 50}
        assert self.decide(leader, {kind: 10}, **other) == (op, 0, 0, 0)


class TestCtlFrames:
    """A malformed ``prov/ctl`` frame is a typed ServiceError."""

    @pytest.mark.parametrize(
        "frame",
        [
            b"TRI\x00" + bytes(8),  # short
            b"MTRI" + bytes(24),  # a 28-byte frame for a 44-byte opcode
            b"TPRC" + bytes(40),  # long
            b"ZZZZ" + bytes(24),  # unknown opcode, plausible length
            b"EX",
        ],
        ids=["short", "mtri-as-28-bytes", "long", "unknown-opcode", "no-opcode"],
    )
    def test_decode_rejects(self, frame):
        with pytest.raises(ServiceError):
            decode_frame(frame)

    def test_follower_fails_typed_on_a_bad_frame(self):
        base_a, base_b = LocalChannel.pair(timeout=5.0)
        mux0, mux1 = MuxChannel(base_a, timeout=5.0), MuxChannel(base_b, timeout=5.0)
        try:
            svc1 = CorrelationService(1, mux1, CFG, ServiceTuning(), seed=7)
            mux0.sub("prov/ctl").send_bytes(b"TRI\x00" + bytes(8))
            with pytest.raises(ServiceError, match="frame"):
                svc1._follower_loop()
        finally:
            mux0.close(), mux1.close()


#: perfbench's mlp_serve model: 16-bit ring, 4 fractional bits.
FX = FixedPointConfig(bits=16, frac_bits=4, mag_bits=9)


def mlp_plan(mode: str):
    g = Graph("perfbench-mlp", (8, 2))
    g.add(Linear(16))
    g.add(Rescale())
    g.add(Activation("relu"))
    g.add(Linear(2))
    return plan_graph(g, bits=16, fx=FX, trunc_mode=mode)


class TestPlannerKnownAnswers:
    @pytest.mark.parametrize(
        "mode, total, schedule",
        [
            ("exact", 34176, (
                    [
                        {"mtri/8x2x16": 1},
                        {"mtri/8x2x16": 1, "tri": 5120, "rtri": 256},
                        {"mtri/8x2x16": 1, "tri": 8960, "rtri": 256},
                        {"mtri/8x2x16": 1, "tri": 8960, "rtri": 256, "mtri/8x16x2": 1},
                    ],
                    [
                        {},
                        {"cot/fwd": 2560},
                        {"cot/fwd": 4608, "cot/rev": 128},
                        {"cot/fwd": 4608, "cot/rev": 128},
                    ],
                    [
                        {"cot/fwd": 768, "cot/rev": 768},
                        {"cot/fwd": 9216, "cot/rev": 9216},
                        {"cot/fwd": 3840, "cot/rev": 3840},
                        {"cot/fwd": 2560, "cot/rev": 2560},
                    ],
                )),
            ("pair", 26240, (
                    [
                        {"mtri/8x2x16": 1},
                        {"mtri/8x2x16": 1, "tprc/4": 128, "tri": 5120},
                        {"mtri/8x2x16": 1, "tprc/4": 128, "tri": 8960},
                        {"mtri/8x2x16": 1, "tprc/4": 128, "tri": 8960, "mtri/8x16x2": 1},
                    ],
                    [
                        {},
                        {},
                        {"cot/fwd": 2048, "cot/rev": 128},
                        {"cot/fwd": 2048, "cot/rev": 128},
                    ],
                    [
                        {"cot/fwd": 768, "cot/rev": 768},
                        {"cot/fwd": 7936, "cot/rev": 5120},
                        {"cot/fwd": 3840, "cot/rev": 3840},
                        {"cot/fwd": 2560, "cot/rev": 2560},
                    ],
                )),
        ],
    )
    def test_mlp(self, mode, total, schedule):
        plan = mlp_plan(mode)
        assert plan.demand.total_cots(16) == total
        assert plan.layer_schedule() == schedule
