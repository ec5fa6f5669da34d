"""Unit tests for the typed correlation pools (runtime/pool.py)."""

import threading
import time

import numpy as np
import pytest

from repro.crypto import blocks
from repro.errors import ServiceError
from repro.mpc.triples import BitTriples, MatrixTriples, RingTriples, dealer_matrix_triples
from repro.ot.cot import CotReceiverBatch, CotSenderBatch, verify_cot
from repro.runtime.pool import (
    CorrelationPool,
    MatrixTriplePool,
    ReceiverCotPool,
    RingTriplePool,
    SenderCotPool,
    TriplePool,
)
from repro.runtime.recipes import EITHER, recipe_for


def make_cot_arrays(n, seed=1):
    gen = np.random.default_rng(seed)
    delta = blocks.random_blocks(1, gen)
    z = blocks.random_blocks(n, gen)
    x = gen.integers(0, 2, n).astype(np.uint8)
    y = blocks.xor(z, blocks.mul_bit(delta, x))
    return delta, z, x, y


class TestLevelsAndWatermarks:
    def test_reserve_take_roundtrip(self):
        delta, z, _, _ = make_cot_arrays(64)
        pool = SenderCotPool("p", delta)
        pool.append_batch(CotSenderBatch(delta, z))
        lo = pool.reserve(10)
        assert lo == 0
        batch = pool.take_batch(lo, 10)
        assert np.array_equal(batch.z, z[:10])
        lo2 = pool.reserve(5)
        assert lo2 == 10

    def test_level_goes_negative_on_demand(self):
        pool = TriplePool("tri", low_watermark=8)
        assert pool.level == 0
        pool.reserve(20)
        assert pool.level == -20
        assert pool.needs_refill()
        assert pool.deficit >= 20

    def test_refill_event_set_below_watermark(self):
        delta, z, _, _ = make_cot_arrays(32)
        pool = SenderCotPool("p", delta, low_watermark=16, high_watermark=32)
        pool.append_batch(CotSenderBatch(delta, z))
        assert not pool.refill.is_set()
        pool.reserve(20)  # level 12 < 16
        assert pool.refill.is_set()

    def test_try_reserve_produced_refuses_unproduced(self):
        delta, z, _, _ = make_cot_arrays(16)
        pool = SenderCotPool("p", delta)
        pool.append_batch(CotSenderBatch(delta, z))
        assert pool.try_reserve_produced(10) == 0
        assert pool.try_reserve_produced(10) is None  # only 6 left
        assert pool.try_reserve_produced(6) == 10


class TestBlockingAndBackpressure:
    def test_take_blocks_until_produced(self):
        delta, z, _, _ = make_cot_arrays(32)
        pool = SenderCotPool("p", delta)
        lo = pool.reserve(32)
        got = {}

        def taker():
            got["batch"] = pool.take_batch(lo, 32, timeout=10.0)

        t = threading.Thread(target=taker)
        t.start()
        time.sleep(0.1)
        assert "batch" not in got  # still stalled
        pool.append_batch(CotSenderBatch(delta, z))
        t.join(5.0)
        assert np.array_equal(got["batch"].z, z)
        assert pool.stats.stalled_draws == 1
        assert pool.stats.stall_time_s > 0
        assert pool.stats.hit_rate == 0.0

    def test_take_timeout_raises(self):
        pool = TriplePool("tri")
        lo = pool.reserve(4)
        with pytest.raises(ServiceError, match="timed out"):
            pool.take_triples(lo, 4, timeout=0.1)

    def test_take_after_close_serves_already_produced_data(self):
        """Shutdown must not strand data that is already in the buffer:
        only takes of *unproduced* ranges fail after close."""
        delta, z, _, _ = make_cot_arrays(16)
        pool = SenderCotPool("p", delta)
        pool.append_batch(CotSenderBatch(delta, z))
        lo = pool.reserve(10)
        pool.close()
        batch = pool.take_batch(lo, 10)  # data existed before close
        assert np.array_equal(batch.z, z[:10])
        lo2 = pool.reserve(10)  # beyond what was ever produced
        with pytest.raises(ServiceError, match="closed"):
            pool.take_batch(lo2, 10, timeout=0.5)

    def test_append_grows_capacity_geometrically(self):
        """Many small refills must not degrade into per-append copies of
        the whole buffer (amortized growth)."""
        pool = TriplePool("tri")
        gen = np.random.default_rng(3)
        total = 0
        for _ in range(50):
            a = gen.integers(0, 2, 37).astype(np.uint8)
            pool.append_columns((a, a, a))
            total += 37
        assert pool.produced == total
        lo = pool.reserve(total)
        t = pool.take_triples(lo, total)
        assert len(t) == total
        # Internal buffer over-allocates (capacity >= produced).
        assert pool._columns[0].shape[0] >= total

    def test_close_wakes_blocked_taker(self):
        pool = TriplePool("tri")
        lo = pool.reserve(4)
        errors = []

        def taker():
            try:
                pool.take_triples(lo, 4, timeout=30.0)
            except ServiceError as exc:
                errors.append(exc)

        t = threading.Thread(target=taker)
        t.start()
        time.sleep(0.05)
        pool.close()
        t.join(5.0)
        assert len(errors) == 1


class TestWatermarkEdges:
    """Satellite coverage: exact-boundary refill, ranges spanning a
    refill, and backpressure timing out loudly instead of deadlocking."""

    def test_refill_fires_exactly_at_low_watermark(self):
        """needs_refill is strict: level == low is healthy, one below
        trips the event on that very reserve."""
        delta, z, _, _ = make_cot_arrays(64)
        pool = SenderCotPool("p", delta, low_watermark=16, high_watermark=64)
        pool.append_batch(CotSenderBatch(delta, z))
        pool.reserve(48)  # level == 16 == low: no refill yet
        assert pool.level == pool.low_watermark
        assert not pool.needs_refill()
        assert not pool.refill.is_set()
        pool.reserve(1)  # level 15 < 16: the boundary crossing
        assert pool.needs_refill()
        assert pool.refill.is_set()

    def test_reserve_spanning_a_refill_boundary(self):
        """One reserved range served by two production batches must come
        back spliced in order across the append boundary."""
        pool = CorrelationPool("raw", n_columns=1)
        data = np.arange(48, dtype=np.uint64)
        pool.append_columns((data[:10],))
        lo = pool.reserve(32)  # spans well past the 10 produced
        got = {}

        def taker():
            got["cols"] = pool.take_columns(lo, 32, timeout=10.0)

        t = threading.Thread(target=taker)
        t.start()
        time.sleep(0.05)
        assert "cols" not in got
        pool.append_columns((data[10:30],))  # still one short of lo+32
        time.sleep(0.05)
        assert "cols" not in got
        pool.append_columns((data[30:48],))
        t.join(5.0)
        assert np.array_equal(got["cols"][0], data[:32])
        assert pool.stats.stalled_draws == 1

    def test_backpressure_timeout_raises_not_deadlocks(self):
        """A take the producer never satisfies raises ServiceError with
        the starved range, even when production made partial progress."""
        pool = TriplePool("tri")
        gen = np.random.default_rng(5)
        a = gen.integers(0, 2, 8).astype(np.uint8)
        lo = pool.reserve(16)
        pool.append_columns((a, a, a))  # half of the demand, never more
        start = time.monotonic()
        with pytest.raises(ServiceError, match=r"timed out waiting for \[0, 16\)"):
            pool.take_triples(lo, 16, timeout=0.3)
        assert time.monotonic() - start < 5.0

    def test_wait_level_and_raise_watermarks(self):
        """prefill's pool contract: raise-only watermarks, blocking wait."""
        pool = TriplePool("tri", low_watermark=4, high_watermark=8)
        pool.raise_watermarks(low=32)
        pool.raise_watermarks(low=16, high=2)  # never lowers
        assert pool.low_watermark == 32
        assert pool.high_watermark >= 32
        gen = np.random.default_rng(6)
        a = gen.integers(0, 2, 32).astype(np.uint8)

        def producer():
            time.sleep(0.05)
            pool.append_columns((a, a, a))

        t = threading.Thread(target=producer)
        t.start()
        pool.wait_level(32, timeout=10.0)
        t.join(5.0)
        assert pool.level >= 32
        pool.wait_produced(32, timeout=1.0)
        with pytest.raises(ServiceError, match="timed out"):
            pool.wait_level(1000, timeout=0.1)


class TestTypedPools:
    def test_cot_pools_stay_correlated(self):
        delta, z, x, y = make_cot_arrays(48)
        sp = SenderCotPool("s", delta)
        rp = ReceiverCotPool("r")
        sp.append_batch(CotSenderBatch(delta, z))
        rp.append_batch(CotReceiverBatch(x, y))
        lo = sp.reserve(20)
        rp.reserve(20)
        sb = sp.take_batch(lo, 20)
        rb = rp.take_batch(lo, 20)
        assert verify_cot(sb, rb)

    def test_triple_pool_roundtrip(self):
        gen = np.random.default_rng(9)
        a, b = gen.integers(0, 2, 30).astype(np.uint8), gen.integers(0, 2, 30).astype(np.uint8)
        pool = TriplePool("tri")
        pool.append_columns((a, b, a & b))
        lo = pool.reserve(30)
        t = pool.take_triples(lo, 30)
        assert isinstance(t, BitTriples)
        assert np.array_equal(t.c, t.a & t.b)

    def test_out_of_order_takes_and_trim(self):
        """Sessions may take reserved ranges out of order; the buffer is
        trimmed only once the contiguous prefix is consumed."""
        pool = CorrelationPool("raw", n_columns=1, trim_chunk=64)
        data = np.arange(256, dtype=np.uint64)
        pool.append_columns((data,))
        lo_a = pool.reserve(64)
        lo_b = pool.reserve(64)
        lo_c = pool.reserve(64)
        (b_vals,) = pool.take_columns(lo_b, 64)  # out of order
        assert np.array_equal(b_vals, data[64:128])
        (a_vals,) = pool.take_columns(lo_a, 64)
        (c_vals,) = pool.take_columns(lo_c, 64)
        assert np.array_equal(a_vals, data[:64])
        assert np.array_equal(c_vals, data[128:192])
        # Prefix [0, 192) was trimmed; absolute indexing still works.
        lo_d = pool.reserve(32)
        (d_vals,) = pool.take_columns(lo_d, 32)
        assert np.array_equal(d_vals, data[192:224])
        with pytest.raises(ServiceError, match="trimmed"):
            pool.take_columns(lo_a, 8)

    def test_ring_triple_pool_roundtrip(self):
        gen = np.random.default_rng(21)
        a = gen.integers(0, 1 << 16, 40, dtype=np.uint64)
        b = gen.integers(0, 1 << 16, 40, dtype=np.uint64)
        pool = RingTriplePool("rtri", bits=16)
        pool.append_columns((a, b, (a * b) & np.uint64(0xFFFF)))
        lo = pool.reserve(40)
        t = pool.take_triples(lo, 40)
        assert isinstance(t, RingTriples)
        assert t.bits == 16
        assert np.array_equal(t.c, (t.a * t.b) & np.uint64(0xFFFF))

    def test_matrix_triple_pool_roundtrip(self):
        gen = np.random.default_rng(22)
        t0, _ = dealer_matrix_triples(3, 5, 4, 32, gen)
        pool = MatrixTriplePool("mtri/3x5x4", 3, 5, 4, bits=32,
                                low_watermark=0, high_watermark=0)
        assert pool.name == MatrixTriplePool.key_for(3, 5, 4)
        per_item = recipe_for(pool.name).inputs(pool.key_args, pool.bits)
        assert per_item == ((EITHER, (3 * 5 + 5 * 4) * 32),)
        pool.append_triple(t0)
        lo = pool.reserve(1)
        got = pool.take_triple(lo)
        assert isinstance(got, MatrixTriples)
        assert np.array_equal(got.a, t0.a)
        assert np.array_equal(got.c, t0.c)

    def test_stats_accumulate(self):
        delta, z, _, _ = make_cot_arrays(100)
        pool = SenderCotPool("p", delta)
        pool.append_batch(CotSenderBatch(delta, z))
        for _ in range(4):
            lo = pool.reserve(25)
            pool.take_batch(lo, 25)
        s = pool.stats
        assert s.draws == 4 and s.items_drawn == 100
        assert s.refills == 1 and s.items_refilled == 100
        assert s.hit_rate == 1.0
        assert s.as_dict()["items_drawn"] == 100


class TestOutOfOrderAppend:
    """append_columns_at: the shard-merge landing zone."""

    def test_in_order_is_plain_append(self):
        pool = CorrelationPool("ooo", 1)
        pool.append_columns_at(0, (np.arange(4, dtype=np.uint64),))
        pool.append_columns_at(4, (np.arange(4, 8, dtype=np.uint64),))
        assert pool.produced == 8
        assert pool.pending_segments == 0
        (got,) = pool.take_columns(0, 8, timeout=1.0)
        assert got.tolist() == list(range(8))

    def test_gap_parks_until_filled(self):
        pool = CorrelationPool("ooo", 1)
        pool.append_columns_at(4, (np.arange(4, 8, dtype=np.uint64),))
        assert pool.produced == 0
        assert pool.pending_segments == 1
        pool.append_columns_at(8, (np.arange(8, 10, dtype=np.uint64),))
        assert pool.produced == 0
        assert pool.pending_segments == 2
        # The gap fills: everything drains in one sweep.
        pool.append_columns_at(0, (np.arange(4, dtype=np.uint64),))
        assert pool.produced == 10
        assert pool.pending_segments == 0
        (got,) = pool.take_columns(0, 10, timeout=1.0)
        assert got.tolist() == list(range(10))

    def test_parked_segment_wakes_blocked_taker_on_drain(self):
        pool = CorrelationPool("ooo", 1)
        out = {}

        def taker():
            (got,) = pool.take_columns(0, 6, timeout=5.0)
            out["got"] = got.tolist()

        t = threading.Thread(target=taker)
        t.start()
        pool.append_columns_at(3, (np.arange(3, 6, dtype=np.uint64),))
        pool.append_columns_at(0, (np.arange(3, dtype=np.uint64),))
        t.join(5.0)
        assert out["got"] == list(range(6))

    def test_rollback_discards_parked_segments(self):
        pool = CorrelationPool("ooo", 1)
        pool.append_columns_at(0, (np.arange(4, dtype=np.uint64),))
        pool.append_columns_at(6, (np.arange(6, 9, dtype=np.uint64),))
        assert pool.pending_segments == 1
        dropped = pool.rollback_to(2)
        assert dropped == 2
        assert pool.produced == 2
        # Post-rollback offsets are reassigned by the merger: stale
        # parked segments must not resurface.
        assert pool.pending_segments == 0
        pool.append_columns_at(2, (np.arange(20, 24, dtype=np.uint64),))
        (got,) = pool.take_columns(0, 6, timeout=1.0)
        assert got.tolist() == [0, 1, 20, 21, 22, 23]

    def test_cot_pool_stays_correlated_over_out_of_order_merge(self):
        delta, z, x, y = make_cot_arrays(12, seed=5)
        spool = SenderCotPool("cot-s", delta)
        rpool = ReceiverCotPool("cot-r")
        # Sender lands in order; receiver merges the same stream with
        # the tail arriving first (different shard finished early).
        spool.append_columns_at(0, (z,))
        rpool.append_columns_at(8, (x[8:], y[8:]))
        rpool.append_columns_at(0, (x[:8], y[:8]))
        s = spool.take_batch(0, 12, timeout=1.0)
        r = rpool.take_batch(0, 12, timeout=1.0)
        assert verify_cot(s, r)

    def test_column_length_mismatch_rejected(self):
        pool = CorrelationPool("ooo", 2)
        with pytest.raises(ServiceError, match="lengths disagree"):
            pool.append_columns_at(
                0, (np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=np.uint64))
            )

    def test_range_overlap_with_parked_segment_rejected(self):
        # Regression: the duplicate guard only caught an exact-lo match;
        # a segment overlapping a parked neighbor at a DIFFERENT offset
        # was parked too and silently corrupted the merged stream.
        pool = CorrelationPool("ooo", 1)
        pool.append_columns_at(100, (np.arange(50, dtype=np.uint64),))
        with pytest.raises(ServiceError, match="overlaps parked segment"):
            pool.append_columns_at(120, (np.arange(50, dtype=np.uint64),))
        with pytest.raises(ServiceError, match="overlaps parked segment"):
            pool.append_columns_at(80, (np.arange(30, dtype=np.uint64),))
        # Entirely contained inside a parked range is an overlap too.
        with pytest.raises(ServiceError, match="overlaps parked segment"):
            pool.append_columns_at(110, (np.arange(10, dtype=np.uint64),))
        # Exactly adjacent ranges are disjoint and must still park.
        pool.append_columns_at(150, (np.arange(10, dtype=np.uint64),))
        pool.append_columns_at(90, (np.arange(10, dtype=np.uint64),))
        assert pool.pending_segments == 3

    def test_rollback_discards_straddling_parked_segment(self):
        # Regression: a parked segment straddling the rollback point
        # (seg_lo < produced < seg_lo + len) survived the `seg_lo <
        # produced` filter and later replayed stale production past the
        # rollback, contradicting "re-produced rather than replayed".
        pool = CorrelationPool("ooo", 1)
        pool.append_columns_at(0, (np.arange(10, dtype=np.uint64),))
        pool.take_columns(0, 4, timeout=1.0)
        pool.append_columns_at(12, (np.arange(112, 120, dtype=np.uint64),))
        assert pool.pending_segments == 1
        # Roll back to 15, INSIDE the parked [12, 20): the segment is
        # stale past the rollback point and must go, even though the
        # produced frontier (10) itself does not move.
        assert pool.rollback_to(15) == 0
        assert pool.produced == 10
        assert pool.pending_segments == 0
        # Filling the gap must NOT drain the stale segment's range.
        pool.append_columns_at(10, (np.arange(210, 212, dtype=np.uint64),))
        assert pool.produced == 12
        # Re-produced data owns [12, 20) outright.
        pool.append_columns_at(12, (np.arange(212, 220, dtype=np.uint64),))
        (got,) = pool.take_columns(10, 10, timeout=1.0)
        assert got.tolist() == list(range(210, 220))

    def test_drop_pending_segments_clears_the_parking_lot(self):
        pool = CorrelationPool("ooo", 1)
        pool.append_columns_at(0, (np.arange(4, dtype=np.uint64),))
        pool.append_columns_at(8, (np.arange(8, 12, dtype=np.uint64),))
        pool.append_columns_at(16, (np.arange(16, 20, dtype=np.uint64),))
        assert pool.drop_pending_segments() == 2
        assert pool.pending_segments == 0
        assert pool.produced == 4
        assert pool.drop_pending_segments() == 0
