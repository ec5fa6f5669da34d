"""Batched level-synchronous MPCOT vs the sequential reference oracle.

The batched path must be a pure schedule change: same outputs bit for
bit, same PRG core-call counts (the Figure 7 quantity), same COT
consumption -- only the channel-round count may differ, dropping from
O(t * depth) to O(depth).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import blocks
from repro.crypto.prg import AesTreePrg, ChaChaTreePrg
from repro.errors import ParameterError
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool, CotReceiverBatch, CotSenderBatch
from repro.spcot.ggm import (
    BatchedPuncturedReconstructor,
    alpha_digits,
    batched_expand_full,
    batched_level_sums,
    expand_full,
    level_sums,
)
from repro.spcot.mpcot import (
    block_sizes,
    depth_runs,
    mpcot_cots_needed,
    mpcot_receive,
    mpcot_send,
    sample_alphas,
    tree_depth_for,
)
from repro.spcot.protocol import cots_needed, spcot_receive_batch, spcot_send_batch


def make_pools(n_cots, delta, seed=99):
    """Fabricated (not base-OT-derived) COT correlations for speed."""
    gen = np.random.default_rng(seed)
    z = blocks.random_blocks(n_cots, gen)
    x = gen.integers(0, 2, n_cots).astype(np.uint8)
    y = blocks.xor(z, blocks.mul_bit(delta, x))
    return (
        CotPool(sender=CotSenderBatch(delta, z)),
        CotPool(receiver=CotReceiverBatch(x, y)),
    )


def run_both_paths(n, t, arity, prg_cls, delta, rng_seed=123, alpha_seed=5):
    """Run sequential and batched MPCOT from identical starting state."""
    alphas = sample_alphas(n, t, np.random.default_rng(alpha_seed))
    results = {}
    for batched in (False, True):
        pool_s, pool_r = make_pools(mpcot_cots_needed(n, t, arity), delta)
        prg_s, prg_r = prg_cls(arity), prg_cls(arity)
        rng = np.random.default_rng(rng_seed)
        w, uv, s_stats, r_stats = run_pair(
            lambda ch: mpcot_send(ch, pool_s, delta, prg_s, n, t, rng, batched=batched),
            lambda ch: mpcot_receive(ch, pool_r, alphas, prg_r, n, t, batched=batched),
        )
        results[batched] = {
            "w": w,
            "u": uv[0],
            "v": uv[1],
            "prg_calls": (prg_s.total_calls, prg_r.total_calls),
            "rounds": (s_stats.rounds, r_stats.rounds),
            "pool_left": (pool_s.remaining, pool_r.remaining),
        }
    return results


class TestBatchedGgm:
    """The vectorized multi-tree helpers agree with the per-tree ones."""

    @pytest.mark.parametrize("arity,depth,t", [(2, 4, 3), (4, 3, 5), (8, 2, 2)])
    def test_batched_expand_matches_per_tree(self, arity, depth, t, rng):
        prg_batch, prg_one = ChaChaTreePrg(arity), ChaChaTreePrg(arity)
        seeds = blocks.random_blocks(t, rng)
        batched = batched_expand_full(prg_batch, seeds, depth)
        for i in range(t):
            single = expand_full(prg_one, seeds[i : i + 1], depth)
            for lvl in range(depth + 1):
                per_tree = arity**lvl
                got = batched[lvl][i * per_tree : (i + 1) * per_tree]
                assert np.array_equal(got, single[lvl])
        # prg_one expanded all t trees one by one: identical call totals.
        assert prg_batch.total_calls == prg_one.total_calls

    @pytest.mark.parametrize("arity,t", [(2, 4), (4, 3)])
    def test_batched_level_sums_match(self, arity, t, rng):
        per_tree = arity * 3
        nodes = blocks.random_blocks(t * per_tree, rng)
        batched = batched_level_sums(nodes, arity, t)
        for i in range(t):
            one = level_sums(nodes[i * per_tree : (i + 1) * per_tree], arity)
            assert np.array_equal(batched[i], one)

    @pytest.mark.parametrize("arity,depth,t", [(2, 5, 4), (4, 3, 3)])
    def test_batched_reconstruction_matches(self, arity, depth, t, rng):
        prg = ChaChaTreePrg(arity)
        seeds = blocks.random_blocks(t, rng)
        alphas = rng.integers(0, arity**depth, t)
        digits = np.array([alpha_digits(int(a), arity, depth) for a in alphas])
        levels = batched_expand_full(ChaChaTreePrg(arity), seeds, depth)
        recon = BatchedPuncturedReconstructor(prg, depth, digits)
        for lvl in range(1, depth + 1):
            recon.feed_level(batched_level_sums(levels[lvl], arity, t))
        leaves, holes = recon.leaves()
        expect = levels[-1].reshape(t, -1, 2).copy()
        assert np.array_equal(holes, alphas)
        expect[np.arange(t), alphas] = 0
        assert np.array_equal(leaves, expect)

    def test_reconstructor_validates_digit_shape(self):
        with pytest.raises(ParameterError, match="digits must be"):
            BatchedPuncturedReconstructor(ChaChaTreePrg(4), 3, np.zeros((2, 2)))
        with pytest.raises(ParameterError, match="digits must lie"):
            BatchedPuncturedReconstructor(
                ChaChaTreePrg(4), 2, np.full((2, 2), 7)
            )  # digit out of range


class TestBatchedSpcot:
    @pytest.mark.parametrize("arity,depth,t", [(2, 5, 3), (4, 3, 4), (8, 2, 2)])
    def test_invariant_holds(self, delta, arity, depth, t, rng):
        pool_s, pool_r = make_pools(t * cots_needed(arity**depth, arity), delta)
        alphas = rng.integers(0, arity**depth, t)
        prg_s, prg_r = ChaChaTreePrg(arity), ChaChaTreePrg(arity)
        send_rng = np.random.default_rng(3)
        w, vres, _, _ = run_pair(
            lambda ch: spcot_send_batch(ch, pool_s, delta, prg_s, depth, t, send_rng),
            lambda ch: spcot_receive_batch(ch, pool_r, alphas, prg_r, depth),
        )
        v, holes = vres
        assert np.array_equal(holes, alphas)
        for i in range(t):
            u = np.zeros(arity**depth, dtype=np.uint8)
            u[alphas[i]] = 1
            expect = blocks.xor(v[i], blocks.mul_bit(delta, u))
            assert np.all(blocks.equal(w[i], expect))

    def test_rounds_independent_of_tree_count(self, delta, rng):
        """One batched OT per level: rounds must not grow with t."""
        rounds = {}
        for t in (2, 16):
            pool_s, pool_r = make_pools(t * 6, delta)
            alphas = rng.integers(0, 64, t)
            send_rng = np.random.default_rng(4)
            prg_s, prg_r = ChaChaTreePrg(4), ChaChaTreePrg(4)
            _, _, s_stats, _ = run_pair(
                lambda ch: spcot_send_batch(ch, pool_s, delta, prg_s, 3, t, send_rng),
                lambda ch: spcot_receive_batch(ch, pool_r, alphas, prg_r, 3),
            )
            rounds[t] = s_stats.rounds
        assert rounds[2] == rounds[16]


class TestEquivalence:
    """Batched MPCOT == sequential MPCOT, bit for bit."""

    @pytest.mark.parametrize(
        "arity,prg_cls,n,t",
        [
            (2, AesTreePrg, 50, 4),
            (2, ChaChaTreePrg, 77, 5),
            (4, ChaChaTreePrg, 100, 7),
            (4, AesTreePrg, 64, 3),
            (8, ChaChaTreePrg, 60, 3),
            (4, ChaChaTreePrg, 64, 1),  # single tree degenerates cleanly
        ],
    )
    def test_outputs_bit_identical(self, delta, arity, prg_cls, n, t):
        res = run_both_paths(n, t, arity, prg_cls, delta)
        assert np.array_equal(res[False]["w"], res[True]["w"])
        assert np.array_equal(res[False]["u"], res[True]["u"])
        assert np.array_equal(res[False]["v"], res[True]["v"])

    @pytest.mark.parametrize("arity,prg_cls", [(2, AesTreePrg), (4, ChaChaTreePrg)])
    def test_prg_calls_identical(self, delta, arity, prg_cls):
        """Figure 7's paper-reported quantity must be schedule-invariant."""
        res = run_both_paths(90, 6, arity, prg_cls, delta)
        assert res[False]["prg_calls"] == res[True]["prg_calls"]

    def test_cot_consumption_identical(self, delta):
        res = run_both_paths(100, 7, 4, ChaChaTreePrg, delta)
        assert res[False]["pool_left"] == res[True]["pool_left"] == (0, 0)

    def test_batched_rounds_are_fewer(self, delta):
        """t trees collapse into O(depth) rounds (t > depth_runs here)."""
        res = run_both_paths(128, 8, 4, ChaChaTreePrg, delta)
        seq_rounds = res[False]["rounds"][0]
        bat_rounds = res[True]["rounds"][0]
        assert bat_rounds * 4 <= seq_rounds

    @given(
        seed=st.integers(0, 10_000),
        arity=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_randomized_sweep(self, seed, arity, delta):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(16, 120))
        t = int(rng.integers(1, min(n, 8) + 1))
        res = run_both_paths(
            n, t, arity, ChaChaTreePrg, delta, rng_seed=seed + 1, alpha_seed=seed + 2
        )
        assert np.array_equal(res[False]["w"], res[True]["w"])
        assert np.array_equal(res[False]["u"], res[True]["u"])
        assert np.array_equal(res[False]["v"], res[True]["v"])
        assert res[False]["prg_calls"] == res[True]["prg_calls"]
        # And the batched run is still a valid MPCOT.
        w, u, v = res[True]["w"], res[True]["u"], res[True]["v"]
        assert u.sum() == t
        assert np.all(blocks.equal(w, blocks.xor(v, blocks.mul_bit(delta, u))))


class TestDepthRuns:
    def test_regular_noise_gives_at_most_two_runs(self):
        for n, t, arity in [(100, 7, 4), (1000, 33, 2), (64, 64, 4), (77, 5, 2)]:
            runs = depth_runs(block_sizes(n, t), arity)
            assert len(runs) <= 2
            assert sum(r[1] for r in runs) == t

    def test_runs_cover_trees_in_order(self):
        sizes = block_sizes(100, 7)
        runs = depth_runs(sizes, 4)
        covered = []
        for first, count, depth in runs:
            for i in range(first, first + count):
                assert tree_depth_for(sizes[i], 4) == depth
                covered.append(i)
        assert covered == list(range(7))
