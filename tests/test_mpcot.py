"""Multi-point COT (regular noise) tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import blocks
from repro.crypto.prg import ChaChaTreePrg
from repro.errors import ParameterError
from repro.ot.channel import PartyError, run_pair
from repro.ot.cot import CotPool, CotReceiverBatch, CotSenderBatch
from repro.spcot.mpcot import (
    block_sizes,
    mpcot_cots_needed,
    mpcot_receive,
    mpcot_send,
    sample_alphas,
    tree_depth_for,
)


def run_mpcot(pools, delta, rng, n, t, arity, alphas):
    ps, pr = pools
    w, uv, _, _ = run_pair(
        lambda ch: mpcot_send(ch, ps, delta, ChaChaTreePrg(arity), n, t, rng),
        lambda ch: mpcot_receive(ch, pr, alphas, ChaChaTreePrg(arity), n, t),
    )
    return w, uv[0], uv[1]


class TestBlockStructure:
    def test_block_sizes_partition_n(self):
        assert sum(block_sizes(100, 7)) == 100

    def test_block_sizes_even_split(self):
        sizes = block_sizes(100, 7)
        assert max(sizes) - min(sizes) <= 1

    def test_block_sizes_validation(self):
        with pytest.raises(ParameterError):
            block_sizes(3, 5)

    @pytest.mark.parametrize("size,arity,expect", [(100, 2, 7), (100, 4, 4), (4, 4, 1), (1, 2, 1)])
    def test_tree_depth_covers_block(self, size, arity, expect):
        depth = tree_depth_for(size, arity)
        assert depth == expect
        assert arity**depth >= size

    def test_cots_needed_counts_all_trees(self):
        # n=50, t=4: blocks 13,13,12,12 -> 16-leaf trees -> 4 bits each.
        assert mpcot_cots_needed(50, 4, 4) == 16

    def test_sample_alphas_within_blocks(self, rng):
        alphas = sample_alphas(100, 7, rng)
        for a, size in zip(alphas, block_sizes(100, 7)):
            assert 0 <= a < size


class TestProtocol:
    def test_invariant_and_weight(self, cot_pools, delta, rng):
        n, t, arity = 50, 4, 4
        alphas = sample_alphas(n, t, rng)
        w, u, v = run_mpcot(cot_pools, delta, rng, n, t, arity, alphas)
        assert u.sum() == t
        expect = blocks.xor(v, blocks.mul_bit(delta, u))
        assert np.all(blocks.equal(w, expect))

    def test_noise_positions_are_regular(self, cot_pools, delta, rng):
        n, t = 60, 5
        alphas = sample_alphas(n, t, rng)
        _, u, _ = run_mpcot(cot_pools, delta, rng, n, t, 4, alphas)
        offset = 0
        for b, size in enumerate(block_sizes(n, t)):
            block = u[offset : offset + size]
            assert block.sum() == 1
            assert block[alphas[b]] == 1
            offset += size

    def test_alpha_out_of_block_rejected(self, cot_pools, delta, rng):
        with pytest.raises(PartyError) as info:
            run_mpcot(cot_pools, delta, rng, 40, 4, 4, np.array([0, 0, 0, 10]))
        assert isinstance(info.value.__cause__, ParameterError)
        assert "outside its block" in str(info.value.__cause__)

    def test_wrong_alpha_count_rejected(self, cot_pools, delta, rng):
        with pytest.raises(PartyError) as info:
            run_mpcot(cot_pools, delta, rng, 40, 4, 4, np.array([0, 0, 0]))
        assert isinstance(info.value.__cause__, ParameterError)
        assert "puncture positions" in str(info.value.__cause__)

    def test_binary_arity_variant(self, cot_pools, delta, rng):
        n, t = 30, 3
        alphas = sample_alphas(n, t, rng)
        ps, pr = cot_pools
        from repro.crypto.prg import AesTreePrg

        w, uv, _, _ = run_pair(
            lambda ch: mpcot_send(ch, ps, delta, AesTreePrg(2), n, t, rng),
            lambda ch: mpcot_receive(ch, pr, alphas, AesTreePrg(2), n, t),
        )
        u, v = uv
        assert np.all(blocks.equal(w, blocks.xor(v, blocks.mul_bit(delta, u))))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_property_random_configs(self, seed, shared_cots, delta):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 80))
        t = int(rng.integers(1, 5))
        s_batch, r_batch = shared_cots
        pools = (
            CotPool(sender=CotSenderBatch(s_batch.delta, s_batch.z.copy())),
            CotPool(receiver=CotReceiverBatch(r_batch.x.copy(), r_batch.y.copy())),
        )
        alphas = sample_alphas(n, t, rng)
        w, u, v = run_mpcot(pools, delta, rng, n, t, 4, alphas)
        assert u.sum() == t
        assert np.all(blocks.equal(w, blocks.xor(v, blocks.mul_bit(delta, u))))
