"""End-to-end Ferret protocol tests (setup -> extend -> bootstrap)."""

import numpy as np
import pytest

from repro.errors import ParameterError, ProtocolError
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender, ferret_pair
from repro.lpn.params import LpnParams, scaled_params
from repro.ot.channel import run_pair
from repro.ot.cot import verify_cot
from repro.utils.bitops import log_base

SMALL = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")


@pytest.fixture(scope="module")
def two_rounds():
    return ferret_pair(SMALL, rounds=2, seed=11)


class TestConfig:
    def test_paper_config_by_label(self):
        cfg = FerretConfig.paper("2^22", arity=4, prg_kind="chacha8")
        assert cfg.params.n == 4531924
        assert cfg.arity == 4

    def test_rejects_non_power_arity(self):
        with pytest.raises(ParameterError, match="power of two"):
            FerretConfig(params=scaled_params(), arity=3)

    def test_base_cots_cover_lpn_and_spcot(self):
        cfg = SMALL
        assert cfg.base_cots_needed == cfg.params.k + cfg.spcot_cots
        assert cfg.net_output == cfg.params.n - cfg.base_cots_needed
        assert cfg.net_output > 0

    def test_make_prg_matches_config(self):
        prg = SMALL.make_prg()
        assert prg.arity == SMALL.arity
        assert prg.name == SMALL.prg_kind


class TestProtocol:
    def test_outputs_are_valid_cots(self, two_rounds):
        s_out, r_out, _, _ = two_rounds
        for sb, rb in zip(s_out, r_out):
            assert verify_cot(sb, rb)

    def test_output_size_matches_config(self, two_rounds):
        s_out, _, _, _ = two_rounds
        assert all(len(b) == SMALL.net_output for b in s_out)

    def test_rounds_are_independent_correlations(self, two_rounds):
        s_out, _, _, _ = two_rounds
        assert not np.array_equal(s_out[0].z, s_out[1].z)

    def test_delta_constant_across_rounds(self, two_rounds):
        s_out, _, _, _ = two_rounds
        assert np.array_equal(s_out[0].delta, s_out[1].delta)

    def test_choice_bits_look_uniform(self, two_rounds):
        _, r_out, _, _ = two_rounds
        bits = np.concatenate([b.x for b in r_out])
        assert 0.42 < bits.mean() < 0.58

    def test_communication_is_sublinear(self, two_rounds):
        """PCG-style OTE: per-COT online communication << 16 bytes."""
        s_out, _, s_stats, r_stats = two_rounds
        total_cots = sum(len(b) for b in s_out)
        online = s_stats.bytes_sent + r_stats.bytes_sent
        assert online / total_cots < 16

    def test_extend_before_setup_raises(self):
        sender = FerretSender(SMALL)
        with pytest.raises(ProtocolError):
            sender.extend(None)
        receiver = FerretReceiver(SMALL)
        with pytest.raises(ProtocolError):
            receiver.extend(None)

    def test_stats_recorded(self, two_rounds):
        # ferret_pair drives FerretSender internally; re-run tiny to check
        s_out, r_out, _, _ = ferret_pair(SMALL, rounds=1, seed=3)
        assert verify_cot(s_out[0], r_out[0])


def run_ferret_session(config, rounds=1, seed=7):
    """Like ferret_pair but also hands back the party objects."""
    sender = FerretSender(config, seed=seed)
    receiver = FerretReceiver(config, seed=seed + 1)

    def run_sender(channel):
        sender.setup(channel)
        return [sender.extend(channel) for _ in range(rounds)]

    def run_receiver(channel):
        receiver.setup(channel)
        return [receiver.extend(channel) for _ in range(rounds)]

    s_out, r_out, s_stats, r_stats = run_pair(run_sender, run_receiver)
    return sender, receiver, s_out, r_out, s_stats, r_stats


class TestExtendStats:
    #: t deliberately much larger than the GGM depth so O(t * depth) and
    #: O(depth) round counts are far apart.
    ROUND_PARAMS = LpnParams("round-test", 2048, 64, 32, 32, 0.0)

    def test_bytes_sent_is_per_iteration_delta(self):
        """bytes_sent must snapshot per extend, not report channel totals."""
        cfg = FerretConfig(params=self.ROUND_PARAMS, arity=4, prg_kind="chacha8")
        sender, receiver, _, _, s_stats, _ = run_ferret_session(cfg, rounds=2)
        # Cumulative channel bytes include setup, so a per-iteration delta
        # must be strictly smaller than the session total.
        assert sender.last_stats.bytes_sent < s_stats.bytes_sent
        assert receiver.last_stats.bytes_sent < s_stats.bytes_received
        assert sender.last_stats.bytes_sent > 0
        assert receiver.last_stats.bytes_sent > 0

    def test_receiver_has_last_stats_like_sender(self):
        cfg = FerretConfig(params=self.ROUND_PARAMS, arity=4, prg_kind="chacha8")
        sender, receiver, _, _, _, _ = run_ferret_session(cfg)
        for stats in (sender.last_stats, receiver.last_stats):
            assert stats.n_output == cfg.params.n - cfg.base_cots_needed
            assert stats.prg_calls > 0
            assert stats.rounds > 0

    @pytest.mark.parametrize("arity", [2, 4])
    def test_extend_rounds_scale_with_depth_not_t(self, arity):
        """Regression guard for the batched schedule: per-extend channel
        rounds are O(depth * log2(arity)), independent of t."""
        params = self.ROUND_PARAMS
        cfg = FerretConfig(params=params, arity=arity, prg_kind="chacha8")
        sender, receiver, _, _, _, _ = run_ferret_session(cfg)
        depth = log_base(params.tree_leaves(arity), arity)
        bits_per_level = log_base(arity, 2)
        # Each binary OT flips direction twice; allow a small constant for
        # the psi broadcast, masked sums, and at most two depth runs.
        bound = 2 * (2 * depth * bits_per_level + 4)
        seq_scale = params.t * depth  # what the sequential path would pay
        for stats in (sender.last_stats, receiver.last_stats):
            assert stats.rounds <= bound
            assert stats.rounds < seq_scale / 4

    def test_sequential_path_still_pays_per_tree_rounds(self):
        """The oracle keeps its O(t * depth) shape -- proving the batched
        default is what removed the factor of t."""
        params = self.ROUND_PARAMS
        cfg = FerretConfig(
            params=params, arity=4, prg_kind="chacha8", batched=False
        )
        sender, _, _, _, _, _ = run_ferret_session(cfg)
        depth = log_base(params.tree_leaves(4), 4)
        assert sender.last_stats.rounds >= params.t * depth

    def test_batched_and_sequential_outputs_match(self):
        cfg_b = FerretConfig(params=self.ROUND_PARAMS, arity=4, prg_kind="chacha8")
        cfg_s = FerretConfig(
            params=self.ROUND_PARAMS, arity=4, prg_kind="chacha8", batched=False
        )
        _, _, sb, rb, _, _ = run_ferret_session(cfg_b, seed=21)
        _, _, ss, rs, _, _ = run_ferret_session(cfg_s, seed=21)
        assert np.array_equal(sb[0].z, ss[0].z)
        assert np.array_equal(rb[0].x, rs[0].x)
        assert np.array_equal(rb[0].y, rs[0].y)


class TestVariants:
    @pytest.mark.parametrize(
        "arity,prg", [(2, "aes"), (2, "chacha8"), (4, "chacha8"), (4, "aes")]
    )
    def test_all_prg_arity_combinations(self, arity, prg):
        cfg = FerretConfig.small(scale=2048, arity=arity, prg_kind=prg)
        s_out, r_out, _, _ = ferret_pair(cfg, rounds=1, seed=5)
        assert verify_cot(s_out[0], r_out[0])

    def test_matrix_seed_shared_and_deterministic(self):
        a = FerretSender(SMALL, seed=1).matrix
        b = FerretReceiver(SMALL, seed=99).matrix
        assert np.array_equal(a.indices, b.indices)


class TestOverlapEncode:
    """``overlap_encode=True`` moves the LPN premix onto a background
    thread under the interactive MPCOT phase; the output stream must be
    bit-identical (the premix is XOR-associative, nothing else moves)."""

    def test_bit_exact_vs_sequential(self):
        import dataclasses

        cfg_over = dataclasses.replace(SMALL, overlap_encode=True)
        s_a, r_a, _, _ = ferret_pair(SMALL, rounds=3, seed=21)
        s_b, r_b, _, _ = ferret_pair(cfg_over, rounds=3, seed=21)
        for batch_a, batch_b in zip(s_a, s_b):
            assert np.array_equal(batch_a.z, batch_b.z)
        for batch_a, batch_b in zip(r_a, r_b):
            assert np.array_equal(batch_a.x, batch_b.x)
            assert np.array_equal(batch_a.y, batch_b.y)

    def test_overlapped_stream_still_correlated(self):
        import dataclasses

        cfg_over = dataclasses.replace(SMALL, overlap_encode=True)
        s_out, r_out, _, _ = ferret_pair(cfg_over, rounds=2, seed=22)
        for s, r in zip(s_out, r_out):
            assert verify_cot(s, r)
