"""Channel accounting + pair-runner tests."""

import time

import numpy as np
import pytest

from repro.crypto import blocks
from repro.errors import ChannelClosed, ChannelError, ChannelTimeout
from repro.ot.channel import LocalChannel, PartyError, run_pair


class TestLocalChannel:
    def test_roundtrip_bytes(self):
        a, b = LocalChannel.pair()
        a.send_bytes(b"hello")
        assert b.recv_bytes() == b"hello"

    def test_roundtrip_blocks(self, rng):
        a, b = LocalChannel.pair()
        data = blocks.random_blocks(5, rng)
        a.send_blocks(data)
        assert np.array_equal(b.recv_blocks(), data)

    def test_roundtrip_bits(self, rng):
        a, b = LocalChannel.pair()
        bits = rng.integers(0, 2, 37).astype(np.uint8)
        a.send_bits(bits)
        assert np.array_equal(b.recv_bits(), bits)

    def test_roundtrip_int(self):
        a, b = LocalChannel.pair()
        a.send_int(123456789)
        assert b.recv_int() == 123456789

    def test_roundtrip_int_narrow_width(self):
        a, b = LocalChannel.pair()
        a.send_int(77, width=2)
        assert b.recv_int(width=2) == 77

    def test_recv_int_width_mismatch_raises(self):
        a, b = LocalChannel.pair()
        a.send_int(5, width=4)
        with pytest.raises(ChannelError, match="4 bytes"):
            b.recv_int(width=8)

    def test_recv_int_rejects_arbitrary_payload(self):
        a, b = LocalChannel.pair()
        a.send_bytes(b"not-eight-bytes!")
        with pytest.raises(ChannelError):
            b.recv_int()

    def test_fifo_order(self):
        a, b = LocalChannel.pair()
        a.send_bytes(b"1")
        a.send_bytes(b"2")
        assert b.recv_bytes() == b"1"
        assert b.recv_bytes() == b"2"

    def test_duplex(self):
        a, b = LocalChannel.pair()
        a.send_bytes(b"ping")
        b.send_bytes(b"pong")
        assert b.recv_bytes() == b"ping"
        assert a.recv_bytes() == b"pong"

    def test_recv_timeout_raises(self):
        a, _ = LocalChannel.pair()
        with pytest.raises(ChannelError):
            a.recv_bytes(timeout=0.05)

    def test_timeout_is_a_channel_error_subclass(self):
        a, _ = LocalChannel.pair()
        with pytest.raises(ChannelTimeout):
            a.recv_bytes(timeout=0.05)

    def test_pair_timeout_configurable(self):
        """The old hardcoded 60 s is now a constructor/pair() argument."""
        a, b = LocalChannel.pair(timeout=0.05)
        assert a.timeout == 0.05 and b.timeout == 0.05
        start = time.monotonic()
        with pytest.raises(ChannelTimeout):
            a.recv_bytes()  # uses the configured default, not 60 s
        assert time.monotonic() - start < 5.0

    def test_explicit_timeout_overrides_default(self):
        a, _ = LocalChannel.pair(timeout=100.0)
        start = time.monotonic()
        with pytest.raises(ChannelTimeout):
            a.recv_bytes(timeout=0.05)
        assert time.monotonic() - start < 5.0

    def test_close_delivers_queued_then_poisons_peer(self):
        a, b = LocalChannel.pair(timeout=100.0)
        a.send_bytes(b"last words")
        a.close()
        assert b.recv_bytes() == b"last words"
        start = time.monotonic()
        for _ in range(2):  # stays closed for every later receive
            with pytest.raises(ChannelClosed):
                b.recv_bytes()
        assert time.monotonic() - start < 1.0


class TestAccounting:
    def test_bytes_counted_both_sides(self):
        a, b = LocalChannel.pair()
        a.send_bytes(b"x" * 100)
        b.recv_bytes()
        assert a.stats.bytes_sent == 100
        assert b.stats.bytes_received == 100

    def test_messages_counted(self):
        a, b = LocalChannel.pair()
        for _ in range(3):
            a.send_bytes(b"m")
        assert a.stats.messages_sent == 3

    def test_rounds_count_direction_flips(self):
        a, b = LocalChannel.pair()
        # a sends twice (one round), b replies (one round), a again (two).
        a.send_bytes(b"1")
        a.send_bytes(b"2")
        assert a.stats.rounds == 1
        b.recv_bytes()
        b.recv_bytes()
        b.send_bytes(b"r")
        assert b.stats.rounds == 1
        a.recv_bytes()
        a.send_bytes(b"3")
        assert a.stats.rounds == 2

    def test_total_bytes(self):
        a, b = LocalChannel.pair()
        a.send_bytes(b"abc")
        b.recv_bytes()
        b.send_bytes(b"defg")
        a.recv_bytes()
        assert a.stats.total_bytes == 7
        assert b.stats.total_bytes == 7

    def test_bit_packing_is_compact(self, rng):
        a, b = LocalChannel.pair()
        a.send_bits(rng.integers(0, 2, 800).astype(np.uint8))
        b.recv_bits()
        assert a.stats.bytes_sent == 8 + 100  # 8-byte header + packed bits


class TestRunPair:
    def test_returns_both_results_and_stats(self):
        def ping(ch):
            ch.send_bytes(b"ping")
            return ch.recv_bytes()

        def pong(ch):
            msg = ch.recv_bytes()
            ch.send_bytes(b"pong")
            return msg

        ra, rb, sa, sb = run_pair(ping, pong)
        assert ra == b"pong" and rb == b"ping"
        assert sa.bytes_sent == 4 and sb.bytes_sent == 4

    def test_propagates_party_exception(self):
        def fail(ch):
            raise ValueError("boom")

        def idle(ch):
            return None

        with pytest.raises(PartyError, match="boom"):
            run_pair(fail, idle)

    def test_failing_party_unblocks_its_peer(self):
        """A raise on one side closes its endpoint: the peer's blocked
        receive fails at once instead of waiting out its timeout, and the
        first failure is the one reported."""

        def fail(ch):
            raise ValueError("boom")

        def wait(ch):
            return ch.recv_bytes()

        start = time.monotonic()
        with pytest.raises(PartyError, match="boom") as info:
            run_pair(fail, wait, recv_timeout=60.0)
        assert time.monotonic() - start < 5.0
        assert isinstance(info.value.__cause__, ValueError)

    def test_recv_timeout_surfaced_through_run_pair(self):
        """run_pair(recv_timeout=...) reaches the channels, so paper-sized
        runs can wait longer than the default without dying spuriously."""

        def slow_sender(ch):
            time.sleep(0.3)
            ch.send_bytes(b"late")

        def patient_receiver(ch):
            return ch.recv_bytes()  # channel default must cover the delay

        # A tiny recv_timeout fails...
        with pytest.raises(PartyError):
            run_pair(slow_sender, patient_receiver, recv_timeout=0.05)
        # ...while an adequate one succeeds without per-call overrides.
        _, got, _, _ = run_pair(slow_sender, patient_receiver, recv_timeout=5.0)
        assert got == b"late"

    def test_interleaved_protocol(self, rng):
        data = blocks.random_blocks(4, rng)

        def sender(ch):
            for i in range(4):
                ch.send_blocks(data[i : i + 1])
                assert ch.recv_bytes() == b"ack%d" % i

        def receiver(ch):
            got = []
            for i in range(4):
                got.append(ch.recv_blocks())
                ch.send_bytes(b"ack%d" % i)
            return np.concatenate(got)

        _, received, _, _ = run_pair(sender, receiver)
        assert np.array_equal(received, data)
