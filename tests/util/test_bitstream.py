"""Tests for the bit-level reader/writer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.bitstream import BitReader, BitWriter
from repro.util.errors import DecodingError


class TestBitWriter:
    def test_single_bits_msb_first(self):
        w = BitWriter()
        w.write(1, 1)
        w.write(0, 1)
        w.write(1, 1)
        assert w.getvalue() == bytes([0b10100000])

    def test_multibyte_value(self):
        w = BitWriter()
        w.write(0xABCD, 16)
        assert w.getvalue() == b"\xab\xcd"

    def test_value_too_large_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)

    def test_negative_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(-1, 4)

    def test_len_counts_bits(self):
        w = BitWriter()
        w.write(0b101, 3)
        assert len(w) == 3
        w.write(0, 8)
        assert len(w) == 11

    def test_write_bytes_aligned_fast_path(self):
        w = BitWriter()
        w.write_bytes(b"\x01\x02")
        assert w.getvalue() == b"\x01\x02"

    def test_write_bytes_unaligned(self):
        w = BitWriter()
        w.write(0b1111, 4)
        w.write_bytes(b"\x00")
        assert w.getvalue() == bytes([0xF0, 0x00])

    def test_write_codes_known_layout(self):
        w = BitWriter()
        w.write_codes(np.array([1, 2, 0, 5]), np.array([1, 3, 2, 3]))
        assert w.getvalue() == bytes([0b10100010, 0b10000000])
        assert len(w) == 9

    def test_write_codes_rejects_bad_codes(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_codes(np.array([4]), np.array([2]))
        with pytest.raises(ValueError):
            w.write_codes(np.array([-1]), np.array([8]))
        with pytest.raises(ValueError):
            w.write_codes(np.array([1, 2]), np.array([2]))
        assert w.getvalue() == b""

    @given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 41)),
                    max_size=40),
           st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 41)),
                    max_size=40),
           st.integers(0, 15))
    def test_write_codes_equals_write(self, before, fields, lead):
        """A bulk write appends exactly the bits of one write() per
        code, wherever in a byte the writer stands."""
        fields = [(v & ((1 << n) - 1), n) for v, n in fields]
        bulk, serial = BitWriter(), BitWriter()
        for w in (bulk, serial):
            w.write(0b101, 3)
            for v, n in before:
                w.write(v & ((1 << n) - 1), n)
            w.write(0, lead)
        bulk.write_codes(np.array([v for v, _ in fields], dtype=np.int64),
                         np.array([n for _, n in fields], dtype=np.int64))
        for v, n in fields:
            serial.write(v, n)
        assert len(bulk) == len(serial)
        assert bulk.getvalue() == serial.getvalue()


class TestBitReader:
    def test_reads_msb_first(self):
        r = BitReader(bytes([0b10100000]))
        assert r.read(1) == 1
        assert r.read(1) == 0
        assert r.read(1) == 1

    def test_exhaustion_raises(self):
        r = BitReader(b"\x00")
        r.read(8)
        with pytest.raises(DecodingError):
            r.read(1)

    def test_read_bytes_aligned(self):
        r = BitReader(b"\x01\x02\x03")
        assert r.read_bytes(2) == b"\x01\x02"
        assert r.read(8) == 3

    def test_align_skips_to_boundary(self):
        r = BitReader(b"\xff\x01")
        r.read(3)
        r.align()
        assert r.read(8) == 1


class TestRoundTrip:
    @given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 24)),
                    max_size=40))
    def test_write_read_roundtrip(self, fields):
        w = BitWriter()
        expected = []
        for value, width in fields:
            value &= (1 << width) - 1
            w.write(value, width)
            expected.append((value, width))
        r = BitReader(w.getvalue())
        for value, width in expected:
            assert r.read(width) == value
