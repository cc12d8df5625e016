"""Tests for the CRC generators."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.util.crc import crc8_hec, crc32_aal5, crc32_final


def _reference_table() -> list:
    """CRC-32 (IEEE 802.3 / AAL5) table, reflected polynomial."""
    table = []
    for byte in range(256):
        reg = byte
        for _ in range(8):
            reg = (reg >> 1) ^ 0xEDB88320 if reg & 1 else reg >> 1
        table.append(reg)
    return table


_TABLE = _reference_table()


def reference_crc32_aal5(data: bytes, crc: int = 0xFFFFFFFF) -> int:
    """Table-driven running CRC-32: the definition crc32_aal5 must match."""
    reg = crc
    for b in data:
        reg = _TABLE[(reg ^ b) & 0xFF] ^ (reg >> 8)
    return reg


class TestHec:
    def test_requires_four_octets(self):
        with pytest.raises(ValueError):
            crc8_hec(b"\x00\x00\x00")
        with pytest.raises(ValueError):
            crc8_hec(b"\x00" * 5)

    def test_deterministic(self):
        assert crc8_hec(b"\x00\x00\x00\x00") == crc8_hec(b"\x00\x00\x00\x00")

    def test_zero_header_is_coset(self):
        # CRC-8 of all-zero input is 0, so the HEC is exactly the coset.
        assert crc8_hec(b"\x00\x00\x00\x00") == 0x55

    def test_distinguishes_headers(self):
        a = crc8_hec(b"\x00\x00\x00\x01")
        b = crc8_hec(b"\x00\x00\x00\x02")
        assert a != b

    @given(st.binary(min_size=4, max_size=4), st.integers(0, 31))
    def test_detects_single_bit_errors(self, header, bitpos):
        """Any single-bit flip in the protected octets changes the HEC."""
        flipped = bytearray(header)
        flipped[bitpos // 8] ^= 1 << (bitpos % 8)
        assert crc8_hec(header) != crc8_hec(bytes(flipped))

    @given(st.binary(min_size=4, max_size=4))
    def test_output_is_a_byte(self, header):
        assert 0 <= crc8_hec(header) <= 0xFF


class TestCrc32:
    def test_known_vector(self):
        # standard CRC-32 check value: "123456789" -> 0xCBF43926
        assert crc32_final(crc32_aal5(b"123456789")) == 0xCBF43926

    def test_empty(self):
        assert crc32_final(crc32_aal5(b"")) == 0x00000000

    @given(st.binary(max_size=500), st.integers(1, 499))
    def test_incremental_equals_oneshot(self, data, split):
        split = min(split, len(data))
        reg = crc32_aal5(data[:split])
        reg = crc32_aal5(data[split:], reg)
        assert reg == crc32_aal5(data)

    @given(st.binary(min_size=1, max_size=200))
    def test_detects_truncation(self, data):
        assert crc32_aal5(data) != crc32_aal5(data[:-1])

    def test_reference_check_value(self):
        assert crc32_final(reference_crc32_aal5(b"123456789")) == 0xCBF43926

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=30_000), st.integers(0, 0xFFFFFFFF))
    @example(bytes(range(256)) * 117, 0x0BADF00D)  # 29 952 bytes
    @example(b"\xff" * 30_000, 0)
    def test_matches_reference(self, data, reg):
        assert crc32_aal5(data, reg) == reference_crc32_aal5(data, reg)
