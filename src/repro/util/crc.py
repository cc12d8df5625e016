"""CRC generators used by the ATM substrate.

Two checksums appear in the ATM standards that MITS rode on:

* the **HEC** (Header Error Control) byte of every ATM cell is a CRC-8
  over the first four header octets, generator ``x^8 + x^2 + x + 1``
  (0x107), with the coset ``0x55`` added per ITU-T I.432;
* the **AAL5 CPCS trailer** carries a CRC-32 (the IEEE 802.3 polynomial,
  reflected) over the whole CPCS-PDU.

The HEC uses a precomputed table: it covers four octets per cell.  The
AAL5 CRC runs over every byte the network carries, so it goes through
:func:`zlib.crc32`, which computes the same reflected IEEE CRC-32 in C
(a 16 KB frame takes microseconds rather than milliseconds in a Python
table loop).  ``tests/util/test_crc.py`` keeps the table-driven
definition as the reference it is checked against.
"""

from __future__ import annotations

import zlib

_HEC_POLY = 0x07  # x^8 + x^2 + x + 1 with the x^8 term implicit
_HEC_COSET = 0x55

def _build_crc8_table(poly: int) -> list[int]:
    table = []
    for byte in range(256):
        reg = byte
        for _ in range(8):
            if reg & 0x80:
                reg = ((reg << 1) ^ poly) & 0xFF
            else:
                reg = (reg << 1) & 0xFF
        table.append(reg)
    return table


_CRC8_TABLE = _build_crc8_table(_HEC_POLY)


def crc8_hec(header4: bytes) -> int:
    """Compute the HEC octet for the first four octets of a cell header.

    Returns the CRC-8 of *header4* with the I.432 coset 0x55 added, i.e.
    the value that goes into the fifth header octet.
    """
    if len(header4) != 4:
        raise ValueError(f"HEC is computed over exactly 4 octets, got {len(header4)}")
    reg = 0
    for b in header4:
        reg = _CRC8_TABLE[reg ^ b]
    return reg ^ _HEC_COSET


#: Residue left in the (pre-inversion) register after running the CRC
#: over a frame *including* its trailing CRC field.  Receivers check
#: this instead of recomputing and comparing.
CRC32_AAL5_GOOD = 0xDEBB20E3


def crc32_aal5(data: bytes, crc: int = 0xFFFFFFFF) -> int:
    """Running CRC-32 over *data*.

    Call with the default initial value for a fresh frame; the final
    transmitted CRC is the bitwise complement of the returned register.
    Passing the previous return value as *crc* continues an incremental
    computation across fragments.

    :func:`zlib.crc32` keeps its register pre- and post-inverted, so the
    raw register is the complement of its value on the way in and out.
    """
    return zlib.crc32(data, crc ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


def crc32_final(reg: int) -> int:
    """Finalize an AAL5 CRC register into the transmitted 32-bit value."""
    return reg ^ 0xFFFFFFFF
