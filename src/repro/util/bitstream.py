"""Bit-level reader/writer.

The ATM cell header packs fields at sub-byte granularity (GFC is 4
bits, VPI 8, VCI 16, PTI 3, CLP 1) and the synthetic media codecs use
variable-length codes, so both need a small big-endian bit stream.
The cell header writes field by field with :meth:`BitWriter.write`.
The media encoders hand all their codewords over in one
:meth:`BitWriter.write_codes` call, which lays them out with array
code; their decoders read bit by bit through :class:`BitReader`.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import DecodingError


class BitWriter:
    """Accumulates bits most-significant-first and renders them to bytes."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bitpos = 0  # bits already used in the last byte (0..7)

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return len(self._bytes) * 8 - ((8 - self._bitpos) % 8)

    def write(self, value: int, nbits: int) -> None:
        """Append the *nbits* low-order bits of *value*, MSB first."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        if value < 0 or (nbits < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        for shift in range(nbits - 1, -1, -1):
            bit = (value >> shift) & 1
            if self._bitpos == 0:
                self._bytes.append(0)
            if bit:
                self._bytes[-1] |= 1 << (7 - self._bitpos)
            self._bitpos = (self._bitpos + 1) % 8

    def write_codes(self, codes: np.ndarray, nbits: np.ndarray) -> None:
        """Append ``codes[i]`` in its ``nbits[i]`` low-order bits, MSB
        first, for every *i* in order: the bits ``write`` would append
        one codeword at a time.  Codewords are at most 63 bits."""
        codes = np.asarray(codes, dtype=np.int64)
        nbits = np.asarray(nbits, dtype=np.int64)
        if codes.shape != nbits.shape or codes.ndim != 1:
            raise ValueError("codes and nbits must be 1-D and equal length")
        if ((nbits < 0) | (nbits > 63)).any():
            raise ValueError("nbits must be in 0..63")
        if ((codes < 0) | (codes >> nbits != 0)).any():
            raise ValueError("a code does not fit in its nbits")
        lead = self._bitpos  # bits of the last byte already in use
        bit_end = np.cumsum(nbits) + lead
        bits = np.zeros(int(bit_end[-1]) if len(bit_end) else lead,
                        dtype=np.uint8)
        if lead:
            bits[:lead] = np.unpackbits(
                np.frombuffer(self._bytes[-1:], dtype=np.uint8))[:lead]
            del self._bytes[-1]
        for k in range(int(nbits.max(initial=0))):
            hit = ((codes >> k) & 1).astype(bool)
            bits[bit_end[hit] - 1 - k] = 1
        self._bytes.extend(np.packbits(bits).tobytes())
        self._bitpos = len(bits) % 8

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes.  Fast path when byte-aligned."""
        if self._bitpos == 0:
            self._bytes.extend(data)
        else:
            for b in data:
                self.write(b, 8)

    def align(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        self._bitpos = 0

    def getvalue(self) -> bytes:
        """Return the written bits as bytes (zero-padded to a boundary)."""
        return bytes(self._bytes)


class BitReader:
    """Reads bits most-significant-first from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # absolute bit position

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._pos

    def read(self, nbits: int) -> int:
        """Read *nbits* bits as an unsigned integer."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        if nbits > self.bits_remaining:
            raise DecodingError(
                f"bit stream exhausted: wanted {nbits} bits, "
                f"have {self.bits_remaining}"
            )
        value = 0
        pos = self._pos
        for _ in range(nbits):
            byte = self._data[pos >> 3]
            bit = (byte >> (7 - (pos & 7))) & 1
            value = (value << 1) | bit
            pos += 1
        self._pos = pos
        return value

    def read_bytes(self, n: int) -> bytes:
        """Read *n* whole bytes.  Fast path when byte-aligned."""
        if self._pos % 8 == 0:
            start = self._pos >> 3
            if start + n > len(self._data):
                raise DecodingError("bit stream exhausted reading bytes")
            self._pos += n * 8
            return self._data[start : start + n]
        return bytes(self.read(8) for _ in range(n))

    def align(self) -> None:
        """Skip to the next byte boundary."""
        rem = self._pos % 8
        if rem:
            self._pos += 8 - rem
