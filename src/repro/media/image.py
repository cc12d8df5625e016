"""JPEG-like still-image codec.

The real pipeline the thesis relied on (JPEG) is reproduced in
miniature: 8x8 block DCT, luminance-table quantisation with a quality
knob, zigzag scan, and run-length + exponential-Golomb entropy
coding.  Output size therefore responds to image content and quality
the way JPEG's does, which is what the storage and streaming
experiments need; only the Huffman tables are simplified.

The entropy coder runs in two directions at two speeds.  Encoding is
array code: every block's (run, level) symbols are laid out at once
and their codewords written in one
:meth:`~repro.util.bitstream.BitWriter.write_codes` call.  Decoding
walks the codewords one bit at a time through
:class:`~repro.util.bitstream.BitReader`.  Both follow the same
bitstream definition, so ``decode(encode(x))`` round-trips.

Images are 2-D ``uint8`` arrays (grayscale).  Multi-band content can
be encoded band by band.
"""

from __future__ import annotations

import struct

import numpy as np
import scipy.fft

from repro.util.bitstream import BitReader, BitWriter
from repro.util.errors import DecodingError, EncodingError

_MAGIC = b"SIMG"
_HEADER = ">HHB"  # height, width, quality
_HEADER_SIZE = len(_MAGIC) + struct.calcsize(_HEADER)

#: ISO/IEC 10918-1 Annex K luminance quantisation table
_QUANT_BASE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)


def _zigzag_order() -> np.ndarray:
    """Flat indices of an 8x8 block in zigzag scan order."""
    idx = sorted(((r + c, (c if (r + c) % 2 == 0 else r), r, c)
                  for r in range(8) for c in range(8)))
    return np.array([r * 8 + c for (_, _, r, c) in idx], dtype=np.int64)


_ZIGZAG = _zigzag_order()
_UNZIGZAG = np.argsort(_ZIGZAG)


def quant_table(quality: int) -> np.ndarray:
    """Scale the base table by a 1..100 quality factor (libjpeg rule)."""
    if not 1 <= quality <= 100:
        raise EncodingError(f"quality must be in 1..100, got {quality}")
    scale = 5000 / quality if quality < 50 else 200 - 2 * quality
    q = np.floor((_QUANT_BASE * scale + 50) / 100)
    return np.clip(q, 1, 255)


def _read_ue(r: BitReader) -> int:
    zeros = 0
    while r.read(1) == 0:
        zeros += 1
        if zeros > 40:
            raise DecodingError("malformed exp-Golomb code")
    return ((1 << zeros) | r.read(zeros)) - 1 if zeros else 0


def _read_se(r: BitReader) -> int:
    u = _read_ue(r)
    return (u + 1) // 2 if u % 2 else -(u // 2)


_EOB_RUN = 63  # run value reserved as end-of-block marker


def _encode_blocks(blocks: np.ndarray) -> bytes:
    """Entropy-code quantised blocks, (N, 64) int32, in zigzag order.

    Each nonzero coefficient is coded as ``ue(run) se(level)``, where
    *run* counts the zeros since the previous nonzero of its block, and
    each block ends with ``ue(63)``.  A run of 63 or more is split as
    ``ue(62) se(0)`` first, so the end-of-block code stays unambiguous;
    in a 64-coefficient block that happens at most once.  The stream is
    written most-significant bit first and zero-padded to a byte.
    """
    zz = np.asarray(blocks)[:, _ZIGZAG]
    nblocks = len(zz)
    blk, pos = np.nonzero(zz)
    level = zz[blk, pos].astype(np.int64)
    first = np.ones(len(pos), dtype=bool)
    first[1:] = blk[1:] != blk[:-1]
    prev = np.empty_like(pos)
    prev[1:] = pos[:-1]
    prev[first] = -1
    run = pos - prev - 1
    split = run >= _EOB_RUN

    # symbol layout: 2 or 4 per nonzero, then one end-of-block per block
    counts = 2 + 2 * split
    ends = np.concatenate(([0], np.cumsum(counts)))
    start = ends[:-1] + blk
    per_block = np.bincount(blk, minlength=nblocks)
    eob = ends[np.cumsum(per_block)] + np.arange(nblocks)
    symbols = np.zeros(ends[-1] + nblocks, dtype=np.int64)
    symbols[start[split]] = _EOB_RUN - 1  # se(0) after it is symbol 0
    at = start + 2 * split
    symbols[at] = run - (_EOB_RUN - 1) * split
    symbols[at + 1] = np.where(level > 0, 2 * level - 1, -2 * level)
    symbols[eob] = _EOB_RUN

    # ue(v): v + 1 written in 2 * bitlen(v + 1) - 1 bits
    code = symbols + 1
    w = BitWriter()
    w.write_codes(code, 2 * np.frexp(code)[1] - 1)
    return w.getvalue()


def _decode_blocks(r: BitReader, nblocks: int) -> np.ndarray:
    blocks = np.zeros((nblocks, 64), dtype=np.float64)
    for b in range(nblocks):
        pos = 0
        while True:
            run = _read_ue(r)
            if run == _EOB_RUN:
                break
            level = _read_se(r)
            pos += run
            if level != 0:
                if pos > 63:
                    raise DecodingError("coefficient index out of block")
                blocks[b, _ZIGZAG[pos]] = level
                pos += 1
            # level == 0 encodes a split long zero-run; pos advanced only
        if pos > 64:
            raise DecodingError("block overrun")
    return blocks


class ImageCodec:
    """Encode/decode grayscale images."""

    coding_method = "SIMG"

    def __init__(self, quality: int = 75) -> None:
        self.quality = quality

    def encode(self, image: np.ndarray) -> bytes:
        if image.ndim != 2:
            raise EncodingError("ImageCodec takes 2-D grayscale arrays")
        if image.dtype != np.uint8:
            raise EncodingError("ImageCodec takes uint8 arrays")
        h, w = image.shape
        if h == 0 or w == 0:
            raise EncodingError("image must be non-empty")
        ph, pw = (-h) % 8, (-w) % 8
        padded = np.pad(image.astype(np.float64) - 128.0,
                        ((0, ph), (0, pw)), mode="edge")
        H, W = padded.shape
        blocks = (padded.reshape(H // 8, 8, W // 8, 8)
                  .transpose(0, 2, 1, 3)
                  .reshape(-1, 8, 8))
        coeffs = scipy.fft.dctn(blocks, axes=(1, 2), norm="ortho")
        q = quant_table(self.quality)
        quantised = np.round(coeffs / q).astype(np.int32).reshape(-1, 64)

        header = _MAGIC + struct.pack(_HEADER, h, w, self.quality)
        return header + _encode_blocks(quantised)

    def decode(self, data: bytes) -> np.ndarray:
        if data[:4] != _MAGIC:
            raise DecodingError("not an SIMG payload")
        if len(data) < _HEADER_SIZE:
            raise DecodingError("truncated SIMG header")
        h, w, quality = struct.unpack_from(_HEADER, data, len(_MAGIC))
        H, W = h + ((-h) % 8), w + ((-w) % 8)
        nblocks = (H // 8) * (W // 8)
        r = BitReader(data[_HEADER_SIZE:])
        quantised = _decode_blocks(r, nblocks)
        q = quant_table(quality)
        coeffs = (quantised * q.reshape(-1)).reshape(-1, 8, 8)
        blocks = scipy.fft.idctn(coeffs, axes=(1, 2), norm="ortho")
        padded = (blocks.reshape(H // 8, W // 8, 8, 8)
                  .transpose(0, 2, 1, 3)
                  .reshape(H, W))
        return np.clip(np.round(padded + 128.0), 0, 255).astype(np.uint8)[:h, :w]


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (infinite for identical images)."""
    if original.shape != reconstructed.shape:
        raise ValueError("shape mismatch")
    mse = np.mean((original.astype(np.float64)
                   - reconstructed.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 ** 2 / mse)
