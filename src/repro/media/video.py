"""MPEG-like video sequence codec.

Reproduces the structure that matters for delivery experiments: a
group-of-pictures (GOP) layout where intra (I) frames are coded like
JPEG stills and predicted (P) frames code only the quantised DCT of
the difference from the previous *reconstructed* frame.  As in real
MPEG, I frames are several times larger than P frames, so streaming a
sequence produces bursty, variable-bit-rate traffic — the workload
ATM's rt-VBR class exists for.

The encoded stream is framed so a server can send it frame by frame:
:class:`VideoStream` iterates (timestamp, frame bytes) pairs without
decoding pixels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np
import scipy.fft

from repro.media.image import quant_table, _encode_blocks, _decode_blocks
from repro.util.bitstream import BitReader
from repro.util.errors import DecodingError, EncodingError

_MAGIC = b"SMPG"
_HEADER = ">HHHfB"
#: magic, sequence header, then one quality byte
_HEADER_SIZE = len(_MAGIC) + struct.calcsize(_HEADER) + 1
_FRAME_HEADER = ">BI"  # kind, payload size
_FRAME_HEADER_SIZE = struct.calcsize(_FRAME_HEADER)
_FRAME_I = 0
_FRAME_P = 1


@dataclass
class FrameInfo:
    """Per-frame metadata exposed without pixel decoding."""

    index: int
    kind: str            # "I" or "P"
    size: int            # encoded bytes
    timestamp: float     # presentation time in seconds


def _blockify(frame: np.ndarray) -> np.ndarray:
    H, W = frame.shape
    return (frame.reshape(H // 8, 8, W // 8, 8)
            .transpose(0, 2, 1, 3).reshape(-1, 8, 8))


def _unblockify(blocks: np.ndarray, H: int, W: int) -> np.ndarray:
    return (blocks.reshape(H // 8, W // 8, 8, 8)
            .transpose(0, 2, 1, 3).reshape(H, W))


class VideoCodec:
    """Encode/decode grayscale frame sequences (T, H, W) uint8."""

    coding_method = "SMPG"

    def __init__(self, quality: int = 60, gop: int = 12,
                 frame_rate: float = 25.0) -> None:
        if gop < 1:
            raise EncodingError("GOP length must be >= 1")
        self.quality = quality
        self.gop = gop
        self.frame_rate = frame_rate

    # -- encoding ---------------------------------------------------------

    def _code_plane(self, plane: np.ndarray,
                    q: np.ndarray) -> Tuple[bytes, np.ndarray]:
        """Code *plane*; return the payload and the plane a decoder
        rebuilds from it (the float64 array :meth:`_decode_plane`
        yields, so predictions stay bit-identical)."""
        H, W = plane.shape
        coeffs = scipy.fft.dctn(_blockify(plane), axes=(1, 2), norm="ortho")
        quantised = np.round(coeffs / q).astype(np.int32).reshape(-1, 64)
        dequantised = quantised.astype(np.float64) * q.reshape(-1)
        recon = scipy.fft.idctn(dequantised.reshape(-1, 8, 8),
                                axes=(1, 2), norm="ortho")
        return _encode_blocks(quantised), _unblockify(recon, H, W)

    def _decode_plane(self, data: bytes, H: int, W: int,
                      q: np.ndarray) -> np.ndarray:
        nblocks = (H // 8) * (W // 8)
        quantised = _decode_blocks(BitReader(data), nblocks)
        coeffs = (quantised * q.reshape(-1)).reshape(-1, 8, 8)
        return _unblockify(
            scipy.fft.idctn(coeffs, axes=(1, 2), norm="ortho"), H, W)

    def encode(self, frames: np.ndarray) -> bytes:
        if frames.ndim != 3:
            raise EncodingError("VideoCodec takes (T, H, W) arrays")
        if frames.dtype != np.uint8:
            raise EncodingError("VideoCodec takes uint8 arrays")
        T, h, w = frames.shape
        if T == 0:
            raise EncodingError("empty sequence")
        if h % 8 or w % 8:
            raise EncodingError("frame dimensions must be multiples of 8")
        q = quant_table(self.quality)
        parts: List[bytes] = []
        reference = None
        for t in range(T):
            plane = frames[t].astype(np.float64) - 128.0
            if t % self.gop == 0 or reference is None:
                kind = _FRAME_I
                payload, recon = self._code_plane(plane, q)
            else:
                kind = _FRAME_P
                payload, residual = self._code_plane(plane - reference, q)
                recon = reference + residual
            reference = recon
            parts.append(struct.pack(_FRAME_HEADER, kind, len(payload))
                         + payload)
        header = _MAGIC + struct.pack(_HEADER, T, h, w,
                                      self.frame_rate, self.gop)
        return header + struct.pack(">B", self.quality) + b"".join(parts)

    # -- decoding ---------------------------------------------------------

    @staticmethod
    def parse_header(data: bytes) -> Tuple[int, int, int, float, int, int]:
        """(frames, height, width, frame_rate, gop, quality)."""
        if data[:4] != _MAGIC:
            raise DecodingError("not an SMPG payload")
        if len(data) < _HEADER_SIZE:
            raise DecodingError("truncated SMPG header")
        T, h, w, rate, gop = struct.unpack_from(_HEADER, data, 4)
        quality = data[_HEADER_SIZE - 1]
        return T, h, w, rate, gop, quality

    def decode(self, data: bytes) -> np.ndarray:
        T, h, w, rate, gop, quality = self.parse_header(data)
        q = quant_table(quality)
        out = np.empty((T, h, w), dtype=np.uint8)
        reference = None
        for t, (kind, start, size) in enumerate(_frame_table(data, T)):
            payload = data[start + _FRAME_HEADER_SIZE:start + size]
            plane = self._decode_plane(payload, h, w, q)
            if kind == _FRAME_I:
                recon = plane
            elif kind == _FRAME_P:
                if reference is None:
                    raise DecodingError("P frame with no reference")
                recon = reference + plane
            else:
                raise DecodingError(f"unknown frame kind {kind}")
            reference = recon
            out[t] = np.clip(np.round(recon + 128.0), 0, 255).astype(np.uint8)
        return out


def _frame_table(data: bytes, frames: int) -> List[Tuple[int, int, int]]:
    """(kind, start, size incl. frame header) of each frame of *data*.

    The frames must fill the payload after the sequence header exactly.
    """
    table: List[Tuple[int, int, int]] = []
    pos = _HEADER_SIZE
    for _ in range(frames):
        if pos + _FRAME_HEADER_SIZE > len(data):
            raise DecodingError("truncated frame header")
        kind, size = struct.unpack_from(_FRAME_HEADER, data, pos)
        size += _FRAME_HEADER_SIZE
        if pos + size > len(data):
            raise DecodingError("truncated video frame")
        table.append((kind, pos, size))
        pos += size
    if pos != len(data):
        raise DecodingError("trailing bytes after last frame")
    return table


class VideoStream:
    """Frame-granular access to an encoded sequence, for streaming."""

    def __init__(self, data: bytes) -> None:
        (self.frames, self.height, self.width, self.frame_rate,
         self.gop, self.quality) = VideoCodec.parse_header(data)
        self._data = data
        self._offsets = _frame_table(data, self.frames)

    @property
    def duration(self) -> float:
        return self.frames / self.frame_rate

    def frame_infos(self) -> List[FrameInfo]:
        return [FrameInfo(index=i,
                          kind="I" if kind == _FRAME_I else "P",
                          size=size,
                          timestamp=i / self.frame_rate)
                for i, (kind, _start, size) in enumerate(self._offsets)]

    def frame_bytes(self, index: int) -> bytes:
        kind, start, size = self._offsets[index]
        return self._data[start:start + size]

    def __iter__(self) -> Iterator[Tuple[float, bytes]]:
        """Yield (presentation timestamp, frame bytes)."""
        for i in range(self.frames):
            yield i / self.frame_rate, self.frame_bytes(i)

    def peak_to_mean_ratio(self) -> float:
        """Burstiness of the encoded stream (drives VBR contracts)."""
        sizes = np.array([s for (_, _, s) in self._offsets], dtype=float)
        return float(sizes.max() / sizes.mean())
