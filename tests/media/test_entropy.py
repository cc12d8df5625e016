"""The array entropy coder and the video encoder against bit-serial oracles."""

import struct

import numpy as np
import scipy.fft
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.media.image import (
    _EOB_RUN, _ZIGZAG, _decode_blocks, _encode_blocks, quant_table,
)
from repro.media.video import VideoCodec
from repro.util.bitstream import BitReader, BitWriter


def _write_ue(w: BitWriter, v: int) -> None:
    n = v + 1
    nbits = n.bit_length()
    w.write(0, nbits - 1)
    w.write(n, nbits)


def _write_se(w: BitWriter, v: int) -> None:
    _write_ue(w, 2 * v - 1 if v > 0 else -2 * v)


def reference_encode_blocks(blocks: np.ndarray) -> bytes:
    """Bit-serial block coder: the definition _encode_blocks must match."""
    w = BitWriter()
    for block in blocks:
        zz = block[_ZIGZAG]
        prev = -1
        for i in np.nonzero(zz)[0]:
            run = int(i - prev - 1)
            while run >= _EOB_RUN:
                _write_ue(w, _EOB_RUN - 1)
                _write_se(w, 0)
                run -= _EOB_RUN - 1
            _write_ue(w, run)
            _write_se(w, int(zz[i]))
            prev = i
        _write_ue(w, _EOB_RUN)
    return w.getvalue()


def reference_video_encode(frames: np.ndarray, quality: int, gop: int,
                           frame_rate: float = 25.0) -> bytes:
    """Video encoder that rebuilds each reference by decoding its payload."""
    T, h, w = frames.shape
    q = quant_table(quality)
    codec = VideoCodec(quality=quality)

    def code(plane):
        blocks = plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
        coeffs = scipy.fft.dctn(blocks.reshape(-1, 8, 8), axes=(1, 2),
                                norm="ortho")
        quantised = np.round(coeffs / q).astype(np.int32).reshape(-1, 64)
        payload = reference_encode_blocks(quantised)
        return payload, codec._decode_plane(payload, h, w, q)

    parts = []
    reference = None
    for t in range(T):
        plane = frames[t].astype(np.float64) - 128.0
        if t % gop == 0:
            kind = 0
            payload, reference = code(plane)
        else:
            kind = 1
            payload, residual = code(plane - reference)
            reference = reference + residual
        parts.append(bytes([kind]) + len(payload).to_bytes(4, "big")
                     + payload)
    header = b"SMPG" + struct.pack(">HHHfB", T, h, w, frame_rate, gop)
    return header + bytes([quality]) + b"".join(parts)


_LEVELS = st.integers(-5000, 5000)


def _block(entries):
    """A natural-order block from {zigzag index: level}."""
    block = np.zeros(64, dtype=np.int32)
    for i, v in entries.items():
        block[_ZIGZAG[i]] = v
    return block


_BLOCKS = st.one_of(
    st.just({}),                                          # all zero
    _LEVELS.filter(bool).map(lambda v: {63: v}),          # split case
    st.dictionaries(st.integers(0, 63), _LEVELS, max_size=8),   # sparse
    st.lists(_LEVELS, min_size=64, max_size=64).map(      # dense
        lambda vs: dict(enumerate(vs))),
).map(_block)


def _stack(blocks):
    return np.array(blocks, dtype=np.int32).reshape(-1, 64)


class TestEncodeBlocks:
    def test_reference_known_stream(self):
        # one block: ue(0) se(1) then ue(63) = "1" "010" "0000001000000"
        block = _block({0: 1})
        assert reference_encode_blocks(_stack([block])) == bytes(
            [0b10100000, 0b00100000, 0])

    @given(st.lists(_BLOCKS, max_size=12))
    @example([])
    @example([_block({})])
    @example([_block({63: 1})])
    @example([_block({63: -5000}), _block({}), _block({0: 5000, 63: 1})])
    @example([_block(dict(enumerate(range(-5000, 5000, 157))))])
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, blocks):
        data = _stack(blocks)
        assert _encode_blocks(data) == reference_encode_blocks(data)

    @given(st.lists(_BLOCKS, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_decodes_back(self, blocks):
        data = _stack(blocks)
        decoded = _decode_blocks(BitReader(_encode_blocks(data)), len(data))
        assert np.array_equal(decoded, data)


class TestVideoEncoderMatchesReference:
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 5),
           k=st.integers(1, 3), m=st.integers(1, 3),
           quality=st.integers(1, 100), gop=st.integers(1, 4),
           smooth=st.booleans())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_encode_equals_self_decoding_encoder(self, seed, T, k, m,
                                                 quality, gop, smooth):
        rng = np.random.default_rng(seed)
        if smooth:
            walk = rng.normal(0, 4, (T, 8 * k, 8 * m)).cumsum(axis=2)
            frames = np.clip(128 + walk, 0, 255).astype(np.uint8)
        else:
            frames = rng.integers(0, 256, (T, 8 * k, 8 * m), dtype=np.uint8)
        got = VideoCodec(quality=quality, gop=gop).encode(frames)
        assert got == reference_video_encode(frames, quality, gop)

