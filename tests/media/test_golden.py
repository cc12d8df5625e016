"""Golden digests: produced media stays byte-identical across codec work.

The digests were recorded from the bit-serial entropy coder.  Any change
to the codecs' output, however small, changes a digest.
"""

import hashlib

import pytest

from repro.core.system import MitsSystem
from repro.media.production import MediaProductionCenter


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_STANDARD_ASSETS = {
    "mits-diagram":
        "bff4bdc95d42066f9fd2d9e896f63a73cfa879459074caa38beb46f4b30da20f",
    "mits-intro-video":
        "da569f1d693a70c746047f25567defd50ad6cda4c0ef9a7c1c4f6d915bce885a",
    "mits-lecture-audio":
        "7c79a6dfafec09203c25643adf1b60cb426f5a4a0dbeb29c56353ec25d4a22df",
    "mits-notes":
        "18a1ebf762c1fbd31f6fa5e6e93036d863caef826936dd392f9e36f81a92fb14",
}


def test_standard_assets():
    assets = MitsSystem().produce_standard_assets("mits", seconds=1.0)
    assert {name: _sha256(m.data) for name, m in assets.items()} \
        == _STANDARD_ASSETS


@pytest.mark.parametrize("produce, size, digest", [
    (lambda pc: pc.produce_video("lecture-video", seconds=12.0), 45200,
     "576b92927c0e717e15c1c3ddfc144f7711e97612cadb87abcd84d5adcf28d0cb"),
    (lambda pc: pc.produce_image("test-card", width=64, height=48), 544,
     "2ff5509376c3d795d651769f72021360833004a2c9a5822fc00b2a7bb9d17396"),
], ids=["lecture-video", "test-card"])
def test_produced_media(produce, size, digest):
    media = produce(MediaProductionCenter())
    assert len(media.data) == size
    assert _sha256(media.data) == digest
