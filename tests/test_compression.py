"""Tests for the rANS codec and the GZIP PCIe link model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import mtia2i_spec
from repro.compression import (
    GZIP_ENGINE_BYTES_PER_S,
    ans_decode,
    ans_encode,
    fp16_weight_bytes,
    gzip_ratio,
    int8_weight_bytes,
    link_transfer,
)


class TestAnsCodec:
    def test_roundtrip_simple(self):
        data = b"hello world, hello ans coding" * 10
        assert ans_decode(ans_encode(data)) == data

    def test_roundtrip_binary(self):
        data = bytes(range(256)) * 7
        assert ans_decode(ans_encode(data)) == data

    def test_roundtrip_single_symbol(self):
        data = b"\x00" * 1000
        encoded = ans_encode(data)
        assert ans_decode(encoded) == data
        # The 512 B frequency table dominates a 1000 B payload; the
        # payload itself shrinks to a few bytes.
        assert len(encoded.payload) < 10
        assert encoded.compression_ratio() > 0.4

    def test_empty_input(self):
        encoded = ans_encode(b"")
        assert ans_decode(encoded) == b""
        assert encoded.compression_ratio() == 0.0

    def test_int8_weights_compress_toward_50_percent(self):
        """Section 3.3: 'up to a 50% compression ratio' on weights."""
        ratio = ans_encode(int8_weight_bytes(200_000)).compression_ratio()
        assert 0.35 <= ratio <= 0.55

    def test_fp16_weights_compress_poorly(self):
        """Section 3.3: 'FP16 data does not compress efficiently'."""
        ratio = ans_encode(fp16_weight_bytes(100_000)).compression_ratio()
        assert ratio < 0.15

    def test_incompressible_data_near_zero(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=100_000, endpoint=False).astype(np.uint8).tobytes()
        assert ans_encode(data).compression_ratio() < 0.02

    def test_int8_roundtrip_exact(self):
        data = int8_weight_bytes(50_000, seed=4)
        assert ans_decode(ans_encode(data)) == data


@given(data=st.binary(min_size=1, max_size=2000))
@settings(max_examples=60, deadline=None)
def test_ans_roundtrip_property(data):
    """Property: decode(encode(x)) == x for arbitrary byte strings."""
    assert ans_decode(ans_encode(data)) == data


class TestPcieLink:
    def test_gzip_ratio_on_text(self):
        assert gzip_ratio(b"abcd" * 10_000) > 0.9
        assert gzip_ratio(b"") == 0.0

    def test_compressible_payload_speeds_up(self):
        chip = mtia2i_spec()
        report = link_transfer(1 << 30, chip.host_link, compression_saved_fraction=0.5)
        assert report.speedup > 1.3
        assert report.wire_bytes == (1 << 30) // 2

    def test_engine_rate_caps_effective_bandwidth(self):
        """The 25 GB/s (compressed-side) engine bounds the effective
        payload rate at ratio r to 25 GB/s / (1 - r)."""
        chip = mtia2i_spec()
        saved = 0.95
        report = link_transfer(1 << 30, chip.host_link, compression_saved_fraction=saved)
        cap = GZIP_ENGINE_BYTES_PER_S / (1 - saved)
        assert report.effective_bandwidth <= cap * 1.01

    def test_incompressible_no_speedup(self):
        chip = mtia2i_spec()
        report = link_transfer(1 << 20, chip.host_link, compression_saved_fraction=0.0)
        assert report.speedup == pytest.approx(1.0)

    def test_validation(self):
        chip = mtia2i_spec()
        with pytest.raises(ValueError):
            link_transfer(-1, chip.host_link, 0.5)
        with pytest.raises(ValueError):
            link_transfer(10, chip.host_link, 1.0)
