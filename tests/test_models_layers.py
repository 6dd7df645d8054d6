"""Layer unit accounting: FLOPs, params, activations, composites."""

import pytest

from repro.errors import ConfigurationError
from repro.models.layers import LayerSpec, composite, conv_unit, fc_unit, pool_unit
from repro.units import BYTES_PER_PARAM


class TestConvUnit:
    def test_flops_formula(self):
        # 3x3 conv, 64->128, 56x56 output, batch 2
        unit = conv_unit("c", 2, 64, 128, 3, 56, 56, with_relu=False)
        macs = 3 * 3 * 64 * 56 * 56 * 128 * 2
        assert unit.flops_fwd == pytest.approx(2 * macs)
        assert unit.flops_bwd == pytest.approx(4 * macs)

    def test_params_with_bias(self):
        unit = conv_unit("c", 1, 3, 64, 3, 224, 224)
        assert unit.params == 3 * 3 * 3 * 64 + 64  # VGG conv1_1 = 1792

    def test_params_without_bias_with_bn(self):
        unit = conv_unit("c", 1, 64, 64, 3, 56, 56, with_bn=True, bias=False)
        assert unit.params == 3 * 3 * 64 * 64 + 2 * 64

    def test_output_bytes(self):
        unit = conv_unit("c", 4, 3, 64, 3, 224, 224)
        assert unit.output_bytes == 4 * 64 * 224 * 224 * BYTES_PER_PARAM

    def test_strided_conv_stashes_larger_input(self):
        s1 = conv_unit("a", 1, 64, 64, 3, 56, 56)
        s2 = conv_unit("b", 1, 64, 64, 3, 56, 56, in_h=112, in_w=112)
        assert s2.stash_bytes > s1.stash_bytes

    def test_relu_adds_kernel_and_stash(self):
        plain = conv_unit("a", 1, 64, 64, 3, 56, 56, with_relu=False)
        fused = conv_unit("b", 1, 64, 64, 3, 56, 56, with_relu=True)
        assert fused.kernel_count == plain.kernel_count + 1
        assert fused.stash_bytes > plain.stash_bytes


class TestFcUnit:
    def test_flops_and_params(self):
        unit = fc_unit("fc", 8, 4096, 1000)
        assert unit.flops_fwd == pytest.approx(2 * 4096 * 1000 * 8)
        assert unit.params == 4096 * 1000 + 1000

    def test_vgg_fc6_size(self):
        unit = fc_unit("fc6", 32, 25088, 4096, with_relu=True, with_dropout=True)
        assert unit.params == 25088 * 4096 + 4096
        assert unit.kernel_count == 3


class TestPoolUnit:
    def test_no_params(self):
        unit = pool_unit("p", 32, 64, 112, 112)
        assert unit.param_bytes == 0.0

    def test_output_and_input(self):
        unit = pool_unit("p", 1, 64, 112, 112, kernel=2)
        assert unit.output_bytes == 64 * 112 * 112 * BYTES_PER_PARAM
        assert unit.stash_bytes == 4 * unit.output_bytes  # 2x2 inputs


class TestComposite:
    def _parts(self):
        return [
            conv_unit("a", 1, 64, 64, 1, 56, 56, with_bn=True, bias=False),
            conv_unit("b", 1, 64, 256, 1, 56, 56, with_bn=True, bias=False),
        ]

    def test_sums_flops_params_stash(self):
        parts = self._parts()
        block = composite("blk", "block", parts)
        assert block.flops_fwd == sum(p.flops_fwd for p in parts)
        assert block.param_bytes == sum(p.param_bytes for p in parts)
        assert block.stash_bytes == sum(p.stash_bytes for p in parts)
        assert block.kernel_count == sum(p.kernel_count for p in parts)

    def test_output_is_last_part(self):
        parts = self._parts()
        block = composite("blk", "block", parts)
        assert block.output_bytes == parts[-1].output_bytes

    def test_output_override(self):
        block = composite("blk", "block", self._parts(), output_bytes=123.0)
        assert block.output_bytes == 123.0

    def test_keeps_parts(self):
        block = composite("blk", "block", self._parts())
        assert len(block.parts) == 2

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            composite("blk", "block", [])


class TestLayerSpecValidation:
    def test_negative_flops_rejected(self):
        with pytest.raises(ConfigurationError):
            LayerSpec("x", "conv", -1.0, 1.0, 0.0, 1.0, 1.0)

    def test_zero_kernels_rejected(self):
        with pytest.raises(ConfigurationError):
            LayerSpec("x", "conv", 1.0, 1.0, 0.0, 1.0, 1.0, kernel_count=0)

    def test_scaled_batch(self):
        unit = conv_unit("c", 2, 3, 8, 3, 10, 10)
        doubled = conv_unit("c", 4, 3, 8, 3, 10, 10)
        assert doubled.flops_fwd == pytest.approx(2 * unit.flops_fwd)
        assert doubled.output_bytes == pytest.approx(2 * unit.output_bytes)
        assert doubled.param_bytes == unit.param_bytes  # params batch-free

    def test_total_flops(self):
        unit = conv_unit("c", 1, 3, 8, 3, 10, 10)
        assert unit.total_flops == unit.flops_fwd + unit.flops_bwd
