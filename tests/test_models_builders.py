"""VGG / ResNet builders: parameter counts, FLOPs, chain structure.

Parameter counts are checked against the published values, which are
also what the paper quotes (548 MB VGG-19, 230 MB ResNet-152 — MiB in
fact, as the arithmetic shows).
"""

import pytest

from repro.errors import ConfigurationError
from repro.models import build_resnet50, build_resnet101, build_resnet152, build_vgg16, build_vgg19
from repro.models.graph import validate_chain
from repro.models.vgg import _build_vgg
from repro.models.resnet import _build_resnet


class TestVGG19:
    def test_param_count_exact(self, vgg19):
        assert vgg19.params == 143_667_240  # torchvision vgg19

    def test_param_mib_matches_paper_548(self, vgg19):
        assert vgg19.param_mib == pytest.approx(548, abs=1)

    def test_gflops_per_image(self, vgg19):
        # ~19.6 GMACs/image -> ~39.3 GFLOPs forward
        per_image = vgg19.flops_fwd / vgg19.batch_size / 1e9
        assert 38 < per_image < 41

    def test_unit_count(self, vgg19):
        # 16 convs + 5 pools + 3 fcs
        assert len(vgg19) == 24

    def test_boundary_shrinks_after_pool(self, vgg19):
        names = vgg19.names()
        i = names.index("pool1")
        assert vgg19.boundary_bytes(i) < vgg19.boundary_bytes(i - 1)

    def test_input_bytes(self, vgg19):
        assert vgg19.input_bytes == 32 * 3 * 224 * 224 * 4

    def test_fc_layers_hold_most_params(self, vgg19):
        fc_bytes = sum(l.param_bytes for l in vgg19.layers if l.kind == "fc")
        assert fc_bytes / vgg19.param_bytes > 0.85


class TestVGG16:
    def test_param_count_exact(self):
        assert build_vgg16().params == 138_357_544  # torchvision vgg16

    def test_fewer_units_than_vgg19(self, vgg19):
        assert len(build_vgg16()) == len(vgg19) - 3


class TestResNet152:
    def test_param_count_exact(self, resnet152):
        assert resnet152.params == 60_192_808  # conv+bn+fc params

    def test_param_mib_matches_paper_230(self, resnet152):
        assert resnet152.param_mib == pytest.approx(230, abs=1)

    def test_unit_count(self, resnet152):
        # stem + (3 + 8 + 36 + 3) blocks + avgpool + fc
        assert len(resnet152) == 53

    def test_gflops_per_image(self, resnet152):
        per_image = resnet152.flops_fwd / resnet152.batch_size / 1e9
        assert 21 < per_image < 25  # ~11.5 GMACs

    def test_every_block_is_composite(self, resnet152):
        blocks = [l for l in resnet152.layers if l.kind == "block"]
        assert len(blocks) == 50
        assert all(len(b.parts) >= 4 for b in blocks)

    def test_stage_output_channels(self, resnet152):
        # last block of conv5 outputs 7x7x2048
        block = [l for l in resnet152.layers if l.name.startswith("conv5_3")][0]
        assert block.output_bytes == 32 * 2048 * 7 * 7 * 4


class TestResNetVariants:
    def test_resnet50_params(self):
        assert build_resnet50().params == pytest.approx(25_557_032, rel=1e-3)

    def test_resnet101_params(self):
        assert build_resnet101().params == pytest.approx(44_549_160, rel=1e-3)

    def test_depth_ordering(self):
        p50 = build_resnet50().params
        p101 = build_resnet101().params
        p152 = build_resnet152().params
        assert p50 < p101 < p152


class TestBatchScaling:
    def test_with_batch_size_scales_flops_not_params(self, vgg19):
        small = build_vgg19(batch_size=8)
        assert small.flops_fwd == pytest.approx(vgg19.flops_fwd / 4)
        assert small.param_bytes == pytest.approx(vgg19.param_bytes)
        assert small.batch_size == 8

    def test_builders_accept_batch_size(self):
        model = build_vgg19(batch_size=16)
        assert model.batch_size == 16
        assert model.input_bytes == 16 * 3 * 224 * 224 * 4


class TestBuilderValidation:
    def test_unknown_vgg_variant(self):
        with pytest.raises(ConfigurationError):
            _build_vgg("vgg7", 32)

    def test_unknown_resnet_variant(self):
        with pytest.raises(ConfigurationError):
            _build_resnet("resnet34", 32)

    def test_duplicate_names_rejected(self, vgg19):
        with pytest.raises(ConfigurationError):
            validate_chain([vgg19.layers[0], vgg19.layers[0]])

    def test_empty_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_chain([])


class TestModelGraphAPI:
    def test_summary_mentions_params(self, vgg19):
        assert "143.67M params" in vgg19.summary()

    def test_slice_params_total(self, resnet152):
        assert resnet152.slice_params(0, len(resnet152)) == pytest.approx(
            resnet152.param_bytes
        )

    def test_boundary_minus_one_is_input(self, vgg19):
        assert vgg19.boundary_bytes(-1) == vgg19.input_bytes

    def test_iteration(self, vgg19):
        assert len(list(vgg19)) == len(vgg19)
