"""Roofline profiler and the per-stage memory model."""

import pytest

from repro.cluster import GPU_BY_CODE, QUADRO_P4000, RTX_2060, TITAN_RTX, TITAN_V
from repro.models import build_resnet152, build_vgg19
from repro.models.calibration import Calibration, DEFAULT_CALIBRATION
from repro.models.layers import conv_unit
from repro.models.memory import (
    gpu_usable_bytes,
    in_flight_at_stage,
    model_fits_single_gpu,
    stage_fits,
    stage_memory_bytes,
)
from repro.models.profiler import Profiler
from repro.errors import ConfigurationError


class TestProfiler:
    def test_faster_gpu_is_faster(self, vgg19, profiler):
        t_v = profiler.serial_minibatch_time(vgg19, TITAN_V)
        t_q = profiler.serial_minibatch_time(vgg19, QUADRO_P4000)
        assert t_v < t_q

    def test_costs_positive(self, resnet152, profiler):
        profile = profiler.profile(resnet152, TITAN_V)
        assert all(c.fwd > 0 and c.bwd > 0 for c in profile.costs)

    def test_prefix_sums_match_direct_sums(self, vgg19, profiler):
        profile = profiler.profile(vgg19, TITAN_RTX)
        direct_fwd = sum(c.fwd for c in profile.costs[3:9])
        assert profile.stage_fwd(3, 9) == pytest.approx(direct_fwd)
        direct_bwd = sum(c.bwd for c in profile.costs[3:9])
        assert profile.stage_bwd(3, 9) == pytest.approx(direct_bwd)

    def test_stage_total(self, vgg19, profiler):
        profile = profiler.profile(vgg19, TITAN_V)
        whole = profile.stage_fwd(0, len(vgg19)) + profile.stage_bwd(0, len(vgg19))
        assert whole == pytest.approx(profile.total)

    def test_profile_is_cached(self, vgg19, profiler):
        assert profiler.profile(vgg19, TITAN_V) is profiler.profile(vgg19, TITAN_V)

    def test_profile_never_served_for_another_model(self):
        """The cache is keyed on id(model), and a collected model's id
        can be reused by the next one built: a hit must be the very
        model the profile was computed for."""
        profiler = Profiler(DEFAULT_CALIBRATION)
        vgg19, resnet152 = build_vgg19(), build_resnet152()
        profiler.profile(resnet152, TITAN_V)
        # plant the resnet152 entry under vgg19's id, as a reused id would
        (entry,) = profiler._cache.values()
        profiler._cache = {(id(vgg19), TITAN_V.code): entry}
        profile = profiler.profile(vgg19, TITAN_V)
        assert profile.model_name == "vgg19"
        assert profile == Profiler(DEFAULT_CALIBRATION).profile(vgg19, TITAN_V)

    def test_composite_cost_is_sum_of_parts(self, resnet152, profiler):
        block = next(l for l in resnet152.layers if l.kind == "block")
        whole = profiler.layer_cost(block, TITAN_V)
        parts = [profiler.layer_cost(p, TITAN_V) for p in block.parts]
        assert whole.fwd == pytest.approx(sum(p.fwd for p in parts))
        assert whole.bwd == pytest.approx(sum(p.bwd for p in parts))

    def test_kernel_overhead_visible(self, resnet152):
        fast = Profiler(Calibration(kernel_overhead=0.0))
        slow = Profiler(Calibration(kernel_overhead=200e-6))
        assert slow.serial_minibatch_time(resnet152, TITAN_V) > fast.serial_minibatch_time(
            resnet152, TITAN_V
        )

    def test_calibrated_nm1_order_matches_paper(self, vgg19, resnet152, profiler):
        """Fig 3's Nm=1 annotations order the homogeneous mixes
        V > R > G > Q for both models; our serial model must agree."""
        for model in (vgg19, resnet152):
            rates = [
                32 / profiler.serial_minibatch_time(model, GPU_BY_CODE[c])
                for c in "VRGQ"
            ]
            assert rates == sorted(rates, reverse=True)

    def test_calibration_within_band_of_paper(self, vgg19, resnet152, profiler):
        """Serial rates should approximate Fig 3's Nm=1 annotations
        (within a generous band; the pipeline adds comm on top)."""
        paper = {
            "vgg19": {"V": 119, "R": 107, "G": 62, "Q": 51},
            "resnet152": {"V": 96, "R": 87, "G": 58, "Q": 43},
        }
        for model in (vgg19, resnet152):
            for code, target in paper[model.name].items():
                rate = 32 / profiler.serial_minibatch_time(model, GPU_BY_CODE[code])
                assert target * 0.8 < rate < target * 1.35, (model.name, code, rate)


class TestCalibrationValidation:
    def test_rejects_bad_efficiency(self):
        with pytest.raises(ConfigurationError):
            Calibration(conv_efficiency=0.0)

    def test_rejects_negative_overhead(self):
        with pytest.raises(ConfigurationError):
            Calibration(kernel_overhead=-1.0)

    def test_rejects_bad_memory_fraction(self):
        with pytest.raises(ConfigurationError):
            Calibration(usable_memory_fraction=1.2)

    def test_with_overrides(self):
        cal = DEFAULT_CALIBRATION.with_overrides(conv_efficiency=0.5)
        assert cal.conv_efficiency == 0.5
        assert cal.fc_efficiency == DEFAULT_CALIBRATION.fc_efficiency

    def test_kind_efficiency_mapping(self):
        cal = DEFAULT_CALIBRATION
        assert cal.kind_efficiency("conv") == cal.conv_efficiency
        assert cal.kind_efficiency("block") == cal.conv_efficiency
        assert cal.kind_efficiency("fc") == cal.fc_efficiency
        assert cal.kind_efficiency("pool") == cal.elementwise_efficiency


class TestInFlight:
    def test_first_stage_holds_nm(self):
        assert in_flight_at_stage(5, 0) == 5

    def test_later_stages_hold_fewer(self):
        assert [in_flight_at_stage(4, s) for s in range(4)] == [4, 3, 2, 1]

    def test_never_below_one(self):
        assert in_flight_at_stage(2, 3) == 1


class TestStageMemory:
    def test_monotone_in_in_flight(self, vgg19):
        layers = vgg19.layers[:5]
        m1 = stage_memory_bytes(layers, 1)
        m3 = stage_memory_bytes(layers, 3)
        assert m3 > m1

    def test_weight_versions_term(self):
        unit = conv_unit("c", 32, 64, 64, 3, 56, 56)
        cal = Calibration(weight_version_factor=0.0)
        base = stage_memory_bytes([unit], 3, cal)
        with_versions = stage_memory_bytes([unit], 3, DEFAULT_CALIBRATION)
        assert with_versions > base

    def test_usable_bytes_below_capacity(self):
        assert gpu_usable_bytes(TITAN_V) < TITAN_V.memory_bytes

    def test_stage_fits_consistency(self, vgg19):
        layers = vgg19.layers[:3]
        assert stage_fits(layers, 1, TITAN_RTX) == (
            stage_memory_bytes(layers, 1) <= gpu_usable_bytes(TITAN_RTX)
        )

    def test_max_in_flight_monotone_in_memory(self, resnet152):
        layers = resnet152.layers[:10]
        # every in-flight count the 12 GB Titan V can host, the 24 GB
        # Titan RTX can host too
        for m in range(1, 33):
            assert stage_fits(layers, m, TITAN_RTX) or not stage_fits(layers, m, TITAN_V)


class TestPaperFeasibilityFacts:
    """Memory facts the paper's experiment design depends on."""

    def test_resnet152_does_not_fit_rtx2060(self, resnet152):
        """§8.1: 'ResNet-152 ... too big to be loaded in four whimpy
        GPUs' — Horovod must exclude the G nodes."""
        assert not model_fits_single_gpu(resnet152.layers, RTX_2060)

    def test_resnet152_fits_v_r_q(self, resnet152):
        """Horovod runs ResNet-152 on 12 GPUs (V, R, Q)."""
        for code in "VRQ":
            assert model_fits_single_gpu(resnet152.layers, GPU_BY_CODE[code]), code

    def test_vgg19_fits_every_gpu(self, vgg19):
        """Horovod runs VGG-19 on all 16 GPUs."""
        for code in "VRGQ":
            assert model_fits_single_gpu(vgg19.layers, GPU_BY_CODE[code]), code
