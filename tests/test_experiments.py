"""Experiment harness: shape and paper-claim checks on reduced runs.

These are integration tests of the full stack (cluster -> planner ->
pipeline -> WSP -> baselines).  They use shortened measurement windows;
the benchmarks regenerate the full tables.
"""

import pytest

from repro.cluster import paper_cluster
from repro.allocation import allocate
from repro.experiments.common import (
    TARGET_ACCURACY,
    build_model,
    choose_nm,
    fig3_virtual_workers,
    hetpipe_assignment_for_subset,
)
from repro.experiments.ablations import run_ablations
from repro.experiments.fig3_single_vw import PAPER_FIG3_NM1, run_fig3
from repro.experiments.fig4_multi_vw import run_fig4
from repro.experiments.table4_whimpy import run_table4


class TestCommon:
    def test_fig3_mixes_match_paper_set(self, cluster):
        mixes = fig3_virtual_workers(cluster)
        assert set(mixes) == {"VVVV", "VRGQ", "RRRR", "VVQQ", "GGGG", "RRGG", "QQQQ"}
        for name, gpus in mixes.items():
            assert "".join(g.code for g in gpus) == name

    def test_choose_nm_respects_cap(self, cluster, resnet152):
        assignment = allocate(cluster, "ED")
        choice = choose_nm(build_model("resnet152"), assignment, cluster)
        assert 1 <= choice.nm <= choice.max_feasible
        assert all(plan.nm == choice.nm for plan in choice.plans)

    def test_subset_assignments(self):
        cluster, assignment = hetpipe_assignment_for_subset("V")
        assert assignment.num_virtual_workers == 1
        cluster, assignment = hetpipe_assignment_for_subset("VR")
        assert assignment.num_virtual_workers == 4
        assert assignment.codes() == ["VR"] * 4

    def test_targets_defined_for_both_models(self):
        assert set(TARGET_ACCURACY) == {"vgg19", "resnet152"}


@pytest.mark.slow
class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3("resnet152", max_nm=3, measured_minibatches=16)

    def test_all_mixes_present(self, result):
        assert {row.mix for row in result.rows} == set(PAPER_FIG3_NM1["resnet152"])

    def test_throughput_rises_with_nm(self, result):
        for mix in ("VVVV", "QQQQ", "VRGQ"):
            series = [row.throughput for row in result.rows if row.mix == mix]
            assert series == sorted(series)

    def test_normalization(self, result):
        for row in result.rows:
            if row.nm == 1:
                assert row.normalized == pytest.approx(1.0)
            else:
                assert row.normalized > 1.0

    def test_nm1_absolute_within_band_of_paper(self, result):
        """Calibration check: every Nm=1 mix within 35% of Fig 3."""
        for mix, paper in PAPER_FIG3_NM1["resnet152"].items():
            ours = result.nm1_throughput(mix)
            assert paper * 0.65 < ours < paper * 1.35, (mix, ours, paper)

    def test_homogeneous_order_v_r_g_q(self, result):
        rates = [result.nm1_throughput(m) for m in ("VVVV", "RRRR", "GGGG", "QQQQ")]
        assert rates == sorted(rates, reverse=True)

    def test_render(self, result):
        text = result.render()
        assert "VVVV" in text and "Figure 3" in text


@pytest.mark.slow
class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4("resnet152", measured_waves=4)

    def test_bars_present(self, result):
        labels = [bar.label for bar in result.bars]
        assert labels == ["Horovod", "NP", "ED", "ED-local", "HD"]

    def test_horovod_uses_twelve_gpus_for_resnet(self, result):
        assert result.bar("Horovod").gpus == 12

    def test_hetpipe_uses_all_sixteen(self, result):
        assert result.bar("ED-local").gpus == 16

    def test_ed_local_beats_horovod(self, result):
        """The paper's headline Fig-4 relation for ResNet-152."""
        assert result.bar("ED-local").throughput > result.bar("Horovod").throughput

    def test_ed_local_has_zero_sync_traffic(self, result):
        assert result.bar("ED-local").cross_node_sync_mib_per_wave == 0.0
        assert result.bar("ED").cross_node_sync_mib_per_wave > 0.0

    def test_render(self, result):
        assert "Horovod" in result.render()


@pytest.mark.slow
class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table4("resnet152", measured_waves=4)

    def test_all_subsets(self, result):
        assert [row.subset for row in result.rows] == ["V", "VR", "VRQ", "VRQG"]

    def test_resnet_horovod_infeasible_at_16(self, result):
        """Table 4's 'X': ResNet-152 cannot run DP on the G node."""
        assert result.row("VRQG").horovod is None
        assert result.row("VRQ").horovod is not None

    def test_hetpipe_beats_horovod_everywhere(self, result):
        for row in result.rows:
            if row.horovod is not None:
                assert row.hetpipe > row.horovod * 0.95

    def test_whimpy_gpus_speed_up_training(self, result):
        """The paper's 'up to 2.3x' claim: 16 whimpy-augmented GPUs vs
        the single high-end node."""
        assert result.speedup_from_whimpy() > 1.5

    def test_concurrent_minibatches_scale(self, result):
        assert result.row("VRQG").concurrent > result.row("V").concurrent

    def test_render(self, result):
        assert "X" in result.render()  # the infeasibility marker


class TestAblations:
    def test_pipeline_style_rows_are_pinned(self):
        """The Table-2 pipeline-style rows, exact: continuous HetPipe,
        GPipe flush and PipeDream 1F1B on one identical plan."""
        rows = run_ablations().values("pipeline-style")
        assert {variant: repr(value) for variant, value in rows.items()} == {
            "hetpipe-continuous": "175.59130970414137",
            "gpipe-flush": "117.93956630998068",
            "pipedream-1f1b": "175.59130970414137",
        }
