"""Horovod baseline — including the paper's Table-4 fit."""

import pytest

from repro.cluster import paper_cluster
from repro.errors import ConfigurationError, MemoryCapacityError
from repro.parallel import (
    cross_node_allreduce_bytes,
    feasible_gpus,
    measure_horovod,
    ring_allreduce_time,
    ring_bandwidth,
)
from repro.units import mib


class TestAllReduce:
    def test_cross_node_bytes_match_paper_arithmetic(self, vgg19, resnet152):
        """§8.3 quotes 515MB for VGG-19/16 GPUs and 211MB for
        ResNet-152/12 GPUs — exactly S*(N-1)/N in MiB."""
        assert cross_node_allreduce_bytes(vgg19.param_bytes, 16) / mib(1) == pytest.approx(514, abs=1)
        assert cross_node_allreduce_bytes(resnet152.param_bytes, 12) / mib(1) == pytest.approx(211, abs=1)

    def test_single_worker_no_traffic(self):
        assert cross_node_allreduce_bytes(1e9, 1) == 0.0

    def test_ring_time_grows_with_bytes(self, cluster):
        gpus = cluster.gpus[0:4]
        assert ring_allreduce_time(2e9, gpus) > ring_allreduce_time(1e9, gpus)

    def test_single_gpu_free(self, cluster):
        assert ring_allreduce_time(1e9, cluster.gpus[0:1]) == 0.0

    def test_intra_node_ring_faster_than_cross(self, cluster):
        same_node = cluster.gpus[0:4]
        cross = [cluster.gpus[0], cluster.gpus[4], cluster.gpus[8], cluster.gpus[12]]
        assert ring_allreduce_time(1e9, same_node) < ring_allreduce_time(1e9, cross)

    def test_ring_bandwidth_selection(self, cluster):
        from repro.models.calibration import DEFAULT_CALIBRATION as cal

        assert ring_bandwidth(cluster.gpus[0:4]) == cal.horovod_pcie_ring_bandwidth
        assert ring_bandwidth(cluster.gpus[2:6]) == cal.horovod_ib_ring_bandwidth

    def test_ring_needs_two(self, cluster):
        with pytest.raises(ConfigurationError):
            ring_bandwidth(cluster.gpus[0:1])

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            cross_node_allreduce_bytes(1e9, 0)


class TestHorovod:
    def test_resnet_excludes_rtx2060(self, resnet152):
        """§8.1: 'for ResNet-152 ... Horovod uses only 12 GPUs'."""
        metrics = measure_horovod(paper_cluster(), resnet152)
        assert metrics.num_gpus == 12
        assert metrics.excluded_gpus == 4

    def test_vgg_uses_all_sixteen(self, vgg19):
        metrics = measure_horovod(paper_cluster(), vgg19)
        assert metrics.num_gpus == 16

    def test_infeasible_cluster_raises(self, resnet152):
        with pytest.raises(MemoryCapacityError):
            measure_horovod(paper_cluster("G"), resnet152)

    def test_iteration_is_compute_plus_allreduce(self, vgg19):
        metrics = measure_horovod(paper_cluster(), vgg19)
        assert metrics.iteration_time == pytest.approx(
            metrics.compute_time + metrics.allreduce_time
        )

    def test_straggler_binds_compute(self, vgg19, profiler):
        """BSP compute time equals the slowest member's serial time."""
        from repro.cluster import QUADRO_P4000

        metrics = measure_horovod(paper_cluster(), vgg19)
        assert metrics.compute_time == pytest.approx(
            profiler.serial_minibatch_time(vgg19, QUADRO_P4000), rel=1e-6
        )

    def test_single_node_no_cross_traffic(self, vgg19):
        metrics = measure_horovod(paper_cluster("V"), vgg19)
        assert metrics.cross_node_bytes_per_minibatch == 0.0

    @pytest.mark.parametrize(
        "model_name,codes,paper",
        [
            ("vgg19", "V", 164), ("vgg19", "VR", 205),
            ("vgg19", "VRQ", 265), ("vgg19", "VRQG", 339),
            ("resnet152", "V", 233), ("resnet152", "VR", 353),
            ("resnet152", "VRQ", 415),
        ],
    )
    def test_table4_horovod_rows_within_band(self, model_name, codes, paper, vgg19, resnet152):
        """Every Horovod row of Table 4 within 15% of the paper."""
        model = vgg19 if model_name == "vgg19" else resnet152
        metrics = measure_horovod(paper_cluster(codes), model)
        assert paper * 0.85 < metrics.throughput < paper * 1.15

    def test_feasible_gpus_filter(self, resnet152):
        cluster = paper_cluster()
        usable = feasible_gpus(resnet152, cluster.gpus)
        assert {g.code for g in usable} == {"V", "R", "Q"}
