"""Cluster substrate: Table-1 specs, topology, link model."""

import pytest

from repro.cluster import (
    GPU_BY_CODE,
    InterconnectSpec,
    QUADRO_P4000,
    RTX_2060,
    TITAN_RTX,
    TITAN_V,
    paper_cluster,
    single_type_cluster,
)
from repro.cluster.gpu import GPUSpec
from repro.cluster.node import Node
from repro.errors import ConfigurationError
from repro.units import gb


class TestTable1Specs:
    """The four GPUs of Table 1, exactly as printed."""

    def test_titan_v(self):
        assert TITAN_V.cuda_cores == 5120
        assert TITAN_V.boost_clock_mhz == 1455
        assert TITAN_V.memory_bytes == gb(12)
        assert TITAN_V.architecture == "Volta"

    def test_titan_rtx(self):
        assert TITAN_RTX.cuda_cores == 4608
        assert TITAN_RTX.boost_clock_mhz == 1770
        assert TITAN_RTX.memory_bytes == gb(24)

    def test_rtx_2060(self):
        assert RTX_2060.cuda_cores == 1920
        assert RTX_2060.memory_bytes == gb(6)

    def test_quadro_p4000(self):
        assert QUADRO_P4000.cuda_cores == 1792
        assert QUADRO_P4000.memory_bytes == gb(8)

    def test_peak_flops_formula(self):
        assert TITAN_V.peak_flops == pytest.approx(5120 * 1455e6 * 2)

    def test_compute_power_order_is_v_r_g_q(self):
        """§8.1: 'in terms of computation power, V > R > G > Q'."""
        effective = [s.effective_flops for s in (TITAN_V, TITAN_RTX, RTX_2060, QUADRO_P4000)]
        assert effective == sorted(effective, reverse=True)

    def test_memory_order_is_r_v_q_g(self):
        """§8.1: 'in terms of the amount of GPU memory, R > V > Q > G'."""
        mem = [s.memory_bytes for s in (TITAN_RTX, TITAN_V, QUADRO_P4000, RTX_2060)]
        assert mem == sorted(mem, reverse=True)

    def test_codes(self):
        assert set(GPU_BY_CODE) == {"V", "R", "G", "Q"}


class TestSpecValidation:
    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            GPUSpec("bad", "B", "x", 0, 1000, gb(1), gb(1))

    def test_rejects_long_code(self):
        with pytest.raises(ConfigurationError):
            GPUSpec("bad", "BB", "x", 100, 1000, gb(1), gb(1))

    def test_rejects_absurd_efficiency(self):
        with pytest.raises(ConfigurationError):
            GPUSpec("bad", "B", "x", 100, 1000, gb(1), gb(1), arch_efficiency=2.0)


class TestPaperCluster:
    def test_sixteen_gpus_four_nodes(self, cluster):
        assert len(cluster) == 16
        assert len(cluster.nodes) == 4
        assert cluster.codes() == "VVVVRRRRGGGGQQQQ"

    def test_gpu_ids_unique_and_ordered(self, cluster):
        assert [g.gpu_id for g in cluster.gpus] == list(range(16))

    def test_nodes_are_homogeneous(self, cluster):
        for node in cluster.nodes:
            assert len({g.code for g in node.gpus}) == 1

    def test_same_node_query(self, cluster):
        assert cluster.gpus[0].same_node(cluster.gpus[3])
        assert not cluster.gpus[0].same_node(cluster.gpus[4])

    def test_gpu_lookup(self, cluster):
        assert cluster.gpu(5).code == "R"

    def test_node_lookup(self, cluster):
        assert cluster.node(2).code == "G"
        with pytest.raises(ConfigurationError):
            cluster.node(99)

    def test_gpus_of_type(self, cluster):
        assert sum(gpu.code == "Q" for gpu in cluster.gpus) == 4

    def test_specs_in_first_appearance_order(self, cluster):
        assert [s.code for s in cluster.specs()] == ["V", "R", "G", "Q"]

    def test_subset(self, cluster):
        sub = cluster.subset([0, 4, 8])
        assert [g.code for g in sub] == ["V", "R", "G"]

    def test_table4_subsets(self):
        assert paper_cluster("VR").codes() == "VVVVRRRR"
        assert paper_cluster("V").codes() == "VVVV"

    def test_unknown_code_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_cluster("VX")

    def test_single_type_cluster(self):
        c = single_type_cluster("G", node_count=2)
        assert c.codes() == "GGGGGGGG"
        assert len(c.nodes) == 2


class TestInterconnect:
    def test_intra_node_uses_pcie(self, cluster):
        ic = cluster.interconnect
        bw, lat = ic.link_between(cluster.gpus[0], cluster.gpus[1])
        assert bw == ic.pcie_effective
        assert lat == ic.pcie_latency

    def test_inter_node_uses_ib(self, cluster):
        ic = cluster.interconnect
        bw, lat = ic.link_between(cluster.gpus[0], cluster.gpus[4])
        assert bw == ic.ib_effective
        assert lat == ic.ib_latency

    def test_pcie_faster_than_achieved_ib(self, cluster):
        ic = cluster.interconnect
        assert ic.pcie_effective > ic.ib_effective

    def test_transfer_time_zero_same_gpu(self, cluster):
        ic = cluster.interconnect
        assert ic.transfer_time(1e9, cluster.gpus[0], cluster.gpus[0]) == 0.0

    def test_transfer_time_formula(self, cluster):
        ic = cluster.interconnect
        t = ic.transfer_time(1e6, cluster.gpus[0], cluster.gpus[1])
        assert t == pytest.approx(ic.pcie_latency + 1e6 / ic.pcie_effective)

    def test_scale_validation(self):
        with pytest.raises(ConfigurationError):
            InterconnectSpec(pcie_scale=0.0)
        with pytest.raises(ConfigurationError):
            InterconnectSpec(ib_scale=1.5)


class TestNode:
    def test_standalone_node_self_populates(self):
        node = Node(node_id=7, gpu_spec=TITAN_V, gpu_count=2)
        assert len(node.gpus) == 2
        assert str(node) == "node7[Vx2]"

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            Node(node_id=0, gpu_spec=TITAN_V, gpu_count=0)
