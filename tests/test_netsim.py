"""Contention-aware fabric: routing, sharing semantics, oracles, wiring."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.spec import NetworkSpec
from repro.cluster.catalog import (
    INTERCONNECT_PROFILES,
    interconnect_profile,
    paper_cluster,
    single_type_cluster,
)
from repro.errors import ConfigurationError, InvariantViolation, SimulationError, SpecError
from repro.models.calibration import DEFAULT_CALIBRATION
from repro.models.profiler import Profiler
from repro.netsim import (
    DEFAULT_FABRIC_SPEC,
    Endpoint,
    Fabric,
    FabricSpec,
    utilization_report,
)
from repro.parallel import (
    measure_ring_allreduce,
    ring_allreduce_time,
    simulate_ring_allreduce,
)
from repro.partition import plan_virtual_worker
from repro.pipeline.one_f_one_b import OneFOneBPipeline
from repro.pipeline.virtual_worker import VirtualWorkerPipeline
from repro.scenarios import congested_fabric_spec
from repro.sim.engine import Simulator
from repro.sim.invariants import FabricOracle, default_oracles


def _fabric(codes="VR", gpus_per_node=2, spec=DEFAULT_FABRIC_SPEC):
    sim = Simulator()
    cluster = paper_cluster(codes, gpus_per_node=gpus_per_node)
    return sim, cluster, Fabric(sim, cluster, spec)


class TestRouting:
    def test_intra_node_path(self):
        _, cluster, fabric = _fabric()
        path, latency = fabric.route(
            Endpoint.gpu(cluster.gpu(0)), Endpoint.gpu(cluster.gpu(1))
        )
        assert [l.kind for l in path] == ["pcie_lane", "pcie_switch", "pcie_lane"]
        assert latency == cluster.interconnect.pcie_latency

    def test_cross_node_path_traverses_nics_and_ib(self):
        _, cluster, fabric = _fabric()
        path, latency = fabric.route(
            Endpoint.gpu(cluster.gpu(0)), Endpoint.gpu(cluster.gpu(2))
        )
        assert [l.kind for l in path] == [
            "pcie_lane", "pcie_switch", "nic", "ib_fabric", "nic",
            "pcie_switch", "pcie_lane",
        ]
        assert latency == cluster.interconnect.ib_latency

    def test_host_endpoints_use_host_lane(self):
        _, cluster, fabric = _fabric()
        path, _ = fabric.route(Endpoint.host(0), Endpoint.host(1))
        assert path[0].kind == "host_lane" and path[-1].kind == "host_lane"

    def test_same_node_host_to_host_still_charges_pcie(self):
        sim, cluster, fabric = _fabric()
        done = []
        fabric.transfer(Endpoint.host(0), Endpoint.host(0), 1e6, lambda: done.append(sim.now))
        sim.run()
        ic = cluster.interconnect
        assert done == [pytest.approx(ic.pcie_latency + 1e6 / ic.pcie_effective)]

    def test_same_gpu_transfer_is_noop(self):
        sim, cluster, fabric = _fabric()
        done = []
        fabric.transfer_gpus(0, 0, 1e9, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]
        assert fabric.flows == []


class TestUnloadedEquivalence:
    """With no contention, the fabric reproduces the dedicated model."""

    @pytest.mark.parametrize("src,dst", [(0, 1), (0, 2)])
    def test_single_flow_matches_dedicated_time(self, src, dst):
        sim, cluster, fabric = _fabric()
        done = []
        fabric.transfer_gpus(src, dst, 5e6, lambda: done.append(sim.now))
        sim.run()
        expected = cluster.interconnect.transfer_time(
            5e6, cluster.gpu(src), cluster.gpu(dst)
        )
        assert done == [pytest.approx(expected)]

    def test_congested_spec_is_never_faster(self):
        spec = FabricSpec(pcie_lane_scale=0.5, nic_scale=0.25, ib_fabric_scale=0.5)
        sim, cluster, fabric = _fabric(spec=spec)
        done = fabric.transfer_gpus(0, 2, 5e6)
        dedicated = cluster.interconnect.transfer_time(5e6, cluster.gpu(0), cluster.gpu(2))
        assert done >= dedicated


class TestSharing:
    def test_cross_node_flows_serialize_on_nic(self):
        sim, cluster, fabric = _fabric()
        done = []
        fabric.transfer_gpus(0, 2, 1e6, lambda: done.append(sim.now))
        fabric.transfer_gpus(1, 3, 1e6, lambda: done.append(sim.now))
        sim.run()
        ic = cluster.interconnect
        occupy = 1e6 / ic.ib_effective
        assert done[0] == pytest.approx(ic.ib_latency + occupy)
        assert done[1] == pytest.approx(ic.ib_latency + 2 * occupy)

    def test_disjoint_intra_node_flows_do_not_interact(self):
        # 4 GPUs per node: gpu0->gpu1 and gpu2->gpu3 share only the
        # switch, which has spare capacity for two lane-rate flows
        sim, cluster, fabric = _fabric("V", gpus_per_node=4)
        done = []
        fabric.transfer_gpus(0, 1, 1e6, lambda: done.append(sim.now))
        fabric.transfer_gpus(2, 3, 1e6, lambda: done.append(sim.now))
        sim.run()
        # FIFO reservation still serializes them at the shared switch;
        # both complete, bytes conserve, and utilization stays <= 1
        fabric.verify()
        assert len(done) == 2

    def test_queue_stats_accumulate_under_contention(self):
        sim, cluster, fabric = _fabric()
        for _ in range(4):
            fabric.transfer_gpus(0, 2, 1e6)
        sim.run()
        delay, depth = fabric.queue_stats()
        assert delay > 0
        assert depth >= 3


class _ReferenceLink:
    """Brute-force SharedLink accounting: prunes by filtering every
    pending start instead of popping expired ones off the head, and
    keeps every service interval so utilization is a plain sum."""

    def __init__(self) -> None:
        self.free_at = 0.0
        self.busy_time = 0.0
        self.bytes_moved = 0.0
        self.queue_delay_total = 0.0
        self.max_queue_depth = 0
        self.pending: list[float] = []
        self.intervals: list[tuple[float, float]] = []

    def occupy(self, now: float, start: float, duration: float, nbytes: float) -> None:
        self.queue_delay_total += max(0.0, min(self.free_at, start) - now)
        self.pending = [t for t in self.pending if t > now]
        if start > now:
            self.pending.append(start)
        self.max_queue_depth = max(self.max_queue_depth, len(self.pending))
        self.free_at = start + duration
        self.busy_time += duration
        self.bytes_moved += nbytes
        self.intervals.append((start, start + duration))

    def utilization(self, elapsed: float) -> float:
        busy = sum(min(end, elapsed) - start for start, end in self.intervals if start < elapsed)
        return busy / elapsed if elapsed > 0 else 0.0


_CONGESTED = FabricSpec(pcie_lane_scale=0.5, nic_scale=0.25, ib_fabric_scale=0.5)


def _busy_from_flow_log(fabric, link, elapsed):
    """Occupancy of ``link`` within ``[0, elapsed)``, summed from the
    fabric's flow log (a flow holds each hop for ``done - latency -
    start``)."""
    busy = 0.0
    for flow in fabric.flows:
        if link.name in flow.path and flow.start < elapsed:
            _, latency = fabric.route(flow.src, flow.dst)
            busy += min(flow.done - latency, elapsed) - flow.start
    return busy


class TestSharedLinkAccounting:
    def test_overlapping_occupy_raises(self, monkeypatch):
        # Routes list each resource once; a path that listed one twice
        # (here: same-node host -> host without the de-duplication)
        # would book its second hop over its first, which the single
        # reservation loop reports as double-booked capacity.
        _, _, fabric = _fabric()

        def undeduplicated(src, dst):
            return [fabric.host_lane[0], fabric.pcie_switch[0], fabric.host_lane[0]], 0.0

        monkeypatch.setattr(fabric, "_compute_route", undeduplicated)
        with pytest.raises(InvariantViolation, match="host.n0: overlapping reservation"):
            fabric.transfer(Endpoint.host(0), Endpoint.host(0), 1e6)

    def test_stacked_flows_queue_delay_and_depth(self):
        sim, cluster, fabric = _fabric()
        src, dst = Endpoint.gpu(cluster.gpu(0)), Endpoint.gpu(cluster.gpu(2))
        path, _ = fabric.route(src, dst)
        occupy = 1e6 / min(link.bandwidth for link in path)
        for _ in range(3):
            fabric.transfer(src, dst, 1e6, lambda: None)
        # flows start at 0, occupy, 2*occupy: two wait, for 1 + 2 slots
        for link in path:
            assert link.queue_delay_total == pytest.approx(3 * occupy)
            assert link.max_queue_depth == 2
            assert link.queue_depth == 2
        assert fabric.queue_stats() == (pytest.approx(3 * occupy), 2)
        sim.run()
        # every flow has started: nothing waits, and a later flow
        # neither queues nor deepens the peak
        fabric.transfer(src, dst, 1e6)
        for link in path:
            assert link.queue_depth == 0
            assert link.max_queue_depth == 2
            assert link.queue_delay_total == pytest.approx(3 * occupy)

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from([DEFAULT_FABRIC_SPEC, _CONGESTED]),
        flows=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 1e-4, 1e-3, 5e-3]),  # gap after previous
                st.integers(0, 5),  # src: gpus 0-3, hosts of nodes 0-1
                st.integers(0, 5),  # dst
                st.sampled_from([0.0, 1e4, 1e5, 1e6, 4e6]),
            ),
            min_size=1, max_size=40,
        ),
    )
    def test_property_matches_brute_force_reference(self, spec, flows):
        from repro.wsp.parameter_server import ParameterServerSim

        sim, cluster, fabric = _fabric(spec=spec)
        endpoints = [Endpoint.gpu(gpu) for gpu in cluster.gpus]
        endpoints += [Endpoint.host(node.node_id) for node in cluster.nodes]
        assert len(endpoints) == 6
        refs = {link.name: _ReferenceLink() for link in fabric.links()}
        # Half the flows are one-off Fabric.transfer calls; the other
        # half go through streams that bound their route when built:
        # FabricEdges, and the PS's fabric sends (host to host).
        edges = {}
        ps = ParameterServerSim(sim, cluster, 1, fabric=fabric)

        def submit(i: int, src: Endpoint, dst: Endpoint, nbytes: float) -> None:
            now = sim.now
            if i % 2 == 0:
                fabric.transfer(src, dst, nbytes)
            elif i % 4 == 1:
                edge = edges.get((src, dst))
                if edge is None:
                    edge = edges[(src, dst)] = fabric.edge(src, dst, f"edge{len(edges)}")
                edge.transfer(nbytes)
            else:
                src, dst = Endpoint.host(src.node_id), Endpoint.host(dst.node_id)
                ps.pull(0, [(dst.node_id, [(src.node_id, nbytes)])], lambda _: None)
            if src != dst or src.gpu_id is None:
                path, _ = fabric.route(src, dst)
                occupy = nbytes / min(link.bandwidth for link in path)
                start = max([now] + [refs[link.name].free_at for link in path])
                for link in path:
                    refs[link.name].occupy(now, start, occupy, nbytes)
            for link in fabric.links():
                starts = list(link._pending_starts)
                assert starts == sorted(starts), link.name
                ref = refs[link.name]
                assert link.queue_depth == sum(1 for t in ref.pending if t > now)
                assert link.utilization() == pytest.approx(
                    ref.utilization(now), rel=1e-9, abs=1e-12
                ), link.name

        t = 0.0
        for i, (gap, src, dst, nbytes) in enumerate(flows):
            t += gap
            sim.schedule_at(
                t, lambda i=i, s=endpoints[src], d=endpoints[dst], n=nbytes: submit(i, s, d, n)
            )
        sim.run()
        fabric.verify()
        for link in fabric.links():
            ref = refs[link.name]
            assert link.free_at == ref.free_at, link.name
            assert link.busy_time == ref.busy_time, link.name
            assert link.bytes_moved == ref.bytes_moved, link.name
            assert link.queue_delay_total == ref.queue_delay_total, link.name
            assert link.max_queue_depth == ref.max_queue_depth, link.name
        assert ps.sync_bytes_total == sum(
            f.nbytes for f in fabric.flows if f.tag.startswith("ps.")
        )


class TestUtilizationClip:
    def test_idle_gap_past_elapsed_is_not_subtracted(self):
        """A lane that served [0, 1) and holds [10, 11) was busy for 1 s
        of the first 5: utilization(5) is 0.2, not 0."""
        sim, cluster, fabric = _fabric()
        bw = cluster.interconnect.pcie_effective
        lane = fabric.pcie_lane[0]
        fabric.transfer_gpus(0, 1, bw * 1.0)  # lane gpu0: [0, 1)
        # host lane + switch of node 0: the switch is free from 1 on,
        # so this holds it over [1, 10)
        fabric.transfer(Endpoint.host(0), Endpoint.host(0), bw * 9.0)
        # waits for the switch: lane gpu0 idles over [1, 10)
        fabric.transfer_gpus(0, 1, bw * 1.0)
        assert lane.busy_time == pytest.approx(2.0)
        assert lane.free_at == pytest.approx(11.0)
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(lane.utilization()))
        sim.run()
        assert seen == [pytest.approx(0.2)]
        assert lane.utilization(5.0) == pytest.approx(0.2)  # any elapsed >= booking

    def test_congested_multi_hop_matches_flow_log(self):
        sim, cluster, fabric = _fabric("VRG", spec=_CONGESTED)
        gpus = len(cluster.gpus)
        checks = []

        def check() -> None:
            now = sim.now
            ahead = 0
            for link in fabric.links():
                if link.free_at > now:
                    ahead += 1
                exact = _busy_from_flow_log(fabric, link, now) / now
                assert link.utilization() == pytest.approx(exact, rel=1e-9, abs=1e-12), link.name
            checks.append(ahead)

        t = 0.0
        for i in range(60):
            src, dst = (7 * i) % gpus, (5 * i + 3) % gpus
            nbytes = 2e5 * (1 + i % 4)
            sim.schedule_at(t, lambda s=src, d=dst, n=nbytes: fabric.transfer_gpus(s, d, n))
            if i % 2:
                node_a, node_b = i % 3, (i + 1) % 3
                sim.schedule_at(
                    t,
                    lambda a=node_a, b=node_b, n=nbytes: fabric.transfer(
                        Endpoint.host(a), Endpoint.host(b), n
                    ),
                )
            if i % 10 == 9:
                sim.schedule_at(t, check)
            t += 2e-4
        sim.run()
        check()
        # the checks ran while reservations were still booked ahead
        assert any(checks[:-1])
class TestVerification:
    def test_verify_passes_on_clean_run(self):
        sim, _, fabric = _fabric()
        fabric.transfer_gpus(0, 3, 2e6)
        fabric.transfer(Endpoint.host(0), Endpoint.host(1), 1e6)
        sim.run()
        fabric.verify()

    def test_verify_catches_tampered_counters(self):
        sim, _, fabric = _fabric()
        fabric.transfer_gpus(0, 2, 1e6)
        sim.run()
        fabric.ib_fabric.bytes_moved += 123.0
        with pytest.raises(InvariantViolation):
            fabric.verify()

    def test_verify_catches_overcommitted_busy_time(self):
        sim, _, fabric = _fabric()
        fabric.transfer_gpus(0, 2, 1e6, lambda: None)
        sim.run()
        assert sim.now > 0
        fabric.ib_fabric.busy_time = sim.now * 2
        with pytest.raises(InvariantViolation):
            fabric.verify()

    def test_negative_size_rejected(self):
        _, _, fabric = _fabric()
        with pytest.raises(SimulationError):
            fabric.transfer_gpus(0, 1, -1.0)

    def test_utilization_never_exceeds_one(self):
        sim, _, fabric = _fabric()
        for i in range(10):
            fabric.transfer_gpus(0, 2, 5e5)
        sim.run()
        for link in fabric.links():
            assert link.utilization() <= 1.0 + 1e-12

    def test_utilization_report_rows_cover_all_links(self):
        sim, _, fabric = _fabric()
        fabric.transfer_gpus(0, 2, 1e6)
        sim.run()
        rows = utilization_report(fabric)
        assert len(rows) == len(fabric.links())
        assert len(utilization_report(fabric, top=3)) == 3


class TestFabricSpec:
    def test_invalid_scales_rejected(self):
        with pytest.raises(ConfigurationError):
            FabricSpec(pcie_lane_scale=0.0)
        with pytest.raises(ConfigurationError):
            FabricSpec(ib_fabric_scale=-1.0)

    def test_min_scale_caps_at_one(self):
        assert FabricSpec().min_scale() == 1.0
        assert FabricSpec(nic_scale=0.25).min_scale() == 0.25

    def test_congested_fabric_spec_deterministic(self):
        assert congested_fabric_spec(7) == congested_fabric_spec(7)
        specs = {congested_fabric_spec(seed) for seed in range(30)}
        assert len(specs) > 1  # actually varies across seeds


def _small_plan(cluster, nm=2):
    from repro.scenarios import build_fuzz_model

    model = build_fuzz_model("net", 8, 16, (8, 8, 8, 8), (32,))
    profiler = Profiler(DEFAULT_CALIBRATION)
    plan = plan_virtual_worker(
        model, cluster.gpus[: len(cluster.gpus)], nm, cluster.interconnect,
        DEFAULT_CALIBRATION, profiler, search_orderings=False,
    )
    return model, plan


class TestPipelineOnFabric:
    def test_virtual_worker_runs_and_conserves(self):
        cluster = paper_cluster("VR", gpus_per_node=1)
        model, plan = _small_plan(cluster)
        sim = Simulator()
        fabric = Fabric(sim, cluster)
        from repro.pipeline.tasks import CountingGate

        pipeline = VirtualWorkerPipeline(
            sim, plan, cluster.interconnect, gate=CountingGate(limit=6), fabric=fabric
        )
        pipeline.start()
        sim.run_until_idle()
        assert pipeline.completed == 6
        fabric.verify()
        assert fabric.flows  # stage traffic actually crossed the fabric
        # the per-edge adapters still account bytes for traffic metrics
        assert pipeline.cross_node_bytes() > 0

    def test_one_f_one_b_runs_on_fabric(self):
        cluster = paper_cluster("VR", gpus_per_node=1)
        model, plan = _small_plan(cluster)
        sim = Simulator()
        fabric = Fabric(sim, cluster)
        pipeline = OneFOneBPipeline(
            sim, plan, cluster.interconnect, limit=6, fabric=fabric
        )
        pipeline.start()
        sim.run_until_idle()
        assert pipeline.completed == 6
        fabric.verify()

    def test_shared_pipeline_not_faster_than_dedicated(self):
        cluster = paper_cluster("VR", gpus_per_node=1)
        model, plan = _small_plan(cluster)
        from repro.pipeline.tasks import CountingGate

        times = {}
        for mode in ("dedicated", "shared"):
            sim = Simulator()
            fabric = Fabric(sim, cluster) if mode == "shared" else None
            pipeline = VirtualWorkerPipeline(
                sim, plan, cluster.interconnect, gate=CountingGate(limit=8),
                fabric=fabric,
            )
            pipeline.start()
            sim.run_until_idle()
            times[mode] = sim.now
        assert times["shared"] >= times["dedicated"] - 1e-12


class TestRuntimeIntegration:
    @staticmethod
    def _deployment(node_codes, nm):
        from repro.allocation import allocate
        from repro.experiments.common import plan_assignment
        from repro.scenarios import build_fuzz_model

        cluster = paper_cluster(node_codes, gpus_per_node=2)
        model = build_fuzz_model("net", 8, 16, (8, 8, 8, 8), (32,))
        return cluster, model, plan_assignment(model, allocate(cluster, "NP"), nm, cluster)

    def _measure(self, measure_plans, network_model):
        cluster, model, plans = self._deployment("VR", 2)
        return measure_plans(
            model, plans, cluster=cluster, network=network_model, d=1, measured_waves=3
        )

    def test_shared_mode_metrics_flags(self, measure_plans):
        dedicated = self._measure(measure_plans, "dedicated")
        shared = self._measure(measure_plans, "shared")
        assert dedicated.network_model == "dedicated"
        assert shared.network_model == "shared"
        assert shared.net_queue_delay_total >= 0.0

    def test_shared_makespan_not_faster_than_dedicated(self, build_runtime):
        """On this deployment contention delays the target global version.

        A pinned example, not a law: a reordered schedule can finish
        sooner (seed 330 in test_scenarios.py), so the fabric oracle
        checks each flow against its dedicated floor instead.
        """
        cluster, model, plans = self._deployment("VRG", 2)
        makespans = {}
        for mode in ("dedicated", "shared"):
            runtime = build_runtime(model, plans, cluster=cluster, network=mode, d=1)
            runtime.start()
            runtime.run_until_global_version(4)
            makespans[mode] = runtime.sim.now
        assert makespans["shared"] >= makespans["dedicated"] - 1e-12

    def test_unknown_network_model_rejected(self):
        """The spec rejects an unknown network model before any runtime
        exists."""
        with pytest.raises(SpecError, match="network.model must be one of"):
            NetworkSpec("infinband")

    def test_fabric_oracle_clean_on_shared_run(self, build_runtime):
        cluster, model, plans = self._deployment("VR", 2)
        runtime = build_runtime(
            model, plans, cluster=cluster, network="shared", d=1,
            oracles=default_oracles(),
        )
        runtime.start()
        runtime.run_until_global_version(3)
        runtime.check_invariants()
        oracle = next(o for o in runtime.oracles if isinstance(o, FabricOracle))
        assert oracle.flows_checked == len(runtime.fabric.flows) > 0

    def test_fabric_oracle_noop_on_dedicated_run(self, build_runtime):
        oracle = FabricOracle()
        cluster, model, plans = self._deployment("VR", 1)
        runtime = build_runtime(model, plans, cluster=cluster, oracles=[oracle])
        runtime.start()
        runtime.run_until_global_version(1)
        oracle.verify_final(runtime)  # no fabric -> no-op
        assert oracle.flows_checked == 0

    def test_fabric_oracle_flags_a_flow_below_its_dedicated_floor(self):
        """Lanes twice as fast as the interconnect's PCIe serve an
        intra-node flow in less than its dedicated time."""
        _, cluster, fabric = _fabric(
            spec=FabricSpec(pcie_lane_scale=2.0, pcie_switch_scale=4.0)
        )
        fabric.transfer_gpus(0, 1, 1e6)
        runtime = SimpleNamespace(fabric=fabric, cluster=cluster)
        with pytest.raises(InvariantViolation, match="below its dedicated floor"):
            FabricOracle().verify_final(runtime)


class TestAllreduceOnFabric:
    def test_dedicated_simulation_matches_analytic_model(self):
        cluster = single_type_cluster("V", node_count=2, gpus_per_node=2)
        gpus = cluster.gpus
        simulated = measure_ring_allreduce(cluster, gpus, 64e6)
        analytic = ring_allreduce_time(64e6, gpus)
        assert simulated == pytest.approx(analytic, rel=1e-9)

    def test_intra_node_shared_ring_not_faster_than_dedicated(self):
        # the fabric's PCIe lanes are wider than the calibrated ring
        # bandwidth (a software bound); the rate cap keeps the shared
        # model from beating the dedicated one on one-node rings
        cluster = single_type_cluster("V", node_count=1, gpus_per_node=4)
        dedicated = measure_ring_allreduce(cluster, cluster.gpus, 64e6)
        shared = measure_ring_allreduce(cluster, cluster.gpus, 64e6, network_model="shared")
        assert shared >= dedicated - 1e-12

    def test_shared_rings_contend(self):
        cluster = single_type_cluster("V", node_count=2, gpus_per_node=2)
        gpus = cluster.gpus
        one = measure_ring_allreduce(cluster, gpus, 16e6, network_model="shared")
        three = measure_ring_allreduce(
            cluster, gpus, 16e6, network_model="shared", rings=3
        )
        assert three > one  # concurrent rings share the NICs
        dedicated3 = measure_ring_allreduce(cluster, gpus, 16e6, rings=3)
        dedicated1 = measure_ring_allreduce(cluster, gpus, 16e6, rings=1)
        assert dedicated3 == pytest.approx(dedicated1)  # private links: no interaction

    def test_single_gpu_ring_is_instant(self):
        cluster = single_type_cluster("V")
        assert measure_ring_allreduce(cluster, cluster.gpus[:1], 1e6) == 0.0

    def test_fabric_allreduce_conserves(self):
        cluster = single_type_cluster("V", node_count=2, gpus_per_node=2)
        sim = Simulator()
        fabric = Fabric(sim, cluster)
        finished = []
        simulate_ring_allreduce(
            sim, cluster.gpus, 8e6, fabric=fabric, on_complete=finished.append
        )
        sim.run_until_idle()
        assert len(finished) == 1
        fabric.verify()
        n = len(cluster.gpus)
        total_sent = sum(f.nbytes for f in fabric.flows)
        assert total_sent == pytest.approx(2 * (n - 1) * 8e6)


class TestProfiles:
    def test_known_profiles(self):
        assert set(INTERCONNECT_PROFILES) >= {"grpc_tf112", "nccl_modern"}

    def test_default_profile_matches_spec_defaults(self):
        from repro.cluster.topology import InterconnectSpec

        assert interconnect_profile("grpc_tf112") == InterconnectSpec()

    def test_modern_profile_is_faster(self):
        old = interconnect_profile("grpc_tf112")
        new = interconnect_profile("nccl_modern")
        assert new.ib_effective > old.ib_effective
        assert new.ib_latency < old.ib_latency

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            interconnect_profile("carrier_pigeon")
        with pytest.raises(ConfigurationError):
            paper_cluster(profile="carrier_pigeon")

    def test_paper_cluster_accepts_profile(self):
        cluster = paper_cluster("VR", profile="nccl_modern")
        assert cluster.interconnect.ib_scale == pytest.approx(0.80)


def _fabric_ledger(seed, shards=1, faults=False):
    """(sha256 of the shared-fabric ledger, flows, events, retries) after
    the main run of one fuzz seed, built the way ``run_scenario`` builds
    it: the per-link counters, fabric and PS queue stats, the clock, the
    event count and (faulted runs) the injector's retry ledger."""
    import hashlib

    from repro.api.build import build_scenario
    from repro.api.spec import FidelitySpec
    from repro.scenarios import generate_run_spec
    from repro.scenarios.runner import (
        EVENTS_PER_MINIBATCH,
        FuzzMode,
        _build_runtime,
        _drive_main,
        _makespan_only,
    )
    from repro.sim.trace import Trace

    mode = FuzzMode(
        network=NetworkSpec(model="shared"), fidelity=FidelitySpec(),
        shards=shards, faults=faults,
    )
    run = mode.apply(generate_run_spec(seed))
    built = build_scenario(run)
    pipe = run.pipeline
    fabric_spec = congested_fabric_spec(seed)
    total_waves = pipe.warmup_waves + pipe.measured_waves
    budget = EVENTS_PER_MINIBATCH * (
        len(built.plans) * (total_waves + pipe.d + 3) * pipe.nm
    ) * max(plan.k for plan in built.plans)
    if faults:
        budget *= 4
    runtime = _build_runtime(
        built, run, trace=Trace(enabled=False), fabric_spec=fabric_spec
    )
    injector = None
    if faults:
        from repro.faults import FaultInjector, FaultTargets, compile_schedule

        horizon = _makespan_only(built, run, total_waves, budget, fabric_spec)
        targets = FaultTargets(
            num_virtual_workers=len(built.plans),
            stages_per_worker=tuple(plan.k for plan in built.plans),
            node_ids=tuple(node.node_id for node in built.cluster.nodes),
            shards=pipe.shards,
        )
        schedule = compile_schedule(run.faults, targets, horizon, run.seed)
        assert schedule, "pinned faulted seeds must arm a schedule"
        injector = FaultInjector(runtime, schedule, run.faults, horizon)
        injector.arm()
    _drive_main(runtime, pipe.warmup_waves, total_waves, budget)
    fabric, sim = runtime.fabric, runtime.sim
    ledger = (
        tuple(
            (
                link.name, link.free_at, link.busy_time, link.bytes_moved,
                link.queue_delay_total, link.max_queue_depth,
            )
            for link in fabric.links()
        ),
        fabric.queue_delay_total,
        len(fabric.flows),
        runtime.ps.queue_stats(),
        sim.now,
        sim.events_processed,
    )
    retries = None
    if injector is not None:
        retries = injector.state.retries_attempted
        ledger += (retries, injector.state.sends_resolved)
    digest = hashlib.sha256(repr(ledger).encode()).hexdigest()
    return digest, len(fabric.flows), sim.events_processed, retries


class TestFabricLedgerGolden:
    """Golden pin of the shared fabric's own counters after a fuzz
    seed's main run.  The trace digests do not hash the per-link
    ledger (free_at, busy time, bytes, queue delay, peak depth), so
    these pins are what catches drift in the fabric's bookkeeping."""

    @pytest.mark.parametrize(
        ("seed", "shards", "faults", "expected"),
        [
            (0, 1, False, ("09216072de833b3be77260e24a2f7e00ca38992b1fa951438f21e9d810e79090", 350, 660, None)),
            (5, 4, False, ("1e807b9945f08c6c19848f9542fc66b55d8d600371430f3d055eae1ab6188dd4", 2280, 4216, None)),
            (5, 1, True, ("f12e46bec8a2881175d4754a24080474179eb577f0190d39e4bba4dc117b0289", 1945, 3696, 24)),
            (9, 1, True, ("162bb0ffa1a4e9895aa692edcfc5ad8d8416306a97ab14f395ec35ab02f78d8f", 213, 377, 8)),
        ],
    )
    def test_shared_fabric_ledger_is_pinned(self, seed, shards, faults, expected):
        assert _fabric_ledger(seed, shards, faults) == expected
