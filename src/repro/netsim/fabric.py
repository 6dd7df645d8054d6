"""Contention-aware network fabric.

The pipeline and WSP layers historically gave every transfer a *private*
:class:`~repro.sim.resources.Channel` — one link per virtual worker per
stage per direction — so a node's NIC was infinitely parallel and PS
push/pull storms, activation transfers, and allreduce traffic never
contended.  This module replaces those private links with one shared
:class:`Fabric` built from the :class:`~repro.cluster.topology.Cluster`:

* one **PCIe lane** per GPU (the x16 slot the device hangs off),
* one **host lane** per node (the DMA/memory path of host-resident
  endpoints — PS shards are staged through host memory),
* one **PCIe switch** per node (the root-complex/switch fabric all the
  node's lanes and its NIC funnel through),
* one **NIC** per node (the 56 Gb/s InfiniBand port — the resource the
  paper's §7 communication model says is scarce), and
* one **IB fabric** for the whole cluster (the InfiniBand switch).

A transfer is a :class:`Flow` routed across the multi-hop path between
its endpoints.  Capacity is FIFO-reserved: the flow starts when *every*
resource on its path is free, runs at the path's bottleneck rate, and
occupies each traversed resource for the whole service interval.  The
unloaded service time therefore equals the dedicated
:class:`~repro.sim.resources.Channel` model exactly (same bottleneck
bandwidth, same end-to-end latency), and a loaded or congested flow is
only slower.  That is the per-flow law
:class:`~repro.sim.invariants.FabricOracle` checks: every flow's
service time ``done - start`` is at least its route's latency plus
``nbytes`` over the bottleneck bandwidth at dedicated rates.  The law
holds per flow, not per run: slower transfers reorder the WSP
admissions downstream, and a run can end sooner for it.

Booking a flow is one loop inside :class:`Fabric`: it reads ``free_at``
over the path to find the start, then updates every hop's counters
(queueing delay, pending starts, peak depth, ``free_at``, busy time,
bytes, and the obs span) in place.  :class:`SharedLink` itself only
holds that state and answers queries.  Routes are static, so a stream
that sends repeatedly between the same endpoints (a pipeline edge, a PS
push/pull stream) binds its route once as a :class:`FabricEdge`;
:meth:`Fabric.transfer` looks the route up per call and serves one-off
flows.

Every resource keeps the accounting the invariant oracles and the
``repro netsim`` report read: occupancy (utilization <= 1 by
construction, re-verified by :meth:`Fabric.verify`), bytes charged by
flows (flow conservation: bytes in == bytes out per resource), queueing
delay, and peak queue depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.cluster.gpu import GPUDevice
from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError, InvariantViolation, SimulationError
from repro.sim.engine import Simulator

Callback = Callable[[], None]


class Endpoint(NamedTuple):
    """One end of a flow: a GPU, or a node's host memory (PS shard).

    PS traffic terminates in host memory (TF 1.12 stages tensors through
    the gRPC process), so it enters the fabric at the node's PCIe switch
    without traversing any GPU's lane; GPU-to-GPU transfers traverse the
    lanes on both ends.
    """

    node_id: int
    gpu_id: int | None = None

    @staticmethod
    def gpu(device: GPUDevice) -> "Endpoint":
        return Endpoint(node_id=device.node_id, gpu_id=device.gpu_id)

    @staticmethod
    def host(node_id: int) -> "Endpoint":
        return Endpoint(node_id=node_id, gpu_id=None)

    def __str__(self) -> str:
        if self.gpu_id is None:
            return f"host(n{self.node_id})"
        return f"gpu{self.gpu_id}(n{self.node_id})"


@dataclass(frozen=True)
class FabricSpec:
    """Capacity model of the shared resources, as multiples of the
    cluster's effective point-to-point bandwidths.

    Defaults are chosen so the *bottleneck* of every unloaded path equals
    the dedicated model's link (PCIe lane intra-node, NIC rate
    cross-node): the switch fabrics are faster than any single lane/port,
    so they only matter under fan-in.  Scales below 1.0 model congested
    or oversubscribed hardware — the shared-network fuzz mode draws them
    to exercise contention paths.
    """

    #: per-GPU PCIe lane, x `pcie_effective`
    pcie_lane_scale: float = 1.0
    #: per-node PCIe switch aggregate, x `pcie_effective`
    pcie_switch_scale: float = 2.0
    #: per-node NIC, x `ib_effective`
    nic_scale: float = 1.0
    #: whole-cluster IB switch aggregate, x `ib_effective` (None: one
    #: port per node half-duplex-ish, i.e. half-bisection `nodes / 2`)
    ib_fabric_scale: float | None = None

    def __post_init__(self) -> None:
        for name in ("pcie_lane_scale", "pcie_switch_scale", "nic_scale"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.ib_fabric_scale is not None and self.ib_fabric_scale <= 0:
            raise ConfigurationError("ib_fabric_scale must be positive")

    def min_scale(self) -> float:
        """Slowest resource class relative to the dedicated model.

        The differential window bound multiplies dedicated per-transfer
        times by ``1 / min_scale()`` to stay a true worst case when the
        fuzz generator draws a congested (scale < 1) fabric.
        """
        scales = [self.pcie_lane_scale, self.pcie_switch_scale, self.nic_scale]
        if self.ib_fabric_scale is not None:
            scales.append(self.ib_fabric_scale)
        return min(1.0, min(scales))


DEFAULT_FABRIC_SPEC = FabricSpec()


class SharedLink:
    """A shared fabric resource with FIFO-reserved capacity.

    Flows reserve non-overlapping service intervals in submission order;
    ``busy_time`` accumulates exact occupancy, so ``utilization`` can
    never exceed 1 — the oracle re-checks both properties.

    A link holds state and answers queries; it has no write method.
    :meth:`Fabric.transfer` (and every :class:`FabricEdge`) updates the
    counters of all hops of a flow in one loop, so there is exactly one
    place where a reservation is booked.

    Starts on one link never decrease (a flow starts at the max
    ``free_at`` over its path), so the pending starts are a FIFO pruned
    from its head in amortized O(1) per reservation.  A queued flow may
    leave its link idle until the flow's start because *another* hop is
    the one it waits for.  Such an idle window is the only thing
    ``_gaps`` records, only while it can still end after the clock, and
    it is all :meth:`utilization` needs to clip exactly at ``sim.now``.
    """

    def __init__(self, sim: Simulator, bandwidth: float, name: str, kind: str) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"{name}: bandwidth must be positive, got {bandwidth}")
        self.sim = sim
        self.name = name
        self.kind = kind  # "pcie_lane" | "pcie_switch" | "nic" | "ib_fabric"
        self.bandwidth = bandwidth
        self.busy_time = 0.0
        self.bytes_moved = 0.0
        self.queue_delay_total = 0.0
        self.max_queue_depth = 0
        self._free_at = 0.0
        self._pending_starts: deque[float] = deque()
        #: idle windows ``(from, to)`` that a queued reservation left
        #: before its start ``to``; pruned once ``to`` has passed
        self._gaps: deque[tuple[float, float]] = deque()
        if sim.obs is not None:
            sim.obs.register_resource(self)

    @property
    def free_at(self) -> float:
        return self._free_at

    @property
    def queue_depth(self) -> int:
        """Reserved flows that have not started by ``sim.now``."""
        return sum(1 for t in self._pending_starts if t > self.sim.now)

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of ``[0, elapsed)`` occupied by flow service.

        Reservations that run past ``elapsed`` are clipped to it: the
        occupancy after ``elapsed`` is the span up to ``free_at`` less
        the idle gaps inside that span.  The clip is exact for any
        ``elapsed >= sim.now`` (the default, and what every report
        passes); an earlier ``elapsed`` can miss gaps already pruned.
        """
        window = self.sim.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        beyond = self._free_at - window
        if beyond > 0.0:
            idle = 0.0
            for gap_from, gap_to in self._gaps:
                if gap_to > window:
                    idle += gap_to - (gap_from if gap_from > window else window)
            busy = self.busy_time - (beyond - idle)
        else:
            busy = self.busy_time
        return max(0.0, busy / window)


class Flow(NamedTuple):
    """One completed (or in-flight) transfer's routing record."""

    src: Endpoint
    dst: Endpoint
    nbytes: float
    start: float
    done: float
    path: tuple[str, ...]  # resource names traversed
    tag: str = ""
    #: seconds the flow waited for its path (start - submission time),
    #: so per-subsystem queueing can be re-aggregated by tag
    wait: float = 0.0


#: (path, latency, path names, bottleneck rate) of one endpoint pair
_Route = tuple[list[SharedLink], float, tuple[str, ...], float]


class Fabric:
    """Shared network resources of one cluster, plus flow routing.

    >>> from repro.cluster.catalog import paper_cluster
    >>> from repro.sim.engine import Simulator
    >>> sim = Simulator()
    >>> fabric = Fabric(sim, paper_cluster("VR"))
    >>> done = []
    >>> _ = fabric.transfer_gpus(0, 4, 1e6, lambda: done.append(sim.now))
    >>> sim.run()
    >>> len(done)
    1
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        spec: FabricSpec = DEFAULT_FABRIC_SPEC,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.spec = spec
        ic = cluster.interconnect
        self.pcie_lane: dict[int, SharedLink] = {
            gpu.gpu_id: SharedLink(
                sim, ic.pcie_effective * spec.pcie_lane_scale,
                f"pcie.gpu{gpu.gpu_id}", "pcie_lane",
            )
            for gpu in cluster.gpus
        }
        self.host_lane: dict[int, SharedLink] = {
            node.node_id: SharedLink(
                sim, ic.pcie_effective * spec.pcie_lane_scale,
                f"host.n{node.node_id}", "host_lane",
            )
            for node in cluster.nodes
        }
        self.pcie_switch: dict[int, SharedLink] = {
            node.node_id: SharedLink(
                sim, ic.pcie_effective * spec.pcie_switch_scale,
                f"pcie.switch.n{node.node_id}", "pcie_switch",
            )
            for node in cluster.nodes
        }
        self.nic: dict[int, SharedLink] = {
            node.node_id: SharedLink(
                sim, ic.ib_effective * spec.nic_scale,
                f"nic.n{node.node_id}", "nic",
            )
            for node in cluster.nodes
        }
        ib_scale = (
            spec.ib_fabric_scale
            if spec.ib_fabric_scale is not None
            else max(1.0, len(cluster.nodes) / 2.0)
        )
        self.ib_fabric = SharedLink(
            sim, ic.ib_effective * ib_scale, "ib.fabric", "ib_fabric"
        )
        #: fault-injection state: link degradation scales the bottleneck
        #: rate of subsequent flows (1.0 = healthy fabric; the memoized
        #: routes stay valid because the scale applies after lookup)
        self.rate_scale = 1.0
        self.flows: list[Flow] = []
        #: total time flows spent waiting for their path, counted once
        #: per flow (the per-link ``queue_delay_total`` counters instead
        #: *attribute* waits to resources, for congestion ranking, and
        #: sum to more than this when paths share several hops)
        self.queue_delay_total = 0.0
        #: (src, dst) -> (path, latency, path names, bottleneck rate):
        #: the topology is static, so a flow stream's multi-hop path is
        #: computed once and replayed for every subsequent transfer
        #: instead of being rebuilt per flow
        self._routes: dict[tuple[Endpoint, Endpoint], _Route] = {}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def links(self) -> list[SharedLink]:
        """Every shared resource, in a stable report order."""
        out = list(self.pcie_lane.values())
        out.extend(self.host_lane.values())
        out.extend(self.pcie_switch.values())
        out.extend(self.nic.values())
        out.append(self.ib_fabric)
        return out

    def _endpoint_lane(self, ep: Endpoint) -> SharedLink:
        if ep.gpu_id is not None:
            return self.pcie_lane[ep.gpu_id]
        return self.host_lane[ep.node_id]

    def route(self, src: Endpoint, dst: Endpoint) -> tuple[list[SharedLink], float]:
        """``(resources traversed, end-to-end latency)`` for src -> dst.

        Routes are memoized per endpoint pair (the fabric is static);
        callers must treat the returned path as read-only.
        """
        return self._route_entry(src, dst)[:2]

    def _route_entry(self, src: Endpoint, dst: Endpoint) -> _Route:
        cached = self._routes.get((src, dst))
        if cached is not None:
            return cached
        path, latency = self._compute_route(src, dst)
        entry = (
            path,
            latency,
            tuple(link.name for link in path),
            min(link.bandwidth for link in path),
        )
        self._routes[(src, dst)] = entry
        return entry

    def _compute_route(self, src: Endpoint, dst: Endpoint) -> tuple[list[SharedLink], float]:
        ic = self.cluster.interconnect
        path: list[SharedLink] = [self._endpoint_lane(src), self.pcie_switch[src.node_id]]
        if src.node_id == dst.node_id:
            latency = ic.pcie_latency
        else:
            path.append(self.nic[src.node_id])
            path.append(self.ib_fabric)
            path.append(self.nic[dst.node_id])
            path.append(self.pcie_switch[dst.node_id])
            latency = ic.ib_latency
        path.append(self._endpoint_lane(dst))
        # A resource appears once per flow even when both endpoints share
        # it (same-node host->host shares one host lane; the flow still
        # serializes with the node's other traffic through lane+switch).
        return list(dict.fromkeys(path)), latency

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------

    def transfer(
        self,
        src: Endpoint,
        dst: Endpoint,
        nbytes: float,
        on_complete: Callback | None = None,
        tag: str = "",
        rate_cap: float | None = None,
    ) -> float:
        """Route one flow; returns its (absolute) completion time.

        The flow starts when every resource on its path is free, runs at
        the path bottleneck rate, and charges its full occupancy and
        byte count to each traversed resource.  ``rate_cap`` bounds the
        flow's rate below the path bottleneck — used when the *sender*
        is the slow party (e.g. the calibrated achieved rate of a
        software allreduce stack), so shared-mode service is never
        faster than the calibrated dedicated model it replaces.

        This is the entry point for one-off flows; a stream that sends
        repeatedly between the same endpoints binds its route once
        through :class:`FabricEdge`.
        """
        if rate_cap is not None and rate_cap <= 0:
            raise SimulationError(f"fabric: rate_cap must be positive, got {rate_cap}")
        return self._reserve(
            self._bind(src, dst), src, dst, nbytes, on_complete, tag, rate_cap
        )

    def _bind(self, src: Endpoint, dst: Endpoint) -> _Route | None:
        """The route entry a src -> dst stream sends over, or None for a
        same-device stream (a no-op, as in the dedicated model, where
        ``InterconnectSpec.transfer_time`` returns 0.0)."""
        if src == dst and src.gpu_id is not None:
            return None
        return self._route_entry(src, dst)

    def _reserve(
        self,
        route: _Route | None,
        src: Endpoint,
        dst: Endpoint,
        nbytes: float,
        on_complete: Callback | None,
        tag: str,
        rate_cap: float | None = None,
    ) -> float:
        """Book one flow over a bound ``route``: the single write path of
        every link's counters."""
        if nbytes < 0:
            raise SimulationError(f"fabric: negative transfer size {nbytes}")
        sim = self.sim
        now = sim.now
        if route is None:
            if on_complete is not None:
                sim.schedule_at(now, on_complete)
            return now
        path, latency, path_names, bottleneck = route
        if self.rate_scale != 1.0:
            bottleneck *= self.rate_scale
        if rate_cap is not None:
            bottleneck = min(bottleneck, rate_cap)
        occupy = nbytes / bottleneck
        start = now
        for link in path:
            if link._free_at > start:
                start = link._free_at
        end = start + occupy
        queued = start > now
        obs = sim.obs
        for link in path:
            free_at = link._free_at
            if start < free_at - 1e-12:
                # Only a path that lists a resource twice gets here: its
                # second hop would double-book the first hop's interval.
                raise InvariantViolation(
                    f"{link.name}: overlapping reservation at t={start} "
                    f"(free at {free_at})"
                )
            if free_at > now:
                link.queue_delay_total += free_at - now
            pending = link._pending_starts
            while pending and pending[0] <= now:
                pending.popleft()
            if queued:
                pending.append(start)
                if len(pending) > link.max_queue_depth:
                    link.max_queue_depth = len(pending)
                if start > free_at:
                    # the link idles until the flow's start while another
                    # hop holds the flow back
                    gaps = link._gaps
                    while gaps and gaps[0][1] <= now:
                        gaps.popleft()
                    gaps.append((free_at, start))
            link._free_at = end
            link.busy_time += occupy
            link.bytes_moved += nbytes
            if obs is not None:
                obs.channel_span(link.name, start, end, nbytes)
        self.queue_delay_total += start - now
        done = end + latency
        self.flows.append(
            Flow(src, dst, nbytes, start, done, path_names, tag, start - now)
        )
        if on_complete is not None:
            sim.schedule_at(done, on_complete)
        return done

    def transfer_gpus(
        self, src_gpu: int, dst_gpu: int, nbytes: float,
        on_complete: Callback | None = None, tag: str = "",
    ) -> float:
        """GPU-to-GPU convenience wrapper over :meth:`transfer`."""
        src = self.cluster.gpu(src_gpu)
        dst = self.cluster.gpu(dst_gpu)
        return self.transfer(Endpoint.gpu(src), Endpoint.gpu(dst), nbytes, on_complete, tag)

    def edge(self, src: Endpoint, dst: Endpoint, name: str) -> "FabricEdge":
        """A Channel-compatible view of one (src, dst) flow stream."""
        return FabricEdge(self, src, dst, name)

    # ------------------------------------------------------------------
    # accounting / verification
    # ------------------------------------------------------------------

    def queue_stats(self) -> tuple[float, int]:
        """``(total queueing delay, peak queue depth)``.

        Delay counts each flow's wait exactly once (comparable with the
        dedicated model's per-channel accounting); depth is the deepest
        any single resource's wait queue ever got.
        """
        depth = max((link.max_queue_depth for link in self.links()), default=0)
        return self.queue_delay_total, depth

    def tagged_queue_stats(self, prefix: str) -> tuple[float, int]:
        """``(total queueing delay, peak queue depth)`` attributed to the
        flows whose ``tag`` starts with ``prefix``.

        Delay counts each matching flow's own wait once; depth is the
        peak number of matching flows waiting *simultaneously* (interval
        sweep over their [submission, start) windows).  This is how PS
        queueing stays observable in fabric mode, where the per-link
        counters mix every subsystem's traffic.
        """
        total = 0.0
        events: list[tuple[float, int]] = []
        for flow in self.flows:
            if not flow.tag.startswith(prefix):
                continue
            total += flow.wait
            if flow.wait > 0.0:
                events.append((flow.start - flow.wait, 1))
                events.append((flow.start, -1))
        events.sort()
        depth = peak = 0
        for _, delta in events:
            depth += delta
            peak = max(peak, depth)
        return total, peak

    def verify(self, elapsed: float | None = None) -> None:
        """Check flow conservation and per-resource occupancy laws.

        * bytes in == bytes out: the sum of ``nbytes`` over the flows
          traversing a resource equals the resource's own byte counter;
        * every byte that entered the fabric is attributed to a path
          (no orphaned resource traffic);
        * occupancy never exceeds wall time (utilization <= 1).

        Raises :class:`~repro.errors.InvariantViolation` on the first
        inconsistency.
        """
        window = self.sim.now if elapsed is None else elapsed
        recomputed: dict[str, float] = {}
        for flow in self.flows:
            for name in flow.path:
                recomputed[name] = recomputed.get(name, 0.0) + flow.nbytes
        for link in self.links():
            expected = recomputed.get(link.name, 0.0)
            if abs(expected - link.bytes_moved) > 1e-6 * max(1.0, expected):
                raise InvariantViolation(
                    f"fabric: {link.name} carried {link.bytes_moved:.0f} bytes but "
                    f"flows account for {expected:.0f} (conservation)"
                )
            if window > 0 and link.utilization(window) > 1.0 + 1e-9:
                raise InvariantViolation(
                    f"fabric: {link.name} utilization "
                    f"{link.utilization(window):.6f} > 1 over {window:.6f}s"
                )


class FabricEdge:
    """Channel-compatible adapter: one (src, dst) stream over the fabric.

    Lets the pipeline engines keep their per-edge bookkeeping
    (``bytes_moved`` feeds cross-node traffic accounting; queue stats
    feed the metrics layer) while the actual capacity is shared.

    The stream binds its route when it is built: every transfer books
    the bound path directly, with no endpoint hashing or route lookup
    per flow.  A same-GPU stream binds no route and stays a no-op.
    """

    def __init__(self, fabric: Fabric, src: Endpoint, dst: Endpoint, name: str) -> None:
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.name = name
        self.bytes_moved = 0.0
        self.transfers_completed = 0
        self._route = fabric._bind(src, dst)

    def transfer(self, nbytes: float, on_complete: Callback | None = None) -> float:
        self.bytes_moved += nbytes
        self.transfers_completed += 1
        return self.fabric._reserve(
            self._route, self.src, self.dst, nbytes, on_complete, self.name
        )


def utilization_report(
    fabric: Fabric, elapsed: float | None = None, top: int | None = None
) -> list[tuple[str, str, float, float, float, int]]:
    """Rows of ``(name, kind, util, GiB moved, queue delay s, peak depth)``
    most-utilized first (all resources, or the ``top`` busiest) — the
    ``repro netsim`` subcommand renders this table."""
    rows = []
    for link in fabric.links():
        rows.append(
            (
                link.name,
                link.kind,
                link.utilization(elapsed),
                link.bytes_moved / 2**30,
                link.queue_delay_total,
                link.max_queue_depth,
            )
        )
    rows.sort(key=lambda r: r[2], reverse=True)
    return rows if top is None else rows[:top]
