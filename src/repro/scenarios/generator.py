"""Seeded scenario generation for the fuzz harness.

A *scenario* is one complete HetPipe deployment: a heterogeneous cluster
drawn from the GPU catalog, a synthetic model chain, an allocation
policy, partition plans from the real planner, and the WSP knobs the
paper sweeps (``D``, ``Nm``, parameter placement, task jitter, and the
per-minibatch-push ablation).  Generation is driven entirely by one
``random.Random(seed)`` stream, so a seed fully determines the scenario
and — because the simulator itself is deterministic — the entire run,
down to the trace digest.

A :class:`ScenarioSpec` holds exactly the knobs a seed draws;
:func:`materialize` builds one through the one memoized
:func:`repro.api.build.build_plans` during the feasibility repair, and
:meth:`ScenarioSpec.to_run_spec` lifts the final draw into the typed
:class:`~repro.api.spec.RunSpec` — the only description the runner
reads, and the form a failing seed is replayed from bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.api.build import build_plans
from repro.api.spec import ClusterSpec, ModelSpec, PipelineSpec, RunSpec
from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError, PartitionError
from repro.netsim.fabric import FabricSpec
from repro.models.graph import ModelGraph, validate_chain
from repro.models.layers import conv_unit, fc_unit, pool_unit
from repro.partition import PartitionPlan
from repro.units import BYTES_PER_PARAM
from repro.wsp.placement import validate_local_placement

#: GPU catalog codes scenarios draw node types from (Table 1).
GPU_CODES = "VRGQ"

#: How many deterministic shrink steps may be applied to an infeasible
#: model before generation gives up (never reached in practice — the
#: size caps below fit the smallest catalog GPU at Nm=1).
MAX_SHRINK_STEPS = 4


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully-determined fuzz scenario (replayable value object)."""

    seed: int
    # cluster
    node_codes: str
    gpus_per_node: int
    allocation: str
    # model
    batch_size: int
    image_size: int
    conv_widths: tuple[int, ...]
    fc_dims: tuple[int, ...]
    # WSP knobs
    nm: int
    d: int
    placement: str
    jitter: float
    push_every_minibatch: bool
    # measurement window (global waves)
    warmup_waves: int
    measured_waves: int

    def _cluster_and_model(self) -> tuple[ClusterSpec, ModelSpec]:
        """The typed cluster and model sections this scenario builds
        from; the generator names every model ``fuzz<seed>``."""
        return (
            ClusterSpec(node_codes=self.node_codes, gpus_per_node=self.gpus_per_node),
            ModelSpec(
                name=f"fuzz{self.seed}",
                batch_size=self.batch_size,
                image_size=self.image_size,
                conv_widths=self.conv_widths,
                fc_dims=self.fc_dims,
            ),
        )

    def to_run_spec(self) -> RunSpec:
        """Lift this draw into the typed API's :class:`RunSpec`.

        The RunSpec is the only scenario description past the
        generator: the runner reads every knob from it, and a fuzz mode
        (network, fidelity, shards, variant, faults) is laid over it, so
        a seed's run — digest included — is fully described by it.
        """
        cluster, model = self._cluster_and_model()
        return RunSpec(
            kind="scenario",
            seed=self.seed,
            cluster=cluster,
            model=model,
            pipeline=PipelineSpec(
                nm=self.nm,
                d=self.d,
                allocation=self.allocation,
                placement=self.placement,
                push_every_minibatch=self.push_every_minibatch,
                jitter=self.jitter,
                warmup_waves=self.warmup_waves,
                measured_waves=self.measured_waves,
            ),
        )


def build_fuzz_model(
    name: str,
    batch_size: int,
    image_size: int,
    conv_widths: tuple[int, ...],
    fc_dims: tuple[int, ...],
) -> ModelGraph:
    """A synthetic conv->pool->fc chain sized by the spec's knobs.

    Shapes follow the VGG builder's idiom (conv stacks with pools every
    other unit, then a small FC head) but every dimension is a fuzz
    variable, so depth, width, activation volume, and parameter volume
    all vary independently across seeds.
    """
    layers = []
    h = image_size
    cin = 3
    for i, cout in enumerate(conv_widths):
        layers.append(
            conv_unit(f"conv{i}", batch_size, cin, cout, 3, h, h, with_bn=(i % 2 == 0))
        )
        cin = cout
        if i % 2 == 1 and h > 4:
            h //= 2
            layers.append(pool_unit(f"pool{i}", batch_size, cout, h, h))
    prev = cin * h * h
    for j, dim in enumerate(fc_dims):
        layers.append(fc_unit(f"fc{j}", batch_size, prev, dim, with_relu=True))
        prev = dim
    layers.append(fc_unit("logits", batch_size, prev, 10))
    validate_chain(layers)
    return ModelGraph(
        name=name,
        batch_size=batch_size,
        input_bytes=float(batch_size) * 3 * image_size * image_size * BYTES_PER_PARAM,
        layers=tuple(layers),
    )


@dataclass(frozen=True)
class Scenario:
    """A spec together with its materialized objects."""

    spec: ScenarioSpec
    cluster: Cluster
    model: ModelGraph
    plans: tuple[PartitionPlan, ...]


def materialize(spec: ScenarioSpec) -> Scenario:
    """Build the cluster, model, and partition plans a spec describes.

    Deterministic: the same spec always yields identical objects.
    Raises :class:`PartitionError` if the spec is infeasible (the
    generator never emits such a spec) and :class:`ConfigurationError`
    for internally-inconsistent specs.

    A thin adapter over :func:`repro.api.build.build_plans`, the one
    memoized build path: the fuzz flow builds the same deployment
    several times (the generator's Nm descent, the runner, its twins),
    and planning is the expensive part.  The built objects are
    immutable, so sharing them across runs is safe — every run
    constructs its own simulator, channels, and processors.
    """
    cluster, model, plans = build_plans(
        *spec._cluster_and_model(),
        "default", spec.allocation, spec.nm, "dp", spec.placement, None,
    )
    return Scenario(spec=spec, cluster=cluster, model=model, plans=plans)


def congested_fabric_spec(seed: int) -> FabricSpec:
    """A deterministically-drawn congested fabric for shared-mode fuzzing.

    Drawn from an rng stream *independent* of the scenario draw, so
    enabling the shared network never perturbs which scenario a seed
    maps to (dedicated digests stay bit-identical).  Scales at or below
    1.0 model oversubscribed lanes/NICs; every path's bottleneck stays
    at least as slow as the dedicated model, which is what the per-flow
    floor of :class:`~repro.sim.invariants.FabricOracle` relies on.
    """
    rng = random.Random(f"netsim-{seed}")
    return FabricSpec(
        pcie_lane_scale=rng.choice([0.5, 0.75, 1.0]),
        pcie_switch_scale=rng.choice([1.0, 1.5, 2.0]),
        nic_scale=rng.choice([0.25, 0.5, 1.0]),
        ib_fabric_scale=rng.choice([None, 0.5, 1.0]),
    )


def _draw_candidate(rng: random.Random, seed: int) -> ScenarioSpec:
    """One unconstrained draw; feasibility is resolved by the caller."""
    num_nodes = rng.randint(1, 3)
    node_codes = "".join(rng.choice(GPU_CODES) for _ in range(num_nodes))
    gpus_per_node = rng.randint(1, 4)

    policies = ["NP", "ED"]
    if num_nodes >= 2 and num_nodes % 2 == 0 and gpus_per_node >= 4:
        policies.append("HD")
    allocation = rng.choice(policies)

    depth = rng.randint(4, 10)
    base = rng.choice([8, 16, 24, 32])
    conv_widths = tuple(min(96, base * (1 + i // 2)) for i in range(depth))
    fc_dims = tuple(rng.choice([64, 128, 256]) for _ in range(rng.randint(1, 3)))

    d = rng.randint(0, 4)
    return ScenarioSpec(
        seed=seed,
        node_codes=node_codes,
        gpus_per_node=gpus_per_node,
        allocation=allocation,
        batch_size=rng.choice([8, 16, 32]),
        image_size=rng.choice([16, 24, 32]),
        conv_widths=conv_widths,
        fc_dims=fc_dims,
        nm=rng.randint(1, 4),
        d=d,
        placement="default",  # revisited after planning
        jitter=rng.choice([0.0, 0.0, 0.05, 0.1, 0.2]),
        push_every_minibatch=(rng.random() < 0.15),
        warmup_waves=2,
        measured_waves=d + 3 + rng.randint(0, 2),
    )


def draw_scenario_spec(seed: int) -> ScenarioSpec:
    """The seed's first draw, before any feasibility repair."""
    return _draw_candidate(random.Random(seed), seed)


def _shrunk(spec: ScenarioSpec) -> ScenarioSpec:
    """Deterministically halve the model so it fits smaller GPU sets."""
    return replace(
        spec,
        batch_size=max(4, spec.batch_size // 2),
        conv_widths=tuple(max(8, w // 2) for w in spec.conv_widths),
        fc_dims=tuple(max(32, f // 2) for f in spec.fc_dims),
    )


def generate_run_spec(seed: int) -> RunSpec:
    """The typed :class:`~repro.api.spec.RunSpec` for ``seed``: the
    draw of :func:`generate_scenario`, lifted once — serializable,
    hashable (``spec_hash``), and runnable via ``repro run``.
    """
    return generate_scenario(seed).spec.to_run_spec()


def generate_scenario(seed: int) -> Scenario:
    """The scenario for ``seed`` — same seed, same scenario, always.

    Drawn parameters that turn out infeasible are repaired
    deterministically: ``Nm`` steps down to the largest depth every
    virtual worker can plan, the model shrinks if even ``Nm = 1`` does
    not fit, and the 'local' placement is only kept when the §8.3
    precondition (stage ``s`` on one node across all workers) holds.
    """
    rng = random.Random(seed)
    spec = _draw_candidate(rng, seed)
    wants_local = rng.random() < 0.5

    for _ in range(MAX_SHRINK_STEPS + 1):
        for nm in range(spec.nm, 0, -1):
            try:
                scenario = materialize(replace(spec, nm=nm))
            except PartitionError:
                continue
            if wants_local:
                try:
                    validate_local_placement(scenario.plans)
                    return materialize(replace(spec, nm=nm, placement="local"))
                except ConfigurationError:
                    pass
            return scenario
        spec = _shrunk(spec)
    raise ConfigurationError(
        f"seed {seed}: no feasible scenario after {MAX_SHRINK_STEPS} shrink steps"
    )
