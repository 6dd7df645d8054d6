"""Spec -> built objects: the bridge from :class:`RunSpec` to the system.

:func:`build_plans` is the one place a deployment is built: the cluster,
the model graph, and one partition plan per virtual worker, resolving
every open-ended name (model builder, calibration, interconnect profile,
planner) through :mod:`repro.api.registry`.  It is memoized on exactly
the inputs planning reads, so every run that shares a deployment — a
fuzz seed's Nm descent, its main run and twins, a sweep over fidelity,
seeds or windows — shares one set of (immutable) built objects.

:func:`build_scenario` is its entry point for a scenario-kind
:class:`RunSpec` and returns the built :class:`Deployment` as is: the
runner reads every knob from the RunSpec itself, so no second spec view
travels with the objects.  The fuzz generator's Nm descent
(:func:`~repro.scenarios.generator.materialize`) calls
:func:`build_plans` directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from repro.api.registry import CALIBRATIONS, MODELS, PLANNERS, PROFILES
from repro.api.spec import ClusterSpec, ModelSpec, RunSpec
from repro.errors import PartitionError, SpecError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Cluster
    from repro.models.graph import ModelGraph
    from repro.partition import PartitionPlan


class Deployment(NamedTuple):
    """The built objects of one deployment (shared and immutable)."""

    cluster: Cluster
    model: ModelGraph
    plans: tuple[PartitionPlan, ...]


def build_cluster(spec: ClusterSpec):
    """The :class:`~repro.cluster.topology.Cluster` a cluster spec names."""
    from repro.cluster.catalog import paper_cluster

    return paper_cluster(
        node_codes=spec.node_codes,
        gpus_per_node=spec.gpus_per_node,
        interconnect=PROFILES.get(spec.profile),
    )


def build_model(spec: ModelSpec):
    """The :class:`~repro.models.graph.ModelGraph` a model spec names."""
    if spec.is_synthetic:
        from repro.scenarios.generator import build_fuzz_model

        return build_fuzz_model(
            spec.name, spec.batch_size, spec.image_size,
            spec.conv_widths, spec.fc_dims,
        )
    return MODELS.get(spec.name)()


@lru_cache(maxsize=128)
def build_plans(
    cluster_spec: ClusterSpec,
    model_spec: ModelSpec,
    calibration: str,
    allocation: str,
    nm: int,
    planner: str,
    placement: str,
    memory_variant: str | None,
):
    """The :class:`Deployment` of one configuration — the one build path.

    The arguments are exactly what planning reads: ``placement`` gates
    :func:`~repro.wsp.placement.validate_local_placement`, and
    ``memory_variant`` names the variant whose weight-version accounting
    memory-limited planning charges (``None`` keeps the historical
    per-minibatch stash).  Seed, staleness bound, windows, push cadence,
    jitter, network model, shards, fidelity, oracles and faults play no
    part, so runs differing only in those share one cache entry.  Call
    it positionally: the cache keys on the argument tuple as passed.

    Raises :class:`~repro.errors.UnknownNameError` for unresolvable
    names and :class:`~repro.errors.PartitionError` for infeasible
    deployments (not cached — a retry re-plans).
    """
    from repro.allocation import allocate
    from repro.models.profiler import Profiler
    from repro.wsp.placement import validate_local_placement

    cluster = build_cluster(cluster_spec)
    model = build_model(model_spec)
    calib = CALIBRATIONS.get(calibration)()
    plan = PLANNERS.get(planner)
    if memory_variant is None:
        weight_policy = "stash_per_minibatch"
    else:
        from repro.pipeline.variants import get_variant

        weight_policy = get_variant(memory_variant).weight_policy
    profiler = Profiler(calib)
    plans = tuple(
        plan(
            model, vw, nm, cluster.interconnect, calib, profiler,
            weight_policy=weight_policy,
        )
        for vw in allocate(cluster, allocation).virtual_workers
    )
    if placement == "local":
        validate_local_placement(plans)
    return Deployment(cluster, model, plans)


def build_scenario(run: RunSpec) -> Deployment:
    """Cluster + model + per-VW plans for a scenario-kind ``run``.

    Deterministic and memoized through :func:`build_plans`; the same
    deployment always yields identical (shared, immutable) objects.
    Raises :class:`~repro.errors.UnknownNameError` for unresolvable
    names and :class:`~repro.errors.PartitionError` for infeasible
    deployments (a :class:`~repro.errors.SpecError` naming the ways out
    for memory-limited ones).
    """
    if run.kind != "scenario":
        raise SpecError(f"expected a scenario spec, got kind={run.kind!r}")
    pipeline = run.pipeline
    if pipeline.nm is None:
        raise SpecError("a scenario run needs a concrete pipeline.nm")
    try:
        return build_plans(
            run.cluster, run.model, run.calibration, pipeline.allocation,
            pipeline.nm, pipeline.planner, pipeline.placement,
            pipeline.variant if pipeline.memory_limited else None,
        )
    except PartitionError as exc:
        if pipeline.memory_limited:
            raise _memory_limited_error(run, exc) from exc
        raise


def _memory_limited_error(run: RunSpec, exc: PartitionError) -> SpecError:
    """Actionable rejection for an infeasible memory-limited point."""
    from repro.pipeline.variants import get_variant

    policy = get_variant(run.pipeline.variant).weight_policy
    return SpecError(
        f"pipeline.memory_limited: variant {run.pipeline.variant!r} "
        f"(weight policy {policy!r}) has no feasible partition at "
        f"Nm={run.pipeline.nm} on cluster "
        f"{run.cluster.node_codes}x{run.cluster.gpus_per_node} — the "
        f"analytic per-GPU memory bound exceeds capacity on every split. "
        f"Lower pipeline.nm, switch to a lighter weight-version policy "
        f"(pipedream_2bw or xpipe), or set pipeline.memory_limited=false "
        f"to keep the historical accounting.  [{exc}]"
    )


def build_calibration(name: str):
    """The :class:`~repro.models.calibration.Calibration` ``name`` maps to."""
    return CALIBRATIONS.get(name)()
