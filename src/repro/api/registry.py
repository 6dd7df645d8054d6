"""Named registries: the one place strings resolve to factories.

Every open-ended axis of the design space — workload models, cluster
presets, calibrations, interconnect profiles, invariant-oracle suites,
partition planners, and the paper experiments — used to be a private
``dict`` lookup somewhere (``experiments.common.MODELS``,
``cluster.catalog.INTERCONNECT_PROFILES``, per-subcommand ``choices``
lists).  This module replaces that plumbing with typed
:class:`Registry` instances whose misses raise
:class:`repro.errors.UnknownNameError` listing the available names (the
CLI maps that to exit code 2).

Entries are lazy factories: looking a name up imports only what that
name needs, so ``repro fuzz`` startup — measured as ``setup_s`` by the
repo benchmark in ``bench/`` — stays free of NumPy and the experiment
harnesses.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Iterator, TypeVar

from repro.errors import UnknownNameError

T = TypeVar("T")


class Registry(Generic[T]):
    """An ordered name -> value mapping with actionable misses."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    def register(self, name: str, value: T) -> T:
        if name in self._entries:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = value
        return value

    def get(self, name: str) -> T:
        """The entry for ``name``; :class:`UnknownNameError` if absent."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, list(self._entries)) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Registry({self.kind!r}, {self.names()})"


# ----------------------------------------------------------------------
# models: name -> () -> ModelGraph
# ----------------------------------------------------------------------

MODELS: Registry[Callable[[], Any]] = Registry("model")


def _model_builder(attr: str) -> Callable[[], Any]:
    def build() -> Any:
        import repro.models as models

        return getattr(models, attr)()

    return build


for _name, _attr in (
    ("vgg16", "build_vgg16"),
    ("vgg19", "build_vgg19"),
    ("resnet50", "build_resnet50"),
    ("resnet101", "build_resnet101"),
    ("resnet152", "build_resnet152"),
):
    MODELS.register(_name, _model_builder(_attr))


# ----------------------------------------------------------------------
# clusters: name -> ClusterSpec preset
# ----------------------------------------------------------------------

def _cluster_presets() -> dict[str, Any]:
    from repro.api.spec import ClusterSpec

    return {
        # the §8.1 testbed and its Table-4 scaling subsets
        "paper": ClusterSpec(node_codes="VRGQ", gpus_per_node=4),
        "paper_v": ClusterSpec(node_codes="V", gpus_per_node=4),
        "paper_vr": ClusterSpec(node_codes="VR", gpus_per_node=4),
        "paper_vrq": ClusterSpec(node_codes="VRQ", gpus_per_node=4),
        "paper_vrqg": ClusterSpec(node_codes="VRQG", gpus_per_node=4),
    }


CLUSTERS: Registry[Any] = Registry("cluster preset")
for _name, _spec in _cluster_presets().items():
    CLUSTERS.register(_name, _spec)


# ----------------------------------------------------------------------
# calibrations: name -> () -> Calibration
# ----------------------------------------------------------------------

CALIBRATIONS: Registry[Callable[[], Any]] = Registry("calibration")


def _default_calibration() -> Any:
    from repro.models.calibration import DEFAULT_CALIBRATION

    return DEFAULT_CALIBRATION


def _recompute_calibration() -> Any:
    from repro.models.calibration import DEFAULT_CALIBRATION

    return DEFAULT_CALIBRATION.with_overrides(activation_recompute=True)


CALIBRATIONS.register("default", _default_calibration)
CALIBRATIONS.register("activation_recompute", _recompute_calibration)


# ----------------------------------------------------------------------
# interconnect profiles: name -> InterconnectSpec
# ----------------------------------------------------------------------

PROFILES: Registry[Any] = Registry("interconnect profile")


def _register_profiles() -> None:
    from repro.cluster.catalog import INTERCONNECT_PROFILES

    for name, spec in INTERCONNECT_PROFILES.items():
        PROFILES.register(name, spec)


_register_profiles()


# ----------------------------------------------------------------------
# oracle suites: name -> () -> list of RuntimeOracle
# ----------------------------------------------------------------------

ORACLES: Registry[Callable[[], Any]] = Registry("oracle suite")


def _oracles_default() -> Any:
    from repro.sim.invariants import default_oracles

    return default_oracles()


def _oracles_staleness() -> Any:
    from repro.sim.invariants import StalenessOracle

    return [StalenessOracle()]


def _oracles_none() -> Any:
    return []


def _oracles_faults() -> Any:
    from repro.sim.invariants import fault_oracles

    return fault_oracles()


ORACLES.register("default", _oracles_default)
ORACLES.register("staleness", _oracles_staleness)
ORACLES.register("none", _oracles_none)
ORACLES.register("faults", _oracles_faults)


# ----------------------------------------------------------------------
# pipeline variants: name -> () -> VariantDef
# ----------------------------------------------------------------------

VARIANTS: Registry[Callable[[], Any]] = Registry("pipeline variant")


def _variant_entry(name: str) -> Callable[[], Any]:
    def resolve() -> Any:
        from repro.pipeline.variants import get_variant

        return get_variant(name)

    return resolve


#: The pipeline-variant zoo (see :mod:`repro.pipeline.variants.defs` for
#: the semantics each entry pins down): "vw_hetpipe" is the paper's WSP
#: pipeline and the default everywhere; the others re-interpret the same
#: substrate under PipeDream / PipeDream-2BW / GPipe / XPipe weight
#: versioning and admission rules.
for _name in ("vw_hetpipe", "gpipe_flush", "pipedream", "pipedream_2bw", "xpipe"):
    VARIANTS.register(_name, _variant_entry(_name))


# ----------------------------------------------------------------------
# planners: name -> (model, gpus, nm, interconnect, calibration,
#                    profiler) -> PartitionPlan
# ----------------------------------------------------------------------

PLANNERS: Registry[Callable[..., Any]] = Registry("planner")


def _plan_dp(
    model, gpus, nm, interconnect, calibration, profiler,
    weight_policy: str = "stash_per_minibatch",
) -> Any:
    from repro.partition import plan_virtual_worker

    return plan_virtual_worker(
        model, gpus, nm, interconnect, calibration, profiler,
        search_orderings=False, weight_policy=weight_policy,
    )


def _plan_dp_ordered(
    model, gpus, nm, interconnect, calibration, profiler,
    weight_policy: str = "stash_per_minibatch",
) -> Any:
    from repro.partition import plan_virtual_worker

    return plan_virtual_worker(
        model, gpus, nm, interconnect, calibration, profiler,
        search_orderings=True, weight_policy=weight_policy,
    )


def _plan_bnb(
    model, gpus, nm, interconnect, calibration, profiler,
    weight_policy: str = "stash_per_minibatch",
) -> Any:
    from repro.partition import plan_virtual_worker_bnb

    return plan_virtual_worker_bnb(
        model, gpus, nm, interconnect, calibration, profiler,
        weight_policy=weight_policy,
    )


#: "dp" is the paper-faithful exact DP in natural GPU order — the
#: default everywhere; "dp_ordered" adds the GPU-ordering search (an
#: extension); "bnb" is the branch-and-bound cross-check solver.
PLANNERS.register("dp", _plan_dp)
PLANNERS.register("dp_ordered", _plan_dp_ordered)
PLANNERS.register("bnb", _plan_bnb)


# ----------------------------------------------------------------------
# placement policies: name -> (PlacementRequest) -> list[StagePlacement]
# ----------------------------------------------------------------------

PLACEMENTS: Registry[Callable[..., Any]] = Registry("placement policy")


def _placement_policy(attr: str) -> Callable[..., Any]:
    def resolve(request: Any) -> Any:
        import repro.wsp.placement as placement

        return getattr(placement, attr)(request)

    return resolve


#: "default"/"local" are the historical unsharded policies (shards=1
#: only); the other three place K > 1 shard slots per stage — see
#: :mod:`repro.wsp.placement` for the semantics of each.
for _name, _attr in (
    ("default", "_policy_default"),
    ("local", "_policy_local"),
    ("size_balanced", "_policy_size_balanced"),
    ("locality_aware", "_policy_locality_aware"),
    ("contention_aware", "_policy_contention_aware"),
):
    PLACEMENTS.register(_name, _placement_policy(_attr))


# ----------------------------------------------------------------------
# experiments: name -> (model_name, jobs) -> result with .render()
# ----------------------------------------------------------------------

EXPERIMENTS: Registry[Callable[..., Any]] = Registry("experiment")


def _exp_fig3(model: str, jobs: int | None) -> Any:
    from repro.experiments import run_fig3

    return run_fig3(model, jobs=jobs)


def _exp_fig4(model: str, jobs: int | None) -> Any:
    from repro.experiments import run_fig4

    return run_fig4(model, jobs=jobs)


def _exp_table4(model: str, jobs: int | None) -> Any:
    from repro.experiments import run_table4

    return run_table4(model, jobs=jobs)


def _exp_fig5(model: str, jobs: int | None) -> Any:
    from repro.experiments import run_fig5

    return run_fig5()


def _exp_fig6(model: str, jobs: int | None) -> Any:
    from repro.experiments import run_fig6

    return run_fig6()


def _exp_sync(model: str, jobs: int | None) -> Any:
    from repro.experiments import run_sync_overhead

    return run_sync_overhead(model)


def _exp_ablations(model: str, jobs: int | None) -> Any:
    from repro.experiments import run_ablations

    return run_ablations(model)


EXPERIMENTS.register("fig3", _exp_fig3)
EXPERIMENTS.register("fig4", _exp_fig4)
EXPERIMENTS.register("table4", _exp_table4)
EXPERIMENTS.register("fig5", _exp_fig5)
EXPERIMENTS.register("fig6", _exp_fig6)
EXPERIMENTS.register("sync", _exp_sync)
EXPERIMENTS.register("ablations", _exp_ablations)
