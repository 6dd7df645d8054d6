"""High-level partition planner.

Glues the pieces together: for a virtual worker's GPU set and a pipeline
depth ``Nm``, search GPU orderings, solve each with the exact DP, and
return the :class:`~repro.partition.spec.PartitionPlan` with the smallest
bottleneck period (ties broken by serial latency, then by ordering
signature for determinism).  Also computes ``Maxm``, the largest
memory-feasible ``Nm`` for a virtual worker (§4).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from repro.cluster.gpu import GPUDevice
from repro.cluster.topology import InterconnectSpec
from repro.errors import PartitionError
from repro.models.calibration import Calibration, DEFAULT_CALIBRATION
from repro.models.graph import ModelGraph
from repro.models.memory import DEFAULT_WEIGHT_POLICY
from repro.models.profiler import Profiler
from repro.partition.dp_solver import (
    StageEvaluator,
    clear_stage_tables,
    solve_boundaries,
)
from repro.partition.ordering import candidate_orderings, ordering_signature
from repro.partition.spec import PartitionPlan, Stage

#: Entries kept in the boundaries cache before the least recently used
#: one is evicted.  A fuzz batch redraws many equal virtual workers (ED
#: hands every worker the same GPU mix) and the experiments re-plan the
#: same (model, ordering, Nm) in ``max_feasible_nm`` and again in
#: ``choose_nm``; a couple thousand entries covers both comfortably.
_PLAN_CACHE_MAX = 2048

_boundary_cache: "OrderedDict[tuple, list[int] | None]" = OrderedDict()
_plan_cache_hits = 0
_plan_cache_misses = 0


def _plan_cache_key(
    model: ModelGraph,
    ordering: Sequence[GPUDevice],
    nm: int,
    interconnect: InterconnectSpec,
    calibration: Calibration,
    weight_policy: str,
) -> tuple:
    """Everything :func:`solve_boundaries` can observe, by value.

    Stage costs depend on the GPU *types* in order, whether adjacent
    GPUs share a node (or are the same device), the model content, the
    depth, the link/calibration constants, and the variant's
    weight-version accounting policy (it moves the memory-feasibility
    frontier) — not on device ids.  Two virtual workers with the same
    signature therefore share boundaries (ED allocations produce N
    identical workers), and a re-planned worker hits even though
    ``materialize`` rebuilt the model object.
    """
    adjacency = tuple(
        (a.gpu_id == b.gpu_id, a.same_node(b)) for a, b in zip(ordering, ordering[1:])
    )
    specs = tuple(gpu.spec for gpu in ordering)
    return (model, nm, specs, adjacency, interconnect, calibration, weight_policy)


def _solve_cached(evaluator: StageEvaluator, key: tuple) -> list[int] | None:
    global _plan_cache_hits, _plan_cache_misses
    cached = _boundary_cache.get(key)
    if cached is not None or key in _boundary_cache:
        _boundary_cache.move_to_end(key)
        _plan_cache_hits += 1
        return cached
    _plan_cache_misses += 1
    boundaries = solve_boundaries(evaluator)
    _boundary_cache[key] = boundaries
    if len(_boundary_cache) > _PLAN_CACHE_MAX:
        _boundary_cache.popitem(last=False)
    return boundaries


def plan_cache_stats() -> tuple[int, int, int]:
    """``(hits, misses, entries)`` of the boundaries cache (diagnostics)."""
    return _plan_cache_hits, _plan_cache_misses, len(_boundary_cache)


def clear_plan_cache() -> None:
    """Drop all memoized boundaries and the solver's per-model tables
    (tests and benchmarks use this to compare cached against fresh
    solves and to start cold)."""
    global _plan_cache_hits, _plan_cache_misses
    _boundary_cache.clear()
    clear_stage_tables()
    _plan_cache_hits = 0
    _plan_cache_misses = 0


def _plan_from_boundaries(
    evaluator: StageEvaluator, boundaries: list[int], nm: int, model: ModelGraph
) -> PartitionPlan:
    stages = []
    for s in range(evaluator.k):
        start, stop = boundaries[s], boundaries[s + 1]
        ev = evaluator.evaluate(start, stop, s)
        stages.append(
            Stage(
                index=s,
                start=start,
                stop=stop,
                gpu=evaluator.gpus[s],
                fwd_compute=ev.fwd_compute,
                bwd_compute=ev.bwd_compute,
                fwd_comm_in=ev.fwd_comm_in,
                bwd_comm_in=ev.bwd_comm_in,
                memory_bytes=ev.memory_bytes,
                in_flight=evaluator.in_flight(s),
                param_bytes=model.slice_params(start, stop),
                activation_in_bytes=model.boundary_bytes(start - 1) if s > 0 else model.input_bytes,
            )
        )
    return PartitionPlan(model_name=model.name, nm=nm, stages=tuple(stages))


def plan_virtual_worker(
    model: ModelGraph,
    gpus: Sequence[GPUDevice],
    nm: int,
    interconnect: InterconnectSpec,
    calibration: Calibration = DEFAULT_CALIBRATION,
    profiler: Profiler | None = None,
    search_orderings: bool = True,
    weight_policy: str = DEFAULT_WEIGHT_POLICY,
) -> PartitionPlan:
    """Best partition plan for one virtual worker at pipeline depth ``nm``.

    ``weight_policy`` selects the pipeline variant's weight-version
    memory accounting for the per-stage feasibility pruning (the
    default is HetPipe's §4 accounting, bit-identical to the historical
    planner).  Raises :class:`PartitionError` when no ordering admits a
    feasible plan (the model cannot be trained on this virtual worker
    at ``nm`` under that accounting).
    """
    if not gpus:
        raise PartitionError("virtual worker has no GPUs")
    profiler = profiler or Profiler(calibration)

    orderings = candidate_orderings(gpus) if search_orderings else iter([tuple(gpus)])
    # The cache key captures a plain Profiler's inputs (model, GPU
    # specs, calibration) but cannot see into a custom profiler
    # subclass (e.g. one replaying measured costs), so those bypass
    # memoization rather than risk serving another profiler's plan.
    cacheable = type(profiler) is Profiler
    best: tuple[float, float, tuple, PartitionPlan] | None = None
    for ordering in orderings:
        evaluator = StageEvaluator(
            model, ordering, nm, interconnect, calibration, profiler,
            weight_policy=weight_policy,
        )
        if cacheable:
            key = _plan_cache_key(
                model, ordering, nm, interconnect, calibration, weight_policy
            )
            boundaries = _solve_cached(evaluator, key)
        else:
            boundaries = solve_boundaries(evaluator)
        if boundaries is None:
            continue
        plan = _plan_from_boundaries(evaluator, boundaries, nm, model)
        key = (plan.bottleneck_period, plan.serial_latency, ordering_signature(ordering))
        if best is None or key < best[:3]:
            best = (*key, plan)
    if best is None:
        raise PartitionError(
            f"no feasible partition of {model.name} across "
            f"[{', '.join(str(g) for g in gpus)}] at Nm={nm}"
        )
    return best[3]


def plan_virtual_worker_bnb(
    model: ModelGraph,
    gpus: Sequence[GPUDevice],
    nm: int,
    interconnect: InterconnectSpec,
    calibration: Calibration = DEFAULT_CALIBRATION,
    profiler: Profiler | None = None,
    weight_policy: str = DEFAULT_WEIGHT_POLICY,
) -> PartitionPlan:
    """Partition plan from the branch-and-bound cross-check solver.

    Natural GPU order only (the B&B exists to cross-check the DP, and
    the registry exposes it as the ``"bnb"`` planner so sweeps can
    compare solvers on identical orderings).  Produces the same
    bottleneck period as the DP on every feasible input — the planner
    sweep's built-in differential check.
    """
    if not gpus:
        raise PartitionError("virtual worker has no GPUs")
    from repro.partition.bnb import solve_bnb

    profiler = profiler or Profiler(calibration)
    evaluator = StageEvaluator(
        model, tuple(gpus), nm, interconnect, calibration, profiler,
        weight_policy=weight_policy,
    )
    boundaries, _ = solve_bnb(evaluator)
    if boundaries is None:
        raise PartitionError(
            f"no feasible partition of {model.name} across "
            f"[{', '.join(str(g) for g in gpus)}] at Nm={nm} (bnb)"
        )
    return _plan_from_boundaries(evaluator, boundaries, nm, model)


def max_feasible_nm(
    model: ModelGraph,
    gpus: Sequence[GPUDevice],
    interconnect: InterconnectSpec,
    calibration: Calibration = DEFAULT_CALIBRATION,
    profiler: Profiler | None = None,
    limit: int = 8,
    search_orderings: bool = True,
    weight_policy: str = DEFAULT_WEIGHT_POLICY,
) -> int:
    """``Maxm`` (§4): the largest pipeline depth with a feasible plan.

    Returns 0 when the model does not fit the virtual worker at all.
    Feasibility is monotone in ``Nm`` (more in-flight minibatches only
    add memory under every weight policy), so a linear scan with early
    exit is exact.  Pass the same ``search_orderings`` the subsequent
    planning will use — feasibility depends on the GPU order.
    """
    profiler = profiler or Profiler(calibration)
    feasible = 0
    for nm in range(1, limit + 1):
        try:
            plan_virtual_worker(
                model, gpus, nm, interconnect, calibration, profiler,
                search_orderings=search_orderings, weight_policy=weight_policy,
            )
        except PartitionError:
            break
        feasible = nm
    return feasible
