"""Exact min-max chain partitioning by dynamic programming.

For a fixed GPU ordering ``g_0 .. g_{k-1}`` and pipeline depth ``Nm``,
find boundaries ``0 = b_0 < b_1 < ... < b_k = L`` minimizing the maximum
stage *period* (fwd + bwd compute plus the §7 communication terms:
receiving the activation forward and the gradient backward), subject to
every stage fitting its GPU's memory at that stage's worst-case in-flight
minibatch count.

``dp[s][j]`` = best achievable (max period, total period) over the first
``s + 1`` stages covering layers ``[0, j)``; lexicographic minimization
makes the result deterministic and secondarily optimizes pipe latency.
The branch-and-bound in :mod:`repro.partition.bnb` cross-checks it.

Complexity: a solve scores O(k * L^2) candidate stages, each a handful
of reads from the tables :class:`StageEvaluator` describes, so it is
O(k * L^2) with no per-candidate allocation.  The tables cost O(L^3)
float additions once per model (the memory slice sums), O(L) transfer
times once per (model, link kind) and O(L^2) per memory table; L is at
most ~60 units for our models.

Memory terms are ``sum()`` over the layer slice, exactly as
:func:`~repro.models.memory.stage_memory_bytes` computes them, not
prefix-sum differences: from Python 3.12 ``sum()`` of floats is
compensated, so neither a running sum nor a difference of prefix sums
reproduces its bits.  The same ``sum(seq[i:j])`` call does on every
Python version, so feasibility decisions cannot drift from the memory
model.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.gpu import GPUDevice
from repro.cluster.topology import InterconnectSpec
from repro.models.calibration import Calibration, DEFAULT_CALIBRATION
from repro.models.graph import ModelGraph
from repro.models.memory import (
    DEFAULT_WEIGHT_POLICY,
    gpu_usable_bytes,
    in_flight_at_stage,
    weight_version_count,
)
from repro.models.profiler import ModelProfile, Profiler

_INF = float("inf")

#: Models whose tables are kept before the least recently used one is
#: dropped.  Planning works on one or two models at a time (a figure, a
#: fuzz seed), and fuzz builds a new model for every seed, so a small
#: bound keeps the live models' tables without growing with the run.
_TABLE_CACHE_MAX = 8

_table_cache: "OrderedDict[int, _ModelTables]" = OrderedDict()


@dataclass(frozen=True)
class StageEval:
    """Evaluation of one candidate stage (layers [start, stop) on gpu)."""

    fwd_compute: float
    bwd_compute: float
    fwd_comm_in: float
    bwd_comm_in: float
    memory_bytes: float
    feasible: bool

    @property
    def period(self) -> float:
        return self.fwd_compute + self.bwd_compute + self.fwd_comm_in + self.bwd_comm_in


class _ModelTables:
    """The communication and memory tables of one model object.

    Slice tables are indexed ``[stop][start]`` (row ``stop`` holds the
    slices ``[start, stop)`` for ``start < stop``), so the DP's inner
    loop over ``start`` reads one row.  Communication rows and memory
    tables are built on first use and kept for the entry's lifetime.
    """

    __slots__ = ("model", "zeros", "params", "stash", "workspace", "_comm", "_memory")

    def __init__(self, model: ModelGraph) -> None:
        self.model = model
        layers = model.layers
        params = tuple(layer.param_bytes for layer in layers)
        stash = tuple(layer.stash_bytes for layer in layers)
        workspace = tuple(layer.workspace_bytes for layer in layers)
        stops = range(len(layers) + 1)
        self.zeros = (0.0,) * (len(layers) + 1)
        self.params = tuple(tuple(sum(params[i:j]) for i in range(j)) for j in stops)
        self.stash = tuple(tuple(sum(stash[i:j]) for i in range(j)) for j in stops)
        self.workspace = tuple(
            tuple(max(workspace[i:j], default=0.0) for i in range(j)) for j in stops
        )
        self._comm: dict[tuple, tuple[float, ...]] = {}
        self._memory: dict[tuple, tuple[tuple[float, ...], ...]] = {}

    def comm_row(
        self, interconnect: InterconnectSpec, src: GPUDevice, dst: GPUDevice
    ) -> tuple[float, ...]:
        """``row[b]``: time to send the tensor crossing boundary ``b``
        (the input of layer ``b``) from ``src`` to ``dst``.

        A transfer time depends on the devices only through whether they
        are one device and whether they share a node — the same
        assumption the planner's boundaries-cache key makes.
        """
        key = (interconnect, src.gpu_id == dst.gpu_id, src.same_node(dst))
        row = self._comm.get(key)
        if row is None:
            model = self.model
            row = tuple(
                interconnect.transfer_time(model.boundary_bytes(b - 1), src, dst)
                for b in range(len(model) + 1)
            )
            self._comm[key] = row
        return row

    def memory(
        self, calibration: Calibration, in_flight: int, versions: int
    ) -> tuple[tuple[float, ...], ...]:
        """``table[stop][start]``: bytes a stage of layers ``[start, stop)``
        needs with ``in_flight`` minibatches and ``versions`` stashed
        weight copies — the arithmetic of
        :func:`~repro.models.memory.stage_memory_bytes`, in its order."""
        key = (calibration, in_flight, versions)
        table = self._memory.get(key)
        if table is None:
            cal = calibration
            rows = []
            for params_row, stash_row, workspace_row in zip(
                self.params, self.stash, self.workspace
            ):
                row = []
                for params, stash, workspace in zip(params_row, stash_row, workspace_row):
                    stash = stash * cal.activation_stash_factor
                    if cal.activation_recompute:
                        stash *= cal.recompute_stash_fraction
                    weight_state = params * cal.weight_state_multiplier
                    weight_versions = params * cal.weight_version_factor * versions
                    row.append(weight_state + weight_versions + stash * in_flight + workspace)
                rows.append(tuple(row))
            table = self._memory[key] = tuple(rows)
        return table


def _model_tables(model: ModelGraph) -> _ModelTables:
    """The tables of ``model``, from the LRU when this object has them.

    Keyed on ``id(model)``: hashing a model by value walks every layer.
    An entry holds its model, and a hit must be that very object, so a
    reused id can never serve another model's tables.
    """
    key = id(model)
    entry = _table_cache.get(key)
    if entry is None or entry.model is not model:
        entry = _ModelTables(model)
        _table_cache[key] = entry
    _table_cache.move_to_end(key)
    if len(_table_cache) > _TABLE_CACHE_MAX:
        _table_cache.popitem(last=False)
    return entry


def clear_stage_tables() -> None:
    """Drop every model's tables."""
    _table_cache.clear()


class StageEvaluator:
    """Costs candidate stages of one (model, GPU ordering, Nm) by table reads.

    Stage ``s`` reads these tables, which :meth:`evaluate` and
    :func:`solve_boundaries` share, so the two cannot disagree:

    * compute: the profiler's per-GPU-type prefix sums,
      ``fwd = fwd_prefix[stop] - fwd_prefix[start]``;
    * ``fwd_comm[s][start]``: the row of the link from ``g_{s-1}``
      (zeros for the first stage);
    * ``bwd_comm[s][stop]``: the row of the link from ``g_{s+1}``
      (zeros for the last stage);
    * ``memory[s][stop][start]``: the memory table for the stage's
      in-flight count and weight-version count, compared against the
      GPU's usable bytes.

    The communication and memory tables belong to the model object and
    are shared by every evaluator of it: they sit in an LRU of the last
    ``_TABLE_CACHE_MAX`` models (:func:`clear_stage_tables` empties it).
    Building an evaluator is therefore O(k) lookups once the model's
    tables exist, which keeps a boundaries-cache hit — it only
    re-evaluates the k chosen stages — from paying O(k * L) for tables.
    """

    def __init__(
        self,
        model: ModelGraph,
        gpus: Sequence[GPUDevice],
        nm: int,
        interconnect: InterconnectSpec,
        calibration: Calibration = DEFAULT_CALIBRATION,
        profiler: Profiler | None = None,
        weight_policy: str = DEFAULT_WEIGHT_POLICY,
    ) -> None:
        self.model = model
        self.gpus = gpus = list(gpus)
        self.nm = nm
        self.interconnect = interconnect
        self.calibration = calibration
        self.weight_policy = weight_policy
        profiler = profiler or Profiler(calibration)
        self._profiles: list[ModelProfile] = [
            profiler.profile(model, gpu.spec) for gpu in gpus
        ]
        self._usable = [gpu_usable_bytes(gpu.spec, calibration) for gpu in gpus]

        tables = _model_tables(model)
        k = len(gpus)
        self._fwd_comm = [tables.zeros] + [
            tables.comm_row(interconnect, gpus[s - 1], gpus[s]) for s in range(1, k)
        ]
        self._bwd_comm = [
            tables.comm_row(interconnect, gpus[s + 1], gpus[s]) for s in range(k - 1)
        ] + [tables.zeros]
        self._memory = []
        for s in range(k):
            in_flight = in_flight_at_stage(nm, s)
            versions = weight_version_count(weight_policy, in_flight)
            self._memory.append(tables.memory(calibration, in_flight, versions))

    @property
    def k(self) -> int:
        return len(self.gpus)

    @property
    def num_layers(self) -> int:
        return len(self.model)

    def in_flight(self, stage_index: int) -> int:
        return in_flight_at_stage(self.nm, stage_index)

    def evaluate(self, start: int, stop: int, stage_index: int) -> StageEval:
        """Evaluate layers ``[start, stop)`` as stage ``stage_index``."""
        profile = self._profiles[stage_index]
        memory = self._memory[stage_index][stop][start]
        return StageEval(
            fwd_compute=profile.stage_fwd(start, stop),
            bwd_compute=profile.stage_bwd(start, stop),
            fwd_comm_in=self._fwd_comm[stage_index][start],
            bwd_comm_in=self._bwd_comm[stage_index][stop],
            memory_bytes=memory,
            feasible=memory <= self._usable[stage_index],
        )


def solve_boundaries(evaluator: StageEvaluator) -> list[int] | None:
    """Optimal boundaries ``[b_0 .. b_k]`` or None when infeasible."""
    k = evaluator.k
    length = evaluator.num_layers
    if length < k:
        return None

    # dp_max[s][j], dp_total[s][j]: best (max period, total period) for
    # stages 0..s covering [0, j); compared lexicographically.  Row -1
    # is the empty prefix: zero cost at j == 0, unreachable elsewhere
    # (max(0.0, p) and 0.0 + p are exactly p for every period p >= 0).
    dp_max = [[_INF] * (length + 1) for _ in range(k)] + [[0.0] + [_INF] * length]
    dp_total = [[_INF] * (length + 1) for _ in range(k)] + [[0.0] + [_INF] * length]
    choice = [[-1] * (length + 1) for _ in range(k)]

    for s in range(k):
        fwd_prefix = evaluator._profiles[s].fwd_prefix
        bwd_prefix = evaluator._profiles[s].bwd_prefix
        fwd_comm = evaluator._fwd_comm[s]
        bwd_comm = evaluator._bwd_comm[s]
        memory = evaluator._memory[s]
        usable = evaluator._usable[s]
        prev_max, prev_total = dp_max[s - 1], dp_total[s - 1]
        cur_max, cur_total, cur_choice = dp_max[s], dp_total[s], choice[s]
        # stage s must leave at least (k - 1 - s) layers for later stages
        # and earlier stages need at least s layers; stage 0 starts at 0.
        for j in range(s + 1, length - (k - 1 - s) + 1):
            fwd_j = fwd_prefix[j]
            bwd_j = bwd_prefix[j]
            comm_j = bwd_comm[j]
            memory_j = memory[j]
            best_max = best_total = _INF
            best_i = -1
            for i in range(s, j if s else 1):
                prev = prev_max[i]
                if prev == _INF or not memory_j[i] <= usable:
                    continue
                # the float expression of StageEval.period, in its order
                period = fwd_j - fwd_prefix[i] + (bwd_j - bwd_prefix[i]) + fwd_comm[i] + comm_j
                top = period if period > prev else prev
                if top < best_max or (top == best_max and prev_total[i] + period < best_total):
                    best_max = top
                    best_total = prev_total[i] + period
                    best_i = i
            cur_max[j] = best_max
            cur_total[j] = best_total
            cur_choice[j] = best_i

    if dp_max[k - 1][length] == _INF:
        return None

    boundaries = [length]
    j = length
    for s in range(k - 1, -1, -1):
        i = choice[s][j]
        boundaries.append(i)
        j = i
    boundaries.reverse()
    return boundaries
