"""Typed, serializable run specifications (the ``hetpipe-spec/1`` schema).

HetPipe's design space is a cross-product — cluster composition x
partition planner x DP/WSP staleness bound x network model x fidelity —
and every entry point used to re-plumb that space as ad-hoc kwargs.
This module is the single declarative description of one point (or one
grid) in that space:

* :class:`ClusterSpec`, :class:`ModelSpec`, :class:`PipelineSpec`,
  :class:`NetworkSpec`, :class:`FidelitySpec`, :class:`ExperimentSpec`,
  and :class:`SweepSpec` are frozen section dataclasses, each validating
  itself in ``__post_init__``;
* :class:`RunSpec` composes them and adds the canonical JSON round-trip
  (:meth:`RunSpec.to_json` / :meth:`RunSpec.from_json`) and a stable
  :attr:`RunSpec.spec_hash` — the sha256 of the canonical form, so a
  hash identifies *the configuration*, independent of key order or
  formatting in the file it came from;
* :func:`expand_sweep` turns a spec with a ``sweep`` section into the
  ordered list of concrete points (cartesian product, later axes vary
  fastest), each carrying its own ``spec_hash``.

Name *resolution* (model builders, calibrations, planners, interconnect
profiles) deliberately does not happen here: this module validates
structure and closed literal sets only, so a spec file can be parsed,
hashed, and diffed without importing any heavy machinery.  Names are
resolved against :mod:`repro.api.registry` at build time, where an
unknown name raises :class:`repro.errors.UnknownNameError` listing the
available entries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.errors import SpecError

#: Schema tag written into every serialized spec and folded into
#: ``spec_hash``.  Bump on layout changes so hashes from different
#: schemas can never collide silently.
SPEC_SCHEMA = "hetpipe-spec/1"

#: Closed literal sets (validated structurally; everything open-ended —
#: model names, calibrations, planners, profiles — is a registry lookup
#: at build time instead).
ALLOCATION_POLICIES = ("NP", "ED", "HD")
PLACEMENT_POLICIES = ("default", "local")
SHARD_PLACEMENT_POLICIES = ("size_balanced", "locality_aware", "contention_aware")
NETWORK_MODELS = ("dedicated", "shared")
FIDELITIES = ("full", "fast_forward")
RUN_KINDS = ("scenario", "experiment")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def canonical_dumps(data: Any) -> str:
    """The canonical compact JSON form: sorted keys, no whitespace.

    Everything content-addressed in this project — ``spec_hash`` and the
    result store's entry checksums — hashes this exact serialization, so
    the same dict always maps to the same hash regardless of insertion
    order or source formatting.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ClusterSpec:
    """A paper-style testbed: one GPU type per node, N GPUs each.

    ``node_codes`` is one Table-1 catalog letter per node (e.g.
    ``"VRGQ"``); ``profile`` names an interconnect calibration profile
    (resolved via :data:`repro.api.registry.PROFILES`).
    """

    node_codes: str = "VRGQ"
    gpus_per_node: int = 4
    profile: str = "grpc_tf112"

    def __post_init__(self) -> None:
        _require(
            isinstance(self.node_codes, str) and len(self.node_codes) >= 1,
            f"cluster.node_codes must be a non-empty string, got {self.node_codes!r}",
        )
        _require(
            isinstance(self.gpus_per_node, int) and self.gpus_per_node >= 1,
            f"cluster.gpus_per_node must be an int >= 1, got {self.gpus_per_node!r}",
        )
        _require(
            isinstance(self.profile, str) and bool(self.profile),
            f"cluster.profile must be a non-empty string, got {self.profile!r}",
        )


@dataclass(frozen=True)
class ModelSpec:
    """A workload: either a catalog model by name, or a synthetic chain.

    With only ``name`` set, the name is resolved against
    :data:`repro.api.registry.MODELS` at build time ("vgg19",
    "resnet152", ...).  With the synthetic knobs set (all four of
    ``batch_size``, ``image_size``, ``conv_widths``, ``fc_dims``), the
    fuzz generator's conv->pool->fc chain builder is used instead and
    ``name`` is just a label.
    """

    name: str
    batch_size: int | None = None
    image_size: int | None = None
    conv_widths: tuple[int, ...] = ()
    fc_dims: tuple[int, ...] = ()

    @property
    def is_synthetic(self) -> bool:
        return bool(self.conv_widths)

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            f"model.name must be a non-empty string, got {self.name!r}",
        )
        object.__setattr__(self, "conv_widths", tuple(self.conv_widths))
        object.__setattr__(self, "fc_dims", tuple(self.fc_dims))
        synthetic_knobs = (
            self.batch_size is not None,
            self.image_size is not None,
            bool(self.conv_widths),
        )
        _require(
            not (self.fc_dims and not any(synthetic_knobs)),
            "model: fc_dims without the other synthetic knobs "
            "(batch_size, image_size, conv_widths) names no model",
        )
        if any(synthetic_knobs):
            _require(
                all(synthetic_knobs),
                "model: a synthetic chain needs batch_size, image_size, and "
                "conv_widths together (only some were given); a catalog model "
                "takes just a name",
            )
            _require(
                isinstance(self.batch_size, int) and self.batch_size >= 1,
                f"model.batch_size must be an int >= 1, got {self.batch_size!r}",
            )
            _require(
                isinstance(self.image_size, int) and self.image_size >= 1,
                f"model.image_size must be an int >= 1, got {self.image_size!r}",
            )
            for label, dims in (("conv_widths", self.conv_widths), ("fc_dims", self.fc_dims)):
                _require(
                    all(isinstance(d, int) and d >= 1 for d in dims),
                    f"model.{label} must contain ints >= 1, got {dims!r}",
                )


@dataclass(frozen=True)
class PipelineSpec:
    """Pipeline-parallel + WSP knobs for one deployment."""

    nm: int | None = None  # None = pick analytically (experiments only)
    d: int = 0
    allocation: str = "ED"
    placement: str = "default"
    #: PS shard slots per stage; 1 keeps the historical single-endpoint
    #: model (``placement`` applies), K > 1 splits each stage over K PS
    #: processes placed by ``shard_placement``
    shards: int = 1
    shard_placement: str = "size_balanced"
    planner: str = "dp"
    #: pipeline-variant semantics (weight versioning, flush gates,
    #: staleness contract); resolved against the VARIANTS registry at
    #: build time.  The default reproduces the pre-zoo behavior exactly.
    variant: str = "vw_hetpipe"
    #: enforce per-GPU memory capacity in the planner using the
    #: variant's weight-version accounting; False keeps the historical
    #: HetPipe §4 feasibility pruning regardless of variant
    memory_limited: bool = False
    push_every_minibatch: bool = False
    jitter: float = 0.0
    warmup_waves: int = 2
    measured_waves: int = 8

    def __post_init__(self) -> None:
        _require(
            self.nm is None or (isinstance(self.nm, int) and self.nm >= 1),
            f"pipeline.nm must be an int >= 1 or null, got {self.nm!r}",
        )
        _require(
            isinstance(self.d, int) and self.d >= 0,
            f"pipeline.d must be an int >= 0, got {self.d!r}",
        )
        _require(
            self.allocation in ALLOCATION_POLICIES,
            f"pipeline.allocation must be one of {list(ALLOCATION_POLICIES)}, "
            f"got {self.allocation!r}",
        )
        _require(
            self.placement in PLACEMENT_POLICIES,
            f"pipeline.placement must be one of {list(PLACEMENT_POLICIES)}, "
            f"got {self.placement!r}",
        )
        _require(
            isinstance(self.shards, int)
            and not isinstance(self.shards, bool)
            and self.shards >= 1,
            f"pipeline.shards must be an int >= 1, got {self.shards!r}",
        )
        _require(
            self.shard_placement in SHARD_PLACEMENT_POLICIES,
            f"pipeline.shard_placement must be one of "
            f"{list(SHARD_PLACEMENT_POLICIES)}, got {self.shard_placement!r}",
        )
        _require(
            isinstance(self.planner, str) and bool(self.planner),
            f"pipeline.planner must be a non-empty string, got {self.planner!r}",
        )
        _require(
            isinstance(self.variant, str) and bool(self.variant),
            f"pipeline.variant must be a non-empty string, got {self.variant!r}",
        )
        _require(
            isinstance(self.memory_limited, bool),
            f"pipeline.memory_limited must be true/false, got {self.memory_limited!r}",
        )
        _require(
            isinstance(self.jitter, (int, float)) and 0.0 <= float(self.jitter) < 1.0,
            f"pipeline.jitter must be in [0, 1), got {self.jitter!r}",
        )
        object.__setattr__(self, "jitter", float(self.jitter))
        _require(
            isinstance(self.warmup_waves, int) and self.warmup_waves >= 1,
            f"pipeline.warmup_waves must be an int >= 1, got {self.warmup_waves!r}",
        )
        _require(
            isinstance(self.measured_waves, int) and self.measured_waves >= 1,
            f"pipeline.measured_waves must be an int >= 1, got {self.measured_waves!r}",
        )


@dataclass(frozen=True)
class NetworkSpec:
    """Communication model: historical private links or the shared fabric."""

    model: str = "dedicated"

    def __post_init__(self) -> None:
        _require(
            self.model in NETWORK_MODELS,
            f"network.model must be one of {list(NETWORK_MODELS)}, got {self.model!r}",
        )


@dataclass(frozen=True)
class FidelitySpec:
    """Simulation fidelity contract for the run."""

    fidelity: str = "full"
    verify_equivalence: bool | None = None
    waves_scale: int = 1

    def __post_init__(self) -> None:
        _require(
            self.fidelity in FIDELITIES,
            f"fidelity.fidelity must be one of {list(FIDELITIES)}, got {self.fidelity!r}",
        )
        _require(
            self.verify_equivalence is None or isinstance(self.verify_equivalence, bool),
            f"fidelity.verify_equivalence must be true/false/null, "
            f"got {self.verify_equivalence!r}",
        )
        _require(
            isinstance(self.waves_scale, int) and self.waves_scale >= 1,
            f"fidelity.waves_scale must be an int >= 1, got {self.waves_scale!r}",
        )


@dataclass(frozen=True)
class ObservabilitySpec:
    """Telemetry knobs for one run (the :mod:`repro.obs` subsystem).

    Off by default — a spec without this section (or with
    ``enabled: false``) runs exactly the historical code path, and its
    canonical form omits the section entirely so ``spec_hash`` of every
    pre-observability spec is unchanged.
    """

    enabled: bool = False
    #: Utilization/queue-depth sampling cadence in simulated seconds;
    #: 0 disables the periodic sampler (spans and counters still flow).
    sample_every: float = 0.0
    #: Ring-buffer capacity for last-N trace records kept for
    #: diagnostics bundles.
    ring_buffer: int = 256

    def __post_init__(self) -> None:
        _require(
            isinstance(self.enabled, bool),
            f"observability.enabled must be true/false, got {self.enabled!r}",
        )
        _require(
            isinstance(self.sample_every, (int, float))
            and not isinstance(self.sample_every, bool)
            and float(self.sample_every) >= 0.0,
            f"observability.sample_every must be a number >= 0, "
            f"got {self.sample_every!r}",
        )
        object.__setattr__(self, "sample_every", float(self.sample_every))
        _require(
            isinstance(self.ring_buffer, int)
            and not isinstance(self.ring_buffer, bool)
            and self.ring_buffer >= 1,
            f"observability.ring_buffer must be an int >= 1, "
            f"got {self.ring_buffer!r}",
        )


#: Fault kinds a :class:`FaultSpec` may schedule, with the arity of
#: their explicit-event tuples (kind tag included).
FAULT_KINDS: dict[str, int] = {
    # ("straggler", start_frac, vw, stage, factor, duration_frac)
    "straggler": 6,
    # ("crash", start_frac, node, rejoin_frac)   rejoin_frac <= 0: permanent
    "crash": 4,
    # ("link", start_frac, scale, duration_frac)
    "link": 4,
    # ("ps", start_frac, slot, duration_frac)
    "ps": 4,
}


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic fault schedule for one run (:mod:`repro.faults`).

    Off by default — a spec without this section (or with
    ``enabled: false``) runs exactly the historical code path, and its
    canonical form omits the section entirely, so ``spec_hash`` (and
    every fuzz digest) of a pre-fault spec is unchanged.

    Event *times* are fractions of the run's fault-free makespan (the
    baseline twin the runner measures first), so the same spec scales
    with the scenario instead of hardcoding simulated seconds.  The
    drawn schedule is a pure function of ``(spec, run seed)``; the
    ``events`` tuple appends explicit events for targeted tests/demos
    (see :data:`FAULT_KINDS` for the tuple layouts).
    """

    enabled: bool = False
    #: How many of each fault kind the seeded schedule draws.
    stragglers: int = 0
    crashes: int = 0
    link_faults: int = 0
    ps_faults: int = 0
    #: Worst slowdown multiplier a drawn straggler may apply.
    straggler_factor: float = 2.0
    #: Worst cross-node bandwidth scale a drawn link fault may apply.
    link_scale_floor: float = 0.25
    #: First PS retry delay as a fraction of the fault-free makespan;
    #: retry ``i`` waits ``retry_timeout * 2**i`` (exponential backoff).
    retry_timeout: float = 0.02
    #: Retries before a blocked PS transfer is declared unrecoverable.
    max_retries: int = 10
    #: Versions between parameter checkpoints (recovery resume points).
    checkpoint_every: int = 2
    #: Explicit events appended to the drawn schedule.
    events: tuple[tuple[Any, ...], ...] = ()

    def __post_init__(self) -> None:
        _require(
            isinstance(self.enabled, bool),
            f"faults.enabled must be true/false, got {self.enabled!r}",
        )
        for name in ("stragglers", "crashes", "link_faults", "ps_faults"):
            value = getattr(self, name)
            _require(
                isinstance(value, int) and not isinstance(value, bool) and value >= 0,
                f"faults.{name} must be an int >= 0, got {value!r}",
            )
        _require(
            isinstance(self.straggler_factor, (int, float))
            and not isinstance(self.straggler_factor, bool)
            and float(self.straggler_factor) >= 1.0,
            f"faults.straggler_factor must be a number >= 1, "
            f"got {self.straggler_factor!r}",
        )
        object.__setattr__(self, "straggler_factor", float(self.straggler_factor))
        _require(
            isinstance(self.link_scale_floor, (int, float))
            and not isinstance(self.link_scale_floor, bool)
            and 0.0 < float(self.link_scale_floor) <= 1.0,
            f"faults.link_scale_floor must be in (0, 1], "
            f"got {self.link_scale_floor!r}",
        )
        object.__setattr__(self, "link_scale_floor", float(self.link_scale_floor))
        _require(
            isinstance(self.retry_timeout, (int, float))
            and not isinstance(self.retry_timeout, bool)
            and float(self.retry_timeout) > 0.0,
            f"faults.retry_timeout must be a number > 0, got {self.retry_timeout!r}",
        )
        object.__setattr__(self, "retry_timeout", float(self.retry_timeout))
        _require(
            isinstance(self.max_retries, int)
            and not isinstance(self.max_retries, bool)
            and self.max_retries >= 1,
            f"faults.max_retries must be an int >= 1, got {self.max_retries!r}",
        )
        _require(
            isinstance(self.checkpoint_every, int)
            and not isinstance(self.checkpoint_every, bool)
            and self.checkpoint_every >= 1,
            f"faults.checkpoint_every must be an int >= 1, "
            f"got {self.checkpoint_every!r}",
        )
        events = tuple(
            tuple(event) if isinstance(event, (list, tuple)) else event
            for event in self.events
        )
        object.__setattr__(self, "events", events)
        for i, event in enumerate(events):
            _require(
                isinstance(event, tuple) and len(event) >= 1,
                f"faults.events[{i}] must be a [kind, ...] array, got {event!r}",
            )
            kind = event[0]
            _require(
                kind in FAULT_KINDS,
                f"faults.events[{i}] kind must be one of "
                f"{sorted(FAULT_KINDS)}, got {kind!r}",
            )
            _require(
                len(event) == FAULT_KINDS[kind],
                f"faults.events[{i}] ({kind!r}) needs {FAULT_KINDS[kind]} "
                f"entries, got {len(event)}",
            )
            _require(
                all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in event[1:]
                ),
                f"faults.events[{i}] entries after the kind must be numbers, "
                f"got {event!r}",
            )
            _require(
                float(event[1]) >= 0.0,
                f"faults.events[{i}] start fraction must be >= 0, got {event[1]!r}",
            )


@dataclass(frozen=True)
class ExperimentSpec:
    """A paper figure/table regeneration, by registry name."""

    name: str
    model: str = "vgg19"

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            f"experiment.name must be a non-empty string, got {self.name!r}",
        )
        _require(
            isinstance(self.model, str) and bool(self.model),
            f"experiment.model must be a non-empty string, got {self.model!r}",
        )


@dataclass(frozen=True)
class SweepAxis:
    """One grid axis: a dotted field path and the values it sweeps."""

    path: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        _require(
            isinstance(self.path, str) and bool(self.path),
            f"sweep axis path must be a non-empty string, got {self.path!r}",
        )
        object.__setattr__(self, "values", tuple(self.values))
        _require(
            len(self.values) >= 1,
            f"sweep axis {self.path!r} needs at least one value",
        )


@dataclass(frozen=True)
class SweepSpec:
    """A grid over a base :class:`RunSpec` (cartesian product of axes)."""

    axes: tuple[SweepAxis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        _require(len(self.axes) >= 1, "sweep.axes must list at least one axis")
        paths = [axis.path for axis in self.axes]
        _require(
            len(set(paths)) == len(paths),
            f"sweep.axes paths must be unique, got {paths}",
        )


@dataclass(frozen=True)
class RunSpec:
    """One fully-described run (or, with ``sweep`` set, a grid of them)."""

    kind: str = "scenario"
    seed: int = 0
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    model: ModelSpec | None = None
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    fidelity: FidelitySpec = field(default_factory=FidelitySpec)
    calibration: str = "default"
    oracles: str = "default"
    experiment: ExperimentSpec | None = None
    sweep: SweepSpec | None = None
    observability: ObservabilitySpec | None = None
    faults: FaultSpec | None = None

    def __post_init__(self) -> None:
        # A disabled observability section is behaviorally identical to
        # an absent one; normalize to None so both forms serialize (and
        # hash) the same way.  Same for a disabled fault section.
        if self.observability is not None and not self.observability.enabled:
            object.__setattr__(self, "observability", None)
        if self.faults is not None and not self.faults.enabled:
            object.__setattr__(self, "faults", None)
        _require(
            self.kind in RUN_KINDS,
            f"kind must be one of {list(RUN_KINDS)}, got {self.kind!r}",
        )
        _require(
            isinstance(self.seed, int) and self.seed >= 0,
            f"seed must be an int >= 0, got {self.seed!r}",
        )
        _require(
            isinstance(self.calibration, str) and bool(self.calibration),
            f"calibration must be a non-empty string, got {self.calibration!r}",
        )
        _require(
            isinstance(self.oracles, str) and bool(self.oracles),
            f"oracles must be a non-empty string, got {self.oracles!r}",
        )
        if self.kind == "scenario":
            _require(
                self.model is not None,
                "a scenario spec needs a model section",
            )
            _require(
                self.experiment is None,
                "a scenario spec cannot carry an experiment section",
            )
            # Sweep grids may leave nm to be filled by an axis; concrete
            # scenario points are checked again at build time.
            if self.sweep is None:
                _require(
                    self.pipeline.nm is not None,
                    "a scenario spec needs a concrete pipeline.nm "
                    "(analytic selection is an experiment-level feature)",
                )
        else:
            _require(
                self.experiment is not None,
                "an experiment spec needs an experiment section",
            )

    # ------------------------------------------------------------------
    # canonical serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON-types dict, schema tag included (tuples -> lists)."""
        payload = _asdict_plain(self)
        # Absent observability/faults is the historical layout: omit the
        # keys entirely so pre-existing specs keep their spec_hash.
        if payload.get("observability") is None:
            del payload["observability"]
        if payload.get("faults") is None:
            del payload["faults"]
        payload["schema"] = SPEC_SCHEMA
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        """Canonical JSON: sorted keys, deterministic formatting."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent) + (
            "\n" if indent is not None else ""
        )

    @classmethod
    def from_dict(cls, data: Any) -> "RunSpec":
        """Parse and validate; unknown or ill-typed keys raise
        :class:`~repro.errors.SpecError` with the offending path."""
        if not isinstance(data, dict):
            raise SpecError(f"spec root must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        schema = data.pop("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise SpecError(
                f"spec schema {schema!r} is not supported; expected {SPEC_SCHEMA!r}"
            )
        return _section_from_dict(cls, data, path="")

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @property
    def spec_hash(self) -> str:
        """sha256 of the schema tag + canonical compact JSON.

        Invariant under key order and formatting of the source file;
        changes whenever any field that affects behavior changes.
        """
        return hashlib.sha256(canonical_dumps(self.to_dict()).encode()).hexdigest()


# ----------------------------------------------------------------------
# dict <-> dataclass plumbing
# ----------------------------------------------------------------------

#: RunSpec fields that hold a nested section dataclass (or None).
_SECTION_TYPES: dict[str, type] = {
    "cluster": ClusterSpec,
    "model": ModelSpec,
    "pipeline": PipelineSpec,
    "network": NetworkSpec,
    "fidelity": FidelitySpec,
    "experiment": ExperimentSpec,
    "sweep": SweepSpec,
    "observability": ObservabilitySpec,
    "faults": FaultSpec,
}

#: Sections that may be null / absent.
_OPTIONAL_SECTIONS = {"model", "experiment", "sweep", "observability", "faults"}


def _asdict_plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return {
            f.name: _asdict_plain(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_asdict_plain(v) for v in value]
    return value


def _section_from_dict(cls: type, data: Any, path: str) -> Any:
    """Build dataclass ``cls`` from ``data``, rejecting unknown keys."""
    label = path or "spec"
    if not isinstance(data, dict):
        raise SpecError(f"{label} must be a JSON object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            f"{label} has unknown key(s) {unknown}; known keys: {sorted(known)}"
        )
    kwargs: dict[str, Any] = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        raw = data[f.name]
        child = f"{path}.{f.name}" if path else f.name
        if cls is RunSpec and f.name in _SECTION_TYPES:
            if raw is None:
                if f.name not in _OPTIONAL_SECTIONS:
                    raise SpecError(f"{child} cannot be null")
                kwargs[f.name] = None
            elif f.name == "cluster" and isinstance(raw, str):
                # preset sugar: `"cluster": "paper"` resolves through the
                # CLUSTERS registry to a full ClusterSpec, so the
                # canonical (serialized, hashed) form always carries the
                # resolved fields
                from repro.api.registry import CLUSTERS

                kwargs[f.name] = CLUSTERS.get(raw)
            else:
                kwargs[f.name] = _section_from_dict(_SECTION_TYPES[f.name], raw, child)
        elif cls is SweepSpec and f.name == "axes":
            if not isinstance(raw, list):
                raise SpecError(f"{child} must be a JSON array of axis objects")
            kwargs[f.name] = tuple(
                _section_from_dict(SweepAxis, axis, f"{child}[{i}]")
                for i, axis in enumerate(raw)
            )
        elif isinstance(raw, list):
            kwargs[f.name] = tuple(
                tuple(v) if isinstance(v, list) else v for v in raw
            )
        elif isinstance(raw, bool) or raw is None or isinstance(raw, (int, float, str)):
            kwargs[f.name] = raw
        else:
            raise SpecError(
                f"{child} has unsupported JSON type {type(raw).__name__}"
            )
    try:
        return cls(**kwargs)
    except SpecError:
        raise
    except TypeError as exc:
        raise SpecError(f"{label}: {exc}") from None


# ----------------------------------------------------------------------
# sweep expansion
# ----------------------------------------------------------------------


def _set_field(spec: RunSpec, path: str, value: Any) -> RunSpec:
    """``replace`` along a dotted path ("pipeline.nm", "seed", ...)."""
    parts = path.split(".")
    if len(parts) == 1:
        (name,) = parts
        scalars = sorted(
            f.name for f in fields(RunSpec)
            if f.name != "sweep" and f.name not in _SECTION_TYPES
        )
        if name in _SECTION_TYPES:
            # A raw JSON object would bypass the section dataclass's
            # validation entirely; axes address leaves, not sections.
            raise SpecError(
                f"sweep axis path {path!r} names a whole section; sweep a "
                f"leaf field instead (e.g. {name!r}.<field>)"
            )
        if name not in scalars:
            raise SpecError(
                f"sweep axis path {path!r} is not a settable RunSpec field; "
                f"top-level fields: {scalars}"
            )
        return replace(spec, **{name: value})
    if len(parts) == 2:
        section_name, leaf = parts
        section_type = _SECTION_TYPES.get(section_name)
        if section_type is None:
            raise SpecError(
                f"sweep axis path {path!r} does not name a RunSpec section; "
                f"sections: {sorted(_SECTION_TYPES)}"
            )
        section = getattr(spec, section_name)
        if section is None:
            raise SpecError(
                f"sweep axis path {path!r} targets the absent {section_name!r} section"
            )
        if leaf not in {f.name for f in fields(section_type)}:
            raise SpecError(
                f"sweep axis path {path!r}: {section_name} has no field {leaf!r}; "
                f"fields: {sorted(f.name for f in fields(section_type))}"
            )
        if isinstance(value, list):
            value = tuple(value)
        return replace(spec, **{section_name: replace(section, **{leaf: value})})
    raise SpecError(f"sweep axis path {path!r} nests too deep (max section.field)")


def expand_sweep(spec: RunSpec) -> list[RunSpec]:
    """The ordered concrete points of a sweep grid.

    Cartesian product of the axes in declaration order, later axes
    varying fastest; each point is the base spec (``sweep`` cleared)
    with the axis fields replaced, re-validated by construction.  A
    spec without a ``sweep`` section expands to itself.
    """
    if spec.sweep is None:
        return [spec]
    points = [spec]
    for axis in spec.sweep.axes:
        points = [
            _set_field(point, axis.path, value)
            for point in points
            for value in axis.values
        ]
    # Clear ``sweep`` only after the axes are applied: the grid form is
    # allowed to leave axis-filled fields (e.g. a scenario's
    # ``pipeline.nm``) unset, and the concrete-point validation must see
    # the filled values, not the base's placeholders.
    return [replace(point, sweep=None) for point in points]


def fidelity_mode(fidelity: "FidelitySpec | None", caller: str) -> str:
    """The fidelity mode a standalone measurement surface runs under.

    ``fidelity`` is a :class:`FidelitySpec` (``None`` means the default,
    full fidelity); anything else — a bare mode string included — is a
    :class:`SpecError` naming ``caller``.

    The standalone measurement surfaces honor only the ``fidelity``
    field (they have no equivalence twin and scale their own windows in
    minibatches), so a spec carrying ``waves_scale`` or
    ``verify_equivalence`` is rejected rather than silently truncated.
    """
    if fidelity is None:
        return "full"
    if not isinstance(fidelity, FidelitySpec):
        raise SpecError(
            f"{caller} takes fidelity as a repro.api.FidelitySpec, got "
            f"{fidelity!r}; pass FidelitySpec(fidelity=...)"
        )
    unsupported = [
        name
        for name, is_set in (
            ("waves_scale", fidelity.waves_scale != 1),
            ("verify_equivalence", fidelity.verify_equivalence is not None),
        )
        if is_set
    ]
    if unsupported:
        raise SpecError(
            f"{caller} honors only FidelitySpec.fidelity; "
            f"{', '.join(unsupported)} has no effect here — drive the "
            f"run from a full RunSpec for those knobs"
        )
    return fidelity.fidelity


def axis_assignments(spec: RunSpec, point: RunSpec) -> str:
    """Human label for one point: ``path=value`` per swept axis."""
    if spec.sweep is None:
        return ""
    parts = []
    for axis in spec.sweep.axes:
        value: Any = point
        for name in axis.path.split("."):
            value = getattr(value, name)
        parts.append(f"{axis.path}={value}")
    return " ".join(parts)
