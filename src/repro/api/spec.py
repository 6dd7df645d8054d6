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

Each section declares one rule per field — its kind (int, tuple of
ints, number, string, bool or choice), bounds, choices and nullability
— and one helper, :func:`_check`, enforces them all; only rules that
span several fields are written out as code.

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
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, NamedTuple

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


class _Rule(NamedTuple):
    """The declared check of one spec field: built by one kind
    constructor below (``_int``, ``_ints``, ``_number``, ``_choice``,
    ``_str``, ``_bool``), enforced by :func:`_check`."""

    test: Callable[[Any], bool]
    wanted: str  # completes "<path> must ..., got <value>" on failure
    null: bool = False  # None is accepted as-is
    number: bool = False  # a passing value is stored as float


def _is_int(value: Any, lo: int) -> bool:
    # bool is an int subclass, but True == 1 serializes (and so hashes)
    # as "true": a bool never passes for an int
    return isinstance(value, int) and not isinstance(value, bool) and value >= lo


def _int(lo: int, null: bool = False) -> _Rule:
    wanted = f"be an int >= {lo}" + (" or null" if null else "")
    return _Rule(lambda v: _is_int(v, lo), wanted, null)


def _ints(lo: int) -> _Rule:
    return _Rule(lambda v: all(_is_int(d, lo) for d in v), f"contain ints >= {lo}")


def _finite(value: int | float) -> bool:
    # an int is always finite (and may be too large for math.isfinite);
    # inf would reach canonical JSON as the non-standard token Infinity
    return isinstance(value, int) or math.isfinite(value)


def _number(
    lo: int, hi: int | None = None, open_lo: bool = False, open_hi: bool = False
) -> _Rule:
    def test(v: Any) -> bool:
        return (
            isinstance(v, (int, float))
            and not isinstance(v, bool)
            and _finite(v)
            and (v > lo if open_lo else v >= lo)
            and (hi is None or (v < hi if open_hi else v <= hi))
        )

    if hi is None:
        wanted = f"be a finite number {'>' if open_lo else '>='} {lo}"
    else:
        wanted = f"be in {'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
    return _Rule(test, wanted, number=True)


def _choice(choices: tuple[str, ...]) -> _Rule:
    return _Rule(lambda v: v in choices, f"be one of {list(choices)}")


def _str() -> _Rule:
    return _Rule(lambda v: isinstance(v, str) and v != "", "be a non-empty string")


def _bool(null: bool = False) -> _Rule:
    wanted = "be true/false/null" if null else "be true/false"
    return _Rule(lambda v: isinstance(v, bool), wanted, null)


def _fields(section: str, **rules: _Rule) -> tuple[tuple[str, str, _Rule], ...]:
    """``(attribute, message path, rule)`` per field, in check order;
    top-level fields (``section=""``) carry no prefix."""
    prefix = f"{section}." if section else ""
    return tuple((name, prefix + name, rule) for name, rule in rules.items())


def _check(spec: Any, table: tuple[tuple[str, str, _Rule], ...]) -> None:
    """Enforce ``table``'s rules on ``spec``; the first failure raises.

    A passing number is stored as ``float`` (``-0.0`` as ``0.0``), so
    numbers that compare equal serialize, and hash, the same.
    """
    for name, path, rule in table:
        value = getattr(spec, name)
        if value is None and rule.null:
            continue
        if not rule.test(value):
            raise SpecError(f"{path} must {rule.wanted}, got {value!r}")
        if rule.number:
            try:
                number = float(value) + 0.0
            except OverflowError:
                raise SpecError(
                    f"{path} must be a number a float can hold, got an int "
                    f"of {value.bit_length()} bits"
                ) from None
            object.__setattr__(spec, name, number)


def canonical_dumps(data: Any) -> str:
    """The canonical compact JSON form: sorted keys, no whitespace.

    Everything content-addressed in this project — ``spec_hash`` and the
    result store's entry checksums — hashes this exact serialization, so
    the same dict always maps to the same hash regardless of insertion
    order or source formatting.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


_CLUSTER_FIELDS = _fields(
    "cluster", node_codes=_str(), gpus_per_node=_int(1), profile=_str()
)


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
        _check(self, _CLUSTER_FIELDS)


_MODEL_FIELDS = _fields("model", name=_str())
#: checked only once the knobs are known to form a synthetic chain
_SYNTHETIC_FIELDS = _fields(
    "model",
    batch_size=_int(1),
    image_size=_int(1),
    conv_widths=_ints(1),
    fc_dims=_ints(1),
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
        _check(self, _MODEL_FIELDS)
        object.__setattr__(self, "conv_widths", tuple(self.conv_widths))
        object.__setattr__(self, "fc_dims", tuple(self.fc_dims))
        synthetic_knobs = (
            self.batch_size is not None,
            self.image_size is not None,
            bool(self.conv_widths),
        )
        if self.fc_dims and not any(synthetic_knobs):
            raise SpecError(
                "model: fc_dims without the other synthetic knobs "
                "(batch_size, image_size, conv_widths) names no model"
            )
        if any(synthetic_knobs):
            if not all(synthetic_knobs):
                raise SpecError(
                    "model: a synthetic chain needs batch_size, image_size, and "
                    "conv_widths together (only some were given); a catalog "
                    "model takes just a name"
                )
            _check(self, _SYNTHETIC_FIELDS)


_PIPELINE_FIELDS = _fields(
    "pipeline",
    nm=_int(1, null=True),
    d=_int(0),
    allocation=_choice(ALLOCATION_POLICIES),
    placement=_choice(PLACEMENT_POLICIES),
    shards=_int(1),
    shard_placement=_choice(SHARD_PLACEMENT_POLICIES),
    planner=_str(),
    variant=_str(),
    memory_limited=_bool(),
    push_every_minibatch=_bool(),
    jitter=_number(0, 1, open_hi=True),
    warmup_waves=_int(1),
    measured_waves=_int(1),
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
        _check(self, _PIPELINE_FIELDS)


_NETWORK_FIELDS = _fields("network", model=_choice(NETWORK_MODELS))


@dataclass(frozen=True)
class NetworkSpec:
    """Communication model: historical private links or the shared fabric."""

    model: str = "dedicated"

    def __post_init__(self) -> None:
        _check(self, _NETWORK_FIELDS)


_FIDELITY_FIELDS = _fields(
    "fidelity",
    fidelity=_choice(FIDELITIES),
    verify_equivalence=_bool(null=True),
    waves_scale=_int(1),
)


@dataclass(frozen=True)
class FidelitySpec:
    """Simulation fidelity contract for the run."""

    fidelity: str = "full"
    verify_equivalence: bool | None = None
    waves_scale: int = 1

    def __post_init__(self) -> None:
        _check(self, _FIDELITY_FIELDS)


_OBSERVABILITY_FIELDS = _fields(
    "observability",
    enabled=_bool(),
    sample_every=_number(0),
    ring_buffer=_int(1),
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
        _check(self, _OBSERVABILITY_FIELDS)


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


_FAULT_FIELDS = _fields(
    "faults",
    enabled=_bool(),
    stragglers=_int(0),
    crashes=_int(0),
    link_faults=_int(0),
    ps_faults=_int(0),
    straggler_factor=_number(1),
    link_scale_floor=_number(0, 1, open_lo=True),
    retry_timeout=_number(0, open_lo=True),
    max_retries=_int(1),
    checkpoint_every=_int(1),
)


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
        _check(self, _FAULT_FIELDS)
        events = tuple(
            tuple(event) if isinstance(event, (list, tuple)) else event
            for event in self.events
        )
        object.__setattr__(self, "events", events)
        for i, event in enumerate(events):
            if not (isinstance(event, tuple) and len(event) >= 1):
                raise SpecError(
                    f"faults.events[{i}] must be a [kind, ...] array, got {event!r}"
                )
            kind = event[0]
            if kind not in FAULT_KINDS:
                raise SpecError(
                    f"faults.events[{i}] kind must be one of "
                    f"{sorted(FAULT_KINDS)}, got {kind!r}"
                )
            if len(event) != FAULT_KINDS[kind]:
                raise SpecError(
                    f"faults.events[{i}] ({kind!r}) needs {FAULT_KINDS[kind]} "
                    f"entries, got {len(event)}"
                )
            if not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and _finite(v)
                for v in event[1:]
            ):
                raise SpecError(
                    f"faults.events[{i}] entries after the kind must be finite "
                    f"numbers, got {event!r}"
                )
            if not (float(event[1]) >= 0.0):  # NaN fails too
                raise SpecError(
                    f"faults.events[{i}] start fraction must be >= 0, got {event[1]!r}"
                )


_EXPERIMENT_FIELDS = _fields("experiment", name=_str(), model=_str())


@dataclass(frozen=True)
class ExperimentSpec:
    """A paper figure/table regeneration, by registry name."""

    name: str
    model: str = "vgg19"

    def __post_init__(self) -> None:
        _check(self, _EXPERIMENT_FIELDS)


_SWEEP_AXIS_FIELDS = (("path", "sweep axis path", _str()),)


@dataclass(frozen=True)
class SweepAxis:
    """One grid axis: a dotted field path and the values it sweeps."""

    path: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        _check(self, _SWEEP_AXIS_FIELDS)
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise SpecError(f"sweep axis {self.path!r} needs at least one value")


@dataclass(frozen=True)
class SweepSpec:
    """A grid over a base :class:`RunSpec` (cartesian product of axes)."""

    axes: tuple[SweepAxis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise SpecError("sweep.axes must list at least one axis")
        paths = [axis.path for axis in self.axes]
        if len(set(paths)) != len(paths):
            raise SpecError(f"sweep.axes paths must be unique, got {paths}")


_RUN_FIELDS = _fields(
    "", kind=_choice(RUN_KINDS), seed=_int(0), calibration=_str(), oracles=_str()
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
        _check(self, _RUN_FIELDS)
        if self.kind == "scenario":
            if self.model is None:
                raise SpecError("a scenario spec needs a model section")
            if self.experiment is not None:
                raise SpecError("a scenario spec cannot carry an experiment section")
            # Sweep grids may leave nm to be filled by an axis; concrete
            # scenario points are checked again at build time.
            if self.sweep is None and self.pipeline.nm is None:
                raise SpecError(
                    "a scenario spec needs a concrete pipeline.nm "
                    "(analytic selection is an experiment-level feature)"
                )
        elif self.experiment is None:
            raise SpecError("an experiment spec needs an experiment section")

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
        except ValueError as exc:  # JSONDecodeError, or an int literal
            # longer than the interpreter's int-string conversion limit
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
