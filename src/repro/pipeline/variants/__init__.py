"""Pipeline scheduling variants — the zoo across the pipelined-training
literature.

:mod:`~repro.pipeline.variants.defs` declares each variant's semantics
(:class:`VariantDef`: weight-version policy, admission/flush gate,
staleness contract) for ``vw_hetpipe`` (the default), ``gpipe_flush``,
``pipedream``, ``pipedream_2bw``, and ``xpipe``; and
:mod:`~repro.pipeline.variants.gates` builds the admission gates the
WSP runtime composes per variant.  The Table-2 GPipe ablation is the
same flush gate in a standalone run,
``measure_pipeline(..., variant="gpipe_flush")``.  Name resolution goes
through the ``VARIANTS`` registry in :mod:`repro.api.registry` (or
directly via :func:`get_variant`), both raising the typed
:class:`~repro.errors.UnknownNameError` on a miss.
"""

from repro.pipeline.variants.defs import (
    DEFAULT_VARIANT,
    VARIANT_DEFS,
    VariantDef,
    get_variant,
    variant_names,
)
from repro.pipeline.variants.gates import (
    ComposedGate,
    VersionWindowGate,
    WaveFlushGate,
    build_variant_gate,
)

__all__ = [
    "ComposedGate",
    "DEFAULT_VARIANT",
    "VARIANT_DEFS",
    "VariantDef",
    "VersionWindowGate",
    "WaveFlushGate",
    "build_variant_gate",
    "get_variant",
    "variant_names",
]
