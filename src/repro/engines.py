"""The engine ladder: the five named bipartitioners the tables race.

The CLI's ``--engine``, job specs (``JobSpec.engines``) and scenarios
name engines from :data:`ENGINE_NAMES` and build them with
:func:`make_engine`, so every surface runs the same heuristic under the
same name.
"""

from __future__ import annotations

from repro.core.config import FMConfig
from repro.core.partitioner import FMPartitioner
from repro.multilevel.mlpart import MLConfig, MLPartitioner

#: Flat and multilevel FM with LIFO or CLIP updates, and the weak
#: "Reported" FM baseline of Tables 2-3.
ENGINE_NAMES = ("flat-lifo", "flat-clip", "ml-lifo", "ml-clip", "weak")


def make_engine(name: str, tolerance: float):
    """A fresh bipartitioner for ladder engine ``name`` at balance
    ``tolerance``; an unknown name raises ``ValueError``."""
    if name == "flat-lifo":
        return FMPartitioner(tolerance=tolerance, name="Flat LIFO FM")
    if name == "flat-clip":
        return FMPartitioner(
            FMConfig(clip=True), tolerance=tolerance, name="Flat CLIP FM"
        )
    if name == "ml-lifo":
        return MLPartitioner(tolerance=tolerance, name="ML LIFO FM")
    if name == "ml-clip":
        return MLPartitioner(
            MLConfig(fm_config=FMConfig(clip=True)),
            tolerance=tolerance,
            name="ML CLIP FM",
        )
    if name == "weak":
        from repro.baselines import WeakFM

        return WeakFM(tolerance=tolerance)
    raise ValueError(f"unknown engine {name!r}; choose from {ENGINE_NAMES}")
