"""Performance instrumentation for the FM kernels.

The ROADMAP demands every hot path get measurably faster; this module
makes "measurably" concrete.  :class:`PerfCounters` accumulates the
kernel-level event counts that determine FM runtime — moves applied and
rolled back, gain-container updates, the two classic skip fast-paths —
plus per-pass wall-clock timings.  The engine populates one instance per
``refine()`` call and attaches it to
:attr:`~repro.core.engine.FMResult.perf`, so every experiment record can
report *why* a configuration was slow (e.g. the All-delta-gain update
policy shows up directly as a larger ``gain_updates`` count), not just
that it was.

Counters are plain integers incremented from pass-local variables at
pass end, so instrumentation adds no per-move allocation to the kernel.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List


@dataclass
class PerfCounters:
    """Event counts and timings for one FM refinement run.

    Attributes
    ----------
    passes:
        FM passes executed.
    vertices_seeded:
        Vertices inserted into the gain container across all passes
        (eligible = not fixed, not guarded out by the corking guard).
    selects:
        Max-gain selection rounds, including the final failed one that
        terminates each pass.
    moves_applied:
        Moves applied during passes, before best-prefix rollback.
    moves_kept:
        Moves surviving rollback (sum of kept prefixes).
    moves_rolled_back:
        ``moves_applied - moves_kept``.
    gain_updates:
        Gain-container reinsertions performed (the dominant cost of the
        All-delta-gain update policy, Table 1).
    zero_delta_skips:
        Neighbour updates skipped because the delta gain was zero
        (Nonzero update policy only).
    noncritical_net_skips:
        Nets skipped entirely by the critical-net fast path
        (``f > 2 and t > 1``, valid only under the Nonzero policy).
    pass_seconds:
        Wall-clock seconds per pass.
    total_seconds:
        Wall-clock seconds for the whole ``refine()`` call.
    coarsen_levels:
        Coarsening levels built (matching + contraction executed).
    coarsen_neighbors_touched:
        Neighbour-connectivity accumulations performed by the matching
        kernels (one per (vertex, eligible-net, other-pin) triple — the
        dominant matching cost).
    coarsen_nets_projected:
        Fine nets projected onto clusters during contraction.
    coarsen_nets_merged:
        Projected nets merged into an identical earlier coarse net.
    coarsen_nets_dropped:
        Projected nets dropped for collapsing below two pins.
    coarsen_seconds:
        Wall-clock seconds spent building coarsening levels.
    hierarchies_built:
        Full coarsening hierarchies constructed from scratch.
    hierarchies_reused:
        Multistart/V-cycle starts served from an already-built pooled
        hierarchy instead of re-coarsening.
    """

    #: Deterministic event-count fields: pure functions of (instance,
    #: seed, configuration), so aggregates over a trial set are equal no
    #: matter where or in what order the trials ran.  ``merge`` adds
    #: these and the timing fields; a new scalar field belongs in one of
    #: the two tuples.
    COUNT_FIELDS = (
        "passes",
        "vertices_seeded",
        "selects",
        "moves_applied",
        "moves_kept",
        "moves_rolled_back",
        "gain_updates",
        "zero_delta_skips",
        "noncritical_net_skips",
        "coarsen_levels",
        "coarsen_neighbors_touched",
        "coarsen_nets_projected",
        "coarsen_nets_merged",
        "coarsen_nets_dropped",
        "hierarchies_built",
        "hierarchies_reused",
    )

    #: Scalar wall-clock fields: machine- and load-dependent, never
    #: compared for equality (``pass_seconds`` is the per-pass list and
    #: is excluded from wire formats).
    TIMING_FIELDS = (
        "total_seconds",
        "coarsen_seconds",
        "compile_seconds",
    )

    passes: int = 0
    vertices_seeded: int = 0
    selects: int = 0
    moves_applied: int = 0
    moves_kept: int = 0
    moves_rolled_back: int = 0
    gain_updates: int = 0
    zero_delta_skips: int = 0
    noncritical_net_skips: int = 0
    pass_seconds: List[float] = field(default_factory=list)
    total_seconds: float = 0.0
    coarsen_levels: int = 0
    coarsen_neighbors_touched: int = 0
    coarsen_nets_projected: int = 0
    coarsen_nets_merged: int = 0
    coarsen_nets_dropped: int = 0
    coarsen_seconds: float = 0.0
    hierarchies_built: int = 0
    hierarchies_reused: int = 0
    #: Kernel backend that executed the run ("" = unreported; "mixed"
    #: after merging runs from different backends).  A string, so it is
    #: handled specially everywhere COUNT/TIMING fields are iterated.
    backend: str = ""
    #: One-time backend warm-up (compile + self-check) charged at
    #: worker payload-attach time — deliberately *outside* every trial
    #: runtime so BSF/ranking curves see steady-state speed (the
    #: first-trial timing-skew fix).
    compile_seconds: float = 0.0

    # ------------------------------------------------------------------
    def merge(self, other: "PerfCounters") -> None:
        """Accumulate ``other`` into this instance (for aggregating the
        counters of several refine calls, e.g. across multilevel
        uncoarsening or multistart runs)."""
        for name in self.COUNT_FIELDS + self.TIMING_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.pass_seconds.extend(other.pass_seconds)
        if other.backend:
            if not self.backend:
                self.backend = other.backend
            elif self.backend != other.backend:
                self.backend = "mixed"

    @property
    def moves_per_second(self) -> float:
        """Applied moves per wall-clock second (0 when untimed)."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.moves_applied / self.total_seconds

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (used by experiment records): the
        fields in declaration order, with ``moves_per_second`` after
        ``total_seconds``."""
        out: Dict[str, object] = {}
        for name, value in asdict(self).items():
            out[name] = value
            if name == "total_seconds":
                out["moves_per_second"] = self.moves_per_second
        return out

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.passes} passes, {self.moves_applied} moves "
            f"({self.moves_kept} kept, {self.moves_rolled_back} rolled "
            f"back), {self.gain_updates} gain updates, "
            f"{self.zero_delta_skips} zero-delta skips, "
            f"{self.noncritical_net_skips} non-critical-net skips, "
            f"{self.total_seconds:.4f}s"
        )
