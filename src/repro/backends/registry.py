"""Backend registry: named compiled-kernel sets behind the frozen oracles.

The registry maps backend names to :class:`KernelSet` objects providing
the three hottest loops (fused FM pass, matching/contraction, bootstrap
shuffle/cumsum/prefix-min) as flat-array kernels.  Registered backends:

* ``numpy`` — the always-available default: *no* kernel set; callers run
  the interpreted numpy/Python paths, which are the reference every
  kernel is held to.
* ``cnative`` — the C kernels (:mod:`repro.backends.cnative`), compiled
  once per source hash with the system C compiler and loaded via
  ctypes.  Unavailable when no working compiler is found.

:func:`backend_status` reports every registered backend's availability
and, for an unavailable one, the reason.

**Activation contract.**  A backend activates lazily on first request:
import/compile, then the mandatory bit-identity self-check against the
interpreted paths (:mod:`repro.backends.selfcheck`), so a compiled
kernel is selectable only if bit-identical.  Any import, compile or
self-check failure marks the backend unavailable with the reason
recorded in :class:`BackendInfo.reason` — resolution then falls back to
``numpy`` rather than raising, so a numpy-only install runs everything.

**Resolution order** (:func:`resolve_backend`): explicit argument >
process default (:func:`set_default_backend`, which workers re-apply
from the spawn payload) > ``REPRO_BACKEND`` environment variable >
``numpy``.  The name ``auto`` is an alias for ``cnative``.  Any other
name resolves to ``numpy`` with an "unknown backend" note.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Tuple, Union

#: Registered backend names, in documentation order.
BACKEND_NAMES: Tuple[str, ...] = ("numpy", "cnative")

#: Environment variable consulted by :func:`resolve_backend`.
ENV_VAR = "REPRO_BACKEND"


class KernelSet:
    """The flat-array kernels one backend provides.

    The signatures are documented on the wrappers in
    :mod:`repro.backends.cnative`: every kernel mutates caller-provided
    numpy arrays and returns ``None``.
    """

    __slots__ = (
        "name",
        "fm_pass",
        "hem_match",
        "fc_cluster",
        "hec_contract",
        "contract",
        "transpose",
        "shuffle_rows",
        "bootstrap_tables",
    )

    def __init__(self, name: str, mod) -> None:
        self.name = name
        self.fm_pass = mod.fm_pass
        self.hem_match = mod.hem_match
        self.fc_cluster = mod.fc_cluster
        self.hec_contract = mod.hec_contract
        self.contract = mod.contract
        self.transpose = mod.transpose
        self.shuffle_rows = mod.shuffle_rows
        self.bootstrap_tables = mod.bootstrap_tables


class BackendInfo:
    """Activation state of one registered backend."""

    __slots__ = ("name", "available", "reason", "kernels",
                 "compile_seconds")

    def __init__(
        self,
        name: str,
        available: bool,
        reason: str = "",
        kernels: Optional[KernelSet] = None,
        compile_seconds: float = 0.0,
    ) -> None:
        self.name = name
        self.available = available
        self.reason = reason
        self.kernels = kernels
        self.compile_seconds = compile_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "available": self.available,
            "reason": self.reason,
            "compiled": self.kernels is not None,
            "compile_seconds": self.compile_seconds,
        }


#: Lazily-populated activation cache (name -> BackendInfo).
_ACTIVATED: Dict[str, BackendInfo] = {}

#: Serializes check-and-activate, so a backend is compiled and
#: self-checked once per process: in the service process the scheduler
#: and server threads can both be first to resolve a backend while
#: building a report.
_LOCK = threading.Lock()


def _new_lock() -> None:
    global _LOCK
    _LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    # A worker forked while another thread held the lock would inherit
    # it held forever; the child starts with a free one instead.
    os.register_at_fork(after_in_child=_new_lock)

#: Process-wide default backend name (None = env var / numpy).
_DEFAULT: Optional[str] = None

#: Bumped whenever resolution inputs change (default set, cache reset).
#: Long-lived engines cache their resolved kernel set keyed on this
#: generation, so a later :func:`set_default_backend` — e.g. a reused
#: heuristic object crossing execution contexts — is picked up instead
#: of silently running on a stale resolution.
_GENERATION = 0


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------
def _activate(name: str) -> BackendInfo:
    """Build (import/compile + self-check) one backend; never raises."""
    if name == "numpy":
        return BackendInfo("numpy", True, reason="interpreted reference")
    t0 = time.perf_counter()
    try:
        from repro.backends import cnative

        ks = KernelSet("cnative", cnative)
    except Exception as exc:  # noqa: BLE001 - fallback contract
        return BackendInfo(
            name, False,
            reason=f"activation failed: {type(exc).__name__}: {exc}",
        )
    # Mandatory bit-identity self-check against the interpreted paths.
    try:
        from repro.backends.selfcheck import run_selfcheck

        run_selfcheck(ks)
    except Exception as exc:  # noqa: BLE001 - fallback contract
        return BackendInfo(
            name, False,
            reason=f"self-check failed: {type(exc).__name__}: {exc}",
        )
    dt = time.perf_counter() - t0
    return BackendInfo(name, True, kernels=ks, compile_seconds=dt,
                       reason="activated (self-check passed)")


def get_backend(name: str) -> BackendInfo:
    """Activation state of ``name`` (activating it on first request)."""
    with _LOCK:
        info = _ACTIVATED.get(name)
        if info is None:
            if name not in BACKEND_NAMES:
                info = BackendInfo(name, False,
                                   reason=f"unknown backend {name!r}")
            else:
                info = _activate(name)
            _ACTIVATED[name] = info
    return info


def backend_status() -> List[Dict[str, object]]:
    """Activation state of every registered backend (activates all)."""
    return [get_backend(name).as_dict() for name in BACKEND_NAMES]


def reset(name: Optional[str] = None) -> None:
    """Drop cached activation state (tests use this to re-probe)."""
    global _GENERATION
    if name is None:
        _ACTIVATED.clear()
    else:
        _ACTIVATED.pop(name, None)
    _GENERATION += 1


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def set_default_backend(name: Optional[str]) -> None:
    """Set the process-wide default backend (None restores env/numpy)."""
    global _DEFAULT, _GENERATION
    _DEFAULT = name
    _GENERATION += 1


def default_backend() -> Optional[str]:
    return _DEFAULT


def resolution_generation() -> int:
    """Monotonic counter for caching resolved kernel sets: re-resolve
    when this changes (default backend set, activation cache reset)."""
    return _GENERATION


def resolve_backend(explicit: Optional[str] = None) -> Tuple[str, str]:
    """Resolve a backend request to an *available* backend.

    Returns ``(name, note)`` where ``name`` is always available
    (``numpy`` in the worst case) and ``note`` records why a fallback
    happened (empty when the request was honored directly).
    """
    requested = explicit
    if requested is None:
        requested = _DEFAULT
    if requested is None:
        requested = os.environ.get(ENV_VAR) or None
    if requested is None or requested == "numpy":
        return "numpy", ""
    name = "cnative" if requested == "auto" else requested
    info = get_backend(name)
    if info.available:
        return name, ""
    note = f"{name} unavailable ({info.reason})"
    if name != requested:
        note = f"{requested}: {note}"
    return "numpy", note


def active_kernels(
    explicit: Union[None, str, KernelSet] = None,
) -> Tuple[str, Optional[KernelSet], str]:
    """Resolve and activate: ``(name, kernels_or_None, fallback_note)``.

    ``kernels`` is ``None`` exactly when the resolved backend is
    ``numpy`` — callers then run their interpreted paths unchanged.  A
    :class:`KernelSet` passed in place of a name is returned as it is:
    the activation self-check runs a candidate that way through the
    layers' own entry points before the registry hands it out.
    """
    if isinstance(explicit, KernelSet):
        return explicit.name, explicit, ""
    name, note = resolve_backend(explicit)
    if name == "numpy":
        return name, None, note
    return name, get_backend(name).kernels, note


def warmup(explicit: Optional[str] = None) -> Tuple[str, float]:
    """Force activation (compile + self-check) of the resolved backend;
    returns ``(name, compile_seconds)``.

    Workers call this once at payload-attach time so compilation is
    charged to ``PerfCounters.compile_seconds`` instead of leaking into
    the first trial's runtime.  ``compile_seconds`` is nonzero only when
    *this call* triggered the activation — a fork-inherited or earlier
    activation was already paid (and charged) elsewhere, so repeated
    warm-ups never double-bill the campaign.
    """
    already = set(_ACTIVATED)
    name, _ = resolve_backend(explicit)
    if name == "numpy" or name in already:
        return name, 0.0
    return name, get_backend(name).compile_seconds
