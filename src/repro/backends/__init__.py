"""Compiled kernel backends behind the frozen oracles (DESIGN.md §12).

Public surface: the registry.  The kernel module (:mod:`cnative`) is an
implementation detail imported lazily by
:func:`repro.backends.registry.get_backend`.
"""

from repro.backends.registry import (
    BACKEND_NAMES,
    ENV_VAR,
    BackendInfo,
    KernelSet,
    active_kernels,
    backend_status,
    default_backend,
    get_backend,
    reset,
    resolution_generation,
    resolve_backend,
    set_default_backend,
    warmup,
)

__all__ = [
    "BACKEND_NAMES",
    "ENV_VAR",
    "BackendInfo",
    "KernelSet",
    "active_kernels",
    "backend_status",
    "default_backend",
    "get_backend",
    "reset",
    "resolution_generation",
    "resolve_backend",
    "set_default_backend",
    "warmup",
]
