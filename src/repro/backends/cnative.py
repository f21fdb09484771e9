"""C backend: the :mod:`repro.backends.flatref` kernels in C, loaded
via ctypes.

``_kernels.c`` (shipped next to this module) is compiled once per
source hash with the system C compiler — ``-O2 -fPIC -shared`` and
deliberately **no** ``-ffast-math``, because every float operation must
round exactly like CPython/numpy.  The shared object is cached under the
first writable of:

1. ``$REPRO_CNATIVE_CACHE``,
2. ``_build/`` next to this module (git-ignored),
3. a per-user directory under the system temp dir.

Any compile or load failure raises at import time; the registry
converts that into an unavailable-with-reason record and falls back to
the interpreted paths, so machines without a C toolchain lose speed,
never correctness.

Every kernel's outputs are bit-identical to flatref's, as the registry
self-check, the cross-backend fuzz suite and the oracle-equivalence
suites pin.  The matching, contraction and bootstrap kernels translate
flatref line for line.  ``fm_pass`` runs the same pass on a packed
32-bit working set (one 16-byte record per vertex, a private copy of the
pin counts; see ``_kernels.c``) and declines — ``out[7] == 2``, caller
state untouched — when a size or the bucket span reaches 2**31, which
sends the engine to its interpreted loop.

The exported functions take the flatref signatures exactly (shape
arguments the C ABI needs are derived from the arrays here), so the
registry's :class:`~repro.backends.registry.KernelSet` wraps this
module and :mod:`repro.backends.flatref` interchangeably.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import List

import numpy as np

_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_PTR = ctypes.c_void_p


def _candidate_dirs(src: Path) -> List[Path]:
    dirs: List[Path] = []
    env = os.environ.get("REPRO_CNATIVE_CACHE")
    if env:
        dirs.append(Path(env))
    dirs.append(src.parent / "_build")
    uid = getattr(os, "getuid", lambda: 0)()
    dirs.append(Path(tempfile.gettempdir()) / f"repro-cnative-{uid}")
    return dirs


def _build_library() -> str:
    """Compile (or reuse) the shared object; returns its path."""
    src = Path(__file__).with_name("_kernels.c")
    digest = hashlib.sha256(src.read_bytes()).hexdigest()[:16]
    libname = f"_kernels-{digest}.so"
    dirs = _candidate_dirs(src)
    for d in dirs:
        lib = d / libname
        if lib.exists():
            return str(lib)
    cc = os.environ.get("CC", "cc")
    errors: List[str] = []
    for d in dirs:
        lib = d / libname
        tmp = d / f".{libname}.{os.getpid()}.tmp"
        try:
            d.mkdir(parents=True, exist_ok=True)
            proc = subprocess.run(
                [cc, "-O2", "-fPIC", "-shared",
                 "-o", str(tmp), str(src), "-lm"],
                capture_output=True, text=True, timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"{cc} failed: {proc.stderr.strip()[:500]}"
                )
            os.replace(tmp, lib)  # atomic: concurrent builds converge
            return str(lib)
        except Exception as exc:  # noqa: BLE001 - try the next dir
            errors.append(f"{d}: {type(exc).__name__}: {exc}")
            try:
                tmp.unlink()
            except OSError:
                pass
    raise RuntimeError(
        "could not build cnative kernels: " + "; ".join(errors)
    )


_LIB = ctypes.CDLL(_build_library())


def _bind(name: str, *argtypes) -> None:
    fn = getattr(_LIB, name)
    fn.argtypes = list(argtypes)
    fn.restype = None


_bind(
    "fm_pass",
    *([_PTR] * 12),                      # CSR + state arrays
    _F64, _F64, _F64, _I64, _F64,        # lo, hi, slack, legal, distance
    *([_I64] * 8),                       # clip..max_abs codes
    _PTR, _PTR, _PTR, _PTR,              # mt, mti_io, move_log, out
    _I64, _I64,                          # n, m
)
_bind("net_scores", _PTR, _PTR, _I64, _PTR, _I64)
_bind("hem_match", *([_PTR] * 8), _I64, _I64, _PTR, _F64, _PTR, _PTR,
      _I64)
_bind("fc_cluster", *([_PTR] * 8), _I64, _F64, _PTR, _PTR, _I64)
_bind("hec_contract", *([_PTR] * 5), _I64, _F64, _I64, _PTR, _PTR,
      _I64, _I64)
_bind("contract", *([_PTR] * 11), _I64, _I64, _I64)
_bind("shuffle_rows", _PTR, _PTR, _PTR, _PTR, _I64, _I64)
_bind("bootstrap_tables", *([_PTR] * 6), _I64, _I64)


def _p(a):
    return a.ctypes.data


def _check_state(arrays, size: int) -> None:
    """Raise unless each array is C-contiguous int64 of length ``size``:
    the kernels write through these pointers."""
    for a in arrays:
        if (a.dtype != np.int64 or not a.flags.c_contiguous
                or a.shape != (size,)):
            raise ValueError(
                f"expected C-contiguous int64[{size}], got "
                f"{a.dtype}{list(a.shape)}"
            )


# ----------------------------------------------------------------------
# flatref-signature wrappers
# ----------------------------------------------------------------------
def fm_pass(net_ptr, net_pins, vtx_ptr, vtx_nets, net_w, vwt,
            assign, fixed, pins0, pins1, pw, cut_io,
            lo, hi, slack, initial_legal, initial_distance,
            clip, update_all, tie_bias, order_code, best_choice,
            illegal_code, guard, max_abs, mt, mti_io, move_log, out):
    _check_state((assign, fixed, move_log), vtx_ptr.shape[0] - 1)
    _check_state((pins0, pins1), net_ptr.shape[0] - 1)
    _LIB.fm_pass(
        _p(net_ptr), _p(net_pins), _p(vtx_ptr), _p(vtx_nets),
        _p(net_w), _p(vwt), _p(assign), _p(fixed),
        _p(pins0), _p(pins1), _p(pw), _p(cut_io),
        float(lo), float(hi), float(slack),
        int(initial_legal), float(initial_distance),
        int(clip), int(update_all), int(tie_bias), int(order_code),
        int(best_choice), int(illegal_code), int(guard), int(max_abs),
        _p(mt), _p(mti_io), _p(move_log), _p(out),
        assign.shape[0], pins0.shape[0],
    )


def net_scores(net_ptr, net_w, max_net_size, score):
    _LIB.net_scores(_p(net_ptr), _p(net_w), int(max_net_size),
                    _p(score), score.shape[0])


def hem_match(net_ptr, net_pins, vtx_ptr, vtx_nets, vwt, score, order,
              fixed, use_fixed, use_assignment, assignment,
              max_cluster_weight, cluster, out):
    _LIB.hem_match(
        _p(net_ptr), _p(net_pins), _p(vtx_ptr), _p(vtx_nets),
        _p(vwt), _p(score), _p(order), _p(fixed),
        int(use_fixed), int(use_assignment), _p(assignment),
        float(max_cluster_weight), _p(cluster), _p(out),
        cluster.shape[0],
    )


def fc_cluster(net_ptr, net_pins, vtx_ptr, vtx_nets, vwt, score, order,
               fixed, use_fixed, max_cluster_weight, cluster, out):
    _LIB.fc_cluster(
        _p(net_ptr), _p(net_pins), _p(vtx_ptr), _p(vtx_nets),
        _p(vwt), _p(score), _p(order), _p(fixed), int(use_fixed),
        float(max_cluster_weight), _p(cluster), _p(out),
        cluster.shape[0],
    )


def hec_contract(net_ptr, net_pins, vwt, order, fixed, use_fixed,
                 max_cluster_weight, max_net_size, cluster, out):
    _LIB.hec_contract(
        _p(net_ptr), _p(net_pins), _p(vwt), _p(order), _p(fixed),
        int(use_fixed), float(max_cluster_weight), int(max_net_size),
        _p(cluster), _p(out), cluster.shape[0], order.shape[0],
    )


def contract(net_ptr, net_pins, cluster_of, vwt, net_w, mapped,
             weights, coarse_net_ptr, coarse_pins, coarse_net_w, out):
    _LIB.contract(
        _p(net_ptr), _p(net_pins), _p(cluster_of), _p(vwt), _p(net_w),
        _p(mapped), _p(weights), _p(coarse_net_ptr), _p(coarse_pins),
        _p(coarse_net_w), _p(out),
        cluster_of.shape[0], net_ptr.shape[0] - 1, net_pins.shape[0],
    )


def shuffle_rows(mt, mti_io, order, perm):
    _LIB.shuffle_rows(_p(mt), _p(mti_io), _p(order), _p(perm),
                      perm.shape[0], perm.shape[1])


def bootstrap_tables(perm, runtimes, cuts, elapsed, cuts_out,
                     prefix_min):
    _LIB.bootstrap_tables(_p(perm), _p(runtimes), _p(cuts),
                          _p(elapsed), _p(cuts_out), _p(prefix_min),
                          perm.shape[0], perm.shape[1])
