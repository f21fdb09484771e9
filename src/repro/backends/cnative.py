"""C backend: the flat-array kernels in C, loaded via ctypes.

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

Every kernel leaves its outputs bit-identical to the interpreted path it
replaces (``_kernels.c`` states the rules that make it so), as the
registry self-check, the cross-backend fuzz suite and the
oracle-equivalence suites pin.  The wrappers below, which the registry's
:class:`~repro.backends.registry.KernelSet` holds, are where the kernel
signatures are documented: they mutate caller-provided numpy arrays and
return ``None``, and they derive the shape arguments the C ABI needs.
A kernel that draws random numbers takes CPython's Mersenne-Twister
state as ``mt`` (the 624 words of ``Random.getstate()``) and
``mti_io[0]`` (the position), and leaves both where CPython would.

Every kernel reads the hypergraph CSR (``net_ptr``, ``net_pins``,
``vtx_ptr``, ``vtx_nets``) as the :class:`~repro.hypergraph.Hypergraph`
holds it: C-contiguous int32, passed by pointer and never copied, which
the wrappers check.  Cluster maps, orders and partition state are
int64.
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
_bind("hem_match", *([_PTR] * 8), _I64, _F64, _PTR, _PTR, _I64)
_bind("fc_cluster", *([_PTR] * 8), _I64, _F64, _PTR, _PTR, _I64)
_bind("hec_contract", *([_PTR] * 5), _I64, _F64, _I64, _PTR, _PTR,
      _I64, _I64)
_bind("contract", *([_PTR] * 11), _I64, _I64, _I64)
_bind("transpose", *([_PTR] * 4), _I64, _I64)
_bind("shuffle_rows", _PTR, _PTR, _PTR, _PTR, _I64, _I64)
_bind("bootstrap_tables", *([_PTR] * 6), _I64, _I64)


def _p(a):
    return a.ctypes.data


def _check_csr(*arrays) -> None:
    """Raise unless each array is C-contiguous int32, the layout the
    kernels index the CSR in (a wider array would be misread, and a
    conversion here would copy it on every call)."""
    for a in arrays:
        if a.dtype != np.int32 or not a.flags.c_contiguous or a.ndim != 1:
            raise ValueError(
                f"expected a C-contiguous int32 CSR array, got "
                f"{a.dtype}{list(a.shape)}"
            )


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
# Kernel wrappers
# ----------------------------------------------------------------------
def fm_pass(net_ptr, net_pins, vtx_ptr, vtx_nets, net_w, vwt,
            assign, fixed, pins0, pins1, pw, cut_io,
            lo, hi, slack, initial_legal, initial_distance,
            clip, update_all, tie_bias, order_code, best_choice,
            illegal_code, guard, max_abs, mt, mti_io, move_log, out):
    """One FM/CLIP pass of ``FMEngine._run_pass`` on flat arrays.

    Reads the CSR, the integer net and vertex weights and ``fixed`` (1 =
    never moves); leaves ``assign``/``pins0``/``pins1``/``pw`` (part
    weights) and ``cut_io[0]`` in the post-rollback state (the kept
    prefix), fills ``move_log[:mcount]`` with the speculative move
    sequence, and advances the MT state by exactly the draws the
    interpreted pass consumes (RANDOM insertion order only).  ``lo`` /
    ``hi`` / ``slack`` are the balance bounds; ``initial_legal`` and
    ``initial_distance`` describe the entry part weights; ``max_abs``
    bounds every gain key.

    Codes: ``tie_bias`` 0=away 1=part0 2=toward; ``order_code`` 0=LIFO
    1=FIFO 2=RANDOM; ``best_choice`` 0=first 1=last 2=balance;
    ``illegal_code`` 0=skip-bucket 1=skip-partition 2=scan-bucket.

    ``out = [mcount, best_k, ecount, selects, updates, zero_skips,
    net_skips, error]``.  ``error`` is 1 when a gain key left
    ``[-max_abs, max_abs]`` (the interpreted pass raises there) and 2
    when the bucket span ``2*max_abs+1`` reaches 2**31.  Either way the
    partition arrays are untouched, and the engine restores the MT state
    and runs the pass interpreted.
    """
    _check_csr(net_ptr, net_pins, vtx_ptr, vtx_nets)
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


def hem_match(net_ptr, net_pins, vtx_ptr, vtx_nets, vwt, score, order,
              fixed, use_fixed, max_cluster_weight, cluster, out):
    """Heavy-edge matching over the visit ``order``.

    ``score`` holds the per-net scores of
    :func:`repro.multilevel.matching._net_scores` (-1.0 marks a net
    matching skips); ``fixed[v]`` is the side ``v`` is fixed to, or -1
    (read only when ``use_fixed``).  The V-cycle's restricted matching
    passes the current sides as ``fixed``, so only vertices on the same
    side merge.  ``cluster`` must be -1-filled.  ``out = [next_id,
    touched]``; ``touched`` counts every pin slot of the scored nets,
    although neighbours already matched are skipped without
    accumulating their connectivity.
    """
    _check_csr(net_ptr, net_pins, vtx_ptr, vtx_nets)
    _LIB.hem_match(
        _p(net_ptr), _p(net_pins), _p(vtx_ptr), _p(vtx_nets),
        _p(vwt), _p(score), _p(order), _p(fixed), int(use_fixed),
        float(max_cluster_weight), _p(cluster), _p(out),
        cluster.shape[0],
    )


def fc_cluster(net_ptr, net_pins, vtx_ptr, vtx_nets, vwt, score, order,
               fixed, use_fixed, max_cluster_weight, cluster, out):
    """First-choice clustering over the visit ``order``; arguments as
    :func:`hem_match`.  ``out = [num_clusters, touched]``."""
    _check_csr(net_ptr, net_pins, vtx_ptr, vtx_nets)
    _LIB.fc_cluster(
        _p(net_ptr), _p(net_pins), _p(vtx_ptr), _p(vtx_nets),
        _p(vwt), _p(score), _p(order), _p(fixed), int(use_fixed),
        float(max_cluster_weight), _p(cluster), _p(out),
        cluster.shape[0],
    )


def hec_contract(net_ptr, net_pins, vwt, order, fixed, use_fixed,
                 max_cluster_weight, max_net_size, cluster, out):
    """Hyperedge coarsening over a net visit ``order`` the caller sorted
    heaviest first (it owns the RNG shuffle and the sort).  ``cluster``
    must be -1-filled.  ``out = [next_id, touched]``."""
    _check_csr(net_ptr, net_pins)
    _LIB.hec_contract(
        _p(net_ptr), _p(net_pins), _p(vwt), _p(order), _p(fixed),
        int(use_fixed), float(max_cluster_weight), int(max_net_size),
        _p(cluster), _p(out), cluster.shape[0], order.shape[0],
    )


def contract(net_ptr, net_pins, cluster_of, vwt, net_w, mapped,
             weights, coarse_net_ptr, coarse_pins, coarse_net_w, out):
    """Contract ``cluster_of`` into the coarse hypergraph's flat CSR,
    exactly as :func:`repro.multilevel.coarsen.coarsen` does: dense
    renumbering in first-encounter order, vertex-order weight sums,
    per-net pin projection with dedup (nets left with fewer than two
    pins drop), and identical nets merged into the one with the smallest
    original id, weights summed in ascending original-net order.

    Output buffers: ``mapped`` (n, int64), ``weights`` (<= n),
    ``coarse_net_ptr`` (m+1, int32), ``coarse_pins`` (<= total pins,
    int32), ``coarse_net_w`` (<= m).  ``out = [num_coarse,
    num_coarse_nets, num_coarse_pins, merged, dropped, error]``;
    ``error`` 1 flags a negative cluster id, and ``out[0]`` is then the
    first offending vertex.
    """
    _check_csr(net_ptr, net_pins, coarse_net_ptr, coarse_pins)
    _LIB.contract(
        _p(net_ptr), _p(net_pins), _p(cluster_of), _p(vwt), _p(net_w),
        _p(mapped), _p(weights), _p(coarse_net_ptr), _p(coarse_pins),
        _p(coarse_net_w), _p(out),
        cluster_of.shape[0], net_ptr.shape[0] - 1, net_pins.shape[0],
    )


def transpose(net_ptr, net_pins, vtx_ptr, vtx_nets):
    """The vertex -> nets CSR of ``(net_ptr, net_pins)``, written into
    ``vtx_ptr`` (n+1) and ``vtx_nets`` (one slot per pin), each vertex's
    nets ascending: the arrays ``Hypergraph`` builds with a stable sort,
    here by counting sort.  Every pin must lie in ``[0, n)``, as in any
    hypergraph's CSR."""
    _check_csr(net_ptr, net_pins, vtx_ptr, vtx_nets)
    if vtx_nets.shape != net_pins.shape:
        raise ValueError(
            f"vtx_nets holds {vtx_nets.shape[0]} slots for "
            f"{net_pins.shape[0]} pins"
        )
    _LIB.transpose(_p(net_ptr), _p(net_pins), _p(vtx_ptr), _p(vtx_nets),
                   vtx_ptr.shape[0] - 1, net_ptr.shape[0] - 1)


def shuffle_rows(mt, mti_io, order, perm):
    """Row ``s`` of ``perm`` is ``order`` after the ``s+1``-th in-place
    ``random.Random.shuffle`` from the given MT state; ``order`` is
    shuffled in place and the state advanced past every draw."""
    _LIB.shuffle_rows(_p(mt), _p(mti_io), _p(order), _p(perm),
                      perm.shape[0], perm.shape[1])


def bootstrap_tables(perm, runtimes, cuts, elapsed, cuts_out,
                     prefix_min):
    """Per row of ``perm``: the cumulative sum of ``runtimes``, the
    gathered ``cuts`` and their prefix minimum, accumulated left to
    right as ``np.cumsum`` / ``np.minimum.accumulate`` do."""
    _LIB.bootstrap_tables(_p(perm), _p(runtimes), _p(cuts),
                          _p(elapsed), _p(cuts_out), _p(prefix_min),
                          perm.shape[0], perm.shape[1])
