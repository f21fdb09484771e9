"""Zero-copy shared-memory transport for hypergraph instances.

A campaign orchestrator that ships every worker its own pickled copy of
every hypergraph pays an object-graph serialization per worker (and
again on every timeout-replacement respawn).  Mt-KaHyPar-style
shared-memory partitioners keep the instance data resident once and let
every thread read it; this module is the process-based equivalent: the
six flat CSR arrays of a :class:`~repro.hypergraph.hypergraph.Hypergraph`
are exported once into a single
:class:`multiprocessing.shared_memory.SharedMemory` segment, and workers
attach by *name* — a handle pickles as a few hundred bytes no matter how
large the instance is.

Layout of a segment (all slots 8 bytes, so every array is naturally
aligned)::

    int64   net_ptr        [num_nets + 1]
    int64   net_pins       [num_pins]
    int64   vtx_ptr        [num_vertices + 1]
    int64   vtx_nets       [num_pins]
    float64 vertex_weights [num_vertices]
    float64 net_weights    [num_nets]

Both incidence directions are exported, so attaching never rebuilds
the transpose.  The segment holds exactly the hypergraph's own
representation — read-only int64/float64 arrays — so an attached
hypergraph is an ordinary one; only where its memory lives differs
(:func:`attach_hypergraph`):

* ``materialize=True`` (default) — the arrays are copied out of the
  segment (one memcpy each) and the mapping is dropped immediately, so
  the hypergraph's lifetime is decoupled from the segment's.
* ``materialize=False`` — true zero copy: the read-only views into the
  segment are adopted by the trusted
  :meth:`~repro.hypergraph.hypergraph.Hypergraph.from_csr` constructor
  (``validate=False``); the mapping must stay alive until
  :func:`detach_handle`.

Either way the interpreted loops build their list views privately on
first use.

Lifecycle.  Segment names are process-wide kernel objects, so leaks
outlive the interpreter.  Three guards keep them bounded:

* a process-local refcounted registry (create/attach increment, detach
  decrements, the mapping closes at zero) makes double-close a no-op;
* :class:`SharedInstanceSet` — the campaign-scoped registry — unlinks
  every segment it created on ``close()`` / context-manager exit and is
  ``atexit``-registered as a backstop (guarded by PID so a forked worker
  can never unlink the supervisor's segments);
* CPython's ``multiprocessing.resource_tracker`` (shared by all
  ``multiprocessing`` children) unlinks registered segments when the
  tracked process tree dies, so even ``kill -9`` of the supervisor
  cannot leak.

When :mod:`multiprocessing.shared_memory` is unavailable (exotic
platforms, ``/dev/shm``-less containers), every entry point degrades to
a *pickling fallback*: the handle simply carries the hypergraph itself,
and attach returns it unchanged.  Callers never need to branch.
"""

from __future__ import annotations

import atexit
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph

try:  # pragma: no cover - import probe
    import numpy as _np
    from multiprocessing import shared_memory as _shared_memory

    HAVE_SHARED_MEMORY = True
except ImportError:  # pragma: no cover - exercised via _force_fallback
    _np = None
    _shared_memory = None
    HAVE_SHARED_MEMORY = False

#: Test hook: when True, every share falls back to pickling even though
#: shared_memory imported fine (exercises the degraded path everywhere).
_FORCE_FALLBACK = False


@dataclass(frozen=True)
class ShmHandle:
    """Picklable reference to a shared (or pickled-fallback) hypergraph.

    ``segment`` names the shared-memory block; sizes fix the array
    layout, so attaching needs no further metadata.  When ``segment`` is
    ``None`` the handle is a pickling fallback and ``fallback`` carries
    the hypergraph itself.
    """

    segment: Optional[str]
    num_vertices: int = 0
    num_nets: int = 0
    num_pins: int = 0
    vertex_names: Optional[Tuple[str, ...]] = None
    net_names: Optional[Tuple[str, ...]] = None
    fallback: Optional[Hypergraph] = None

    @property
    def is_shared(self) -> bool:
        return self.segment is not None

    def nbytes(self) -> int:
        """Total segment size implied by the layout (0 for fallback)."""
        if not self.is_shared:
            return 0
        slots = (
            (self.num_nets + 1)
            + self.num_pins
            + (self.num_vertices + 1)
            + self.num_pins
            + self.num_vertices
            + self.num_nets
        )
        return 8 * slots


class _Mapping:
    """Process-local refcounted view of one attached segment."""

    __slots__ = ("shm", "refs", "unlinked")

    def __init__(self, shm) -> None:
        self.shm = shm
        self.refs = 1
        #: Creator reference already dropped by :func:`unlink_handle`
        #: (makes double unlink a no-op on the refcount).
        self.unlinked = False


#: name -> mapping for every segment this process currently has open.
_MAPPINGS: Dict[str, _Mapping] = {}

#: Serializes every registry mutation (attach/detach/unlink/share).
#: Multiple campaigns detaching the same cached segment concurrently —
#: the service plane's steady state — must resolve to exactly one close
#: and at most one unlink, never a double-free; the lock makes the
#: refcount transitions atomic and keeps double-detach/double-unlink
#: no-ops under any thread interleaving.
_REGISTRY_LOCK = threading.RLock()

#: Mappings whose close was blocked by live zero-copy views (numpy
#: arrays exporting pointers into the mmap).  Held here so their
#: deferred close is retried after the views die; drained at exit.
_ZOMBIES: List[object] = []


def _close_quietly(shm) -> bool:
    """Close a mapping; defer (and remember) if views still pin it.

    A ``materialize=False`` hypergraph keeps numpy views into the
    segment, and ``mmap`` refuses to close while exported pointers
    exist.  Deferring is safe: the kernel frees the memory once the
    last mapping dies (at process exit at the latest), and the *name*
    is controlled by ``unlink`` which never needs the mapping closed.
    """
    try:
        shm.close()
        return True
    except BufferError:
        with _REGISTRY_LOCK:
            _ZOMBIES.append(shm)
        return False


def _drain_zombies() -> None:
    import gc

    if not _ZOMBIES:
        return
    gc.collect()
    with _REGISTRY_LOCK:
        pending = list(_ZOMBIES)
        for shm in pending:
            try:
                shm.close()
                _ZOMBIES.remove(shm)
            except BufferError:
                pass


atexit.register(_drain_zombies)


def _arrays(handle: ShmHandle, buf):
    """The six typed views into ``buf`` under ``handle``'s layout."""
    nv, nn, np_ = handle.num_vertices, handle.num_nets, handle.num_pins
    offset = 0
    out = []
    for count, dtype in (
        (nn + 1, _np.int64),
        (np_, _np.int64),
        (nv + 1, _np.int64),
        (np_, _np.int64),
        (nv, _np.float64),
        (nn, _np.float64),
    ):
        arr = _np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
        offset += 8 * count
        out.append(arr)
    return out


def shm_available() -> bool:
    """True when real shared-memory transport will be used."""
    return HAVE_SHARED_MEMORY and not _FORCE_FALLBACK


def share_hypergraph(hg: Hypergraph) -> ShmHandle:
    """Export ``hg``'s CSR arrays into a fresh shared-memory segment.

    The creating process keeps one registry reference to the segment
    (so views into it stay valid) but does **not** schedule an unlink:
    pair every share with :func:`unlink_handle`, or use
    :class:`SharedInstanceSet` which does it for you.  Falls back to a
    pickling handle when shared memory is unavailable or creation fails
    (e.g. ``/dev/shm`` full).
    """
    if not shm_available():
        return _fallback_handle(hg)
    handle = ShmHandle(
        segment="pending",
        num_vertices=hg.num_vertices,
        num_nets=hg.num_nets,
        num_pins=hg.num_pins,
        vertex_names=_names_tuple(hg, vertices=True),
        net_names=_names_tuple(hg, vertices=False),
    )
    try:
        shm = _shared_memory.SharedMemory(
            create=True, size=max(handle.nbytes(), 1)
        )
    except OSError:
        return _fallback_handle(hg)
    handle = ShmHandle(
        segment=shm.name,
        num_vertices=handle.num_vertices,
        num_nets=handle.num_nets,
        num_pins=handle.num_pins,
        vertex_names=handle.vertex_names,
        net_names=handle.net_names,
    )
    sources = hg.csr + (hg.vertex_weight_array, hg.net_weight_array)
    for target, source in zip(_arrays(handle, shm.buf), sources):
        target[:] = source
    with _REGISTRY_LOCK:
        _MAPPINGS[shm.name] = _Mapping(shm)
    return handle


def attach_hypergraph(
    handle: ShmHandle, materialize: bool = True
) -> Hypergraph:
    """Reconstruct a hypergraph from a handle.

    Fallback handles return their embedded hypergraph.  Shared handles
    attach the segment (reusing any mapping this process already holds)
    and adopt the arrays through the trusted ``from_csr`` constructor —
    validation was done when the original hypergraph was built.

    With ``materialize=True`` the arrays are copied and the mapping is
    released before returning; with ``materialize=False`` the returned
    hypergraph reads the segment in place (read-only views) and the
    caller owes one :func:`detach_handle` when done with it.
    """
    if not handle.is_shared:
        if handle.fallback is None:
            raise ValueError("fallback handle carries no hypergraph")
        return handle.fallback
    if not HAVE_SHARED_MEMORY:
        raise RuntimeError(
            f"handle references shared segment {handle.segment!r} but "
            "multiprocessing.shared_memory is unavailable in this process"
        )
    mapping = _attach_mapping(handle.segment)
    try:
        arrays = _arrays(handle, mapping.shm.buf)
        if materialize:
            arrays = [a.copy() for a in arrays]
        net_ptr, net_pins, vtx_ptr, vtx_nets, vw, nw = arrays
        return Hypergraph.from_csr(
            net_ptr,
            net_pins,
            handle.num_vertices,
            vw,
            nw,
            vertex_names=(
                list(handle.vertex_names) if handle.vertex_names else None
            ),
            net_names=list(handle.net_names) if handle.net_names else None,
            transpose=(vtx_ptr, vtx_nets),
        )
    finally:
        if materialize:
            detach_handle(handle)


def detach_handle(handle: ShmHandle) -> None:
    """Drop one reference to ``handle``'s segment mapping.

    The mapping closes when the last reference goes; extra detaches
    (double close) are no-ops.  Never unlinks.
    """
    if not handle.is_shared:
        return
    with _REGISTRY_LOCK:
        mapping = _MAPPINGS.get(handle.segment)
        if mapping is None:
            return
        mapping.refs -= 1
        if mapping.refs > 0:
            return
        del _MAPPINGS[handle.segment]
        shm = mapping.shm
    _close_quietly(shm)


def unlink_handle(handle: ShmHandle) -> None:
    """Destroy ``handle``'s segment (idempotent; fallback = no-op).

    Drops the creator's reference, then asks the kernel to remove the
    name.  Exactly one process — the creator — should unlink;
    :class:`SharedInstanceSet` enforces that.  The mapping itself is
    closed only when no concurrent attacher still references it —
    closing under a live reader would release the buffer out from under
    its views — so under churn the last :func:`detach_handle` performs
    the close, and late attachers observe the normal
    ``FileNotFoundError`` once the name is gone.
    """
    if not handle.is_shared or not HAVE_SHARED_MEMORY:
        return
    close_now = None
    with _REGISTRY_LOCK:
        mapping = _MAPPINGS.get(handle.segment)
        if mapping is not None:
            shm = mapping.shm
            if not mapping.unlinked:
                mapping.unlinked = True
                mapping.refs -= 1
                if mapping.refs <= 0:
                    del _MAPPINGS[handle.segment]
                    close_now = shm
    try:
        if mapping is None:
            shm = _shared_memory.SharedMemory(name=handle.segment)
            close_now = shm
        shm.unlink()
    except FileNotFoundError:
        pass  # already unlinked (e.g. by the resource tracker)
    if close_now is not None:
        _close_quietly(close_now)


def _attach_mapping(name: str) -> _Mapping:
    with _REGISTRY_LOCK:
        mapping = _MAPPINGS.get(name)
        if mapping is not None:
            mapping.refs += 1
            return mapping
        shm = _shared_memory.SharedMemory(name=name)
        mapping = _Mapping(shm)
        _MAPPINGS[name] = mapping
        return mapping


def _fallback_handle(hg: Hypergraph) -> ShmHandle:
    return ShmHandle(segment=None, fallback=hg)


def _names_tuple(hg: Hypergraph, vertices: bool) -> Optional[Tuple[str, ...]]:
    names = hg._vertex_names if vertices else hg._net_names
    return tuple(names) if names else None


# ----------------------------------------------------------------------
class SharedInstanceSet:
    """Campaign-scoped registry of shared instances.

    Shares every hypergraph in ``instances`` on construction (degrading
    per instance to pickling fallbacks when shared memory is missing or
    refuses the allocation) and exposes the resulting picklable
    ``handles``.  ``close()`` — or context-manager exit, or the
    ``atexit`` backstop — unlinks every segment this set created,
    exactly once.  A forked child inheriting this object cannot unlink:
    ``close()`` is PID-guarded to the creating process.
    """

    def __init__(
        self,
        instances: Dict[str, Hypergraph],
        use_shared_memory: bool = True,
    ) -> None:
        self.handles = {}
        self._pid = os.getpid()
        self._closed = False
        for name, hg in instances.items():
            if use_shared_memory:
                self.handles[name] = share_hypergraph(hg)
            else:
                self.handles[name] = _fallback_handle(hg)
        atexit.register(self.close)

    @property
    def num_shared(self) -> int:
        """Instances actually in shared memory (rest are fallbacks)."""
        return sum(1 for h in self.handles.values() if h.is_shared)

    def segment_names(self) -> List[str]:
        return [h.segment for h in self.handles.values() if h.is_shared]

    def close(self) -> None:
        """Unlink every created segment (idempotent, creator-PID only)."""
        if self._closed or os.getpid() != self._pid:
            return
        self._closed = True
        for handle in self.handles.values():
            unlink_handle(handle)
        atexit.unregister(self.close)

    def __enter__(self) -> "SharedInstanceSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
