"""Shared-memory instance plane: lifecycle, equivalence, fallbacks.

The satellite contract of the shm PR: attach/detach/unlink refcounting,
double-close safety, leak detection by SharedMemory name probing, and
the pickling fallback path all get direct coverage here (the end-to-end
orchestrator paths are covered in test_orchestrate.py).
"""

import pickle

import pytest

from repro.core import FMPartitioner
from repro.hypergraph import shm
from repro.hypergraph.hypergraph import Hypergraph, _build_transpose
from repro.instances import suite_instance


@pytest.fixture
def hg():
    return suite_instance("ibm01s", scale=64)


def _segment_exists(name: str) -> bool:
    """Probe the kernel namespace for a shared-memory segment."""
    try:
        probe = shm._shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


needs_shm = pytest.mark.skipif(
    not shm.HAVE_SHARED_MEMORY, reason="no multiprocessing.shared_memory"
)


# ----------------------------------------------------------------------
@needs_shm
class TestRoundTrip:
    def test_materialized_attach_is_equivalent(self, hg):
        handle = hg.to_shared()
        try:
            got = Hypergraph.from_shared(handle)
            assert got.num_vertices == hg.num_vertices
            assert got.num_nets == hg.num_nets
            assert got.raw_csr == tuple(list(a) for a in hg.raw_csr)
            assert got.vertex_weights == hg.vertex_weights
            assert got.net_weights == hg.net_weights
            assert all(
                (a == b).all() and not a.flags.writeable
                for a, b in zip(got.csr, hg.csr)
            )
        finally:
            shm.unlink_handle(handle)

    def test_materialized_arrays_are_plain_lists(self, hg):
        handle = hg.to_shared()
        try:
            got = Hypergraph.from_shared(handle)
            assert all(type(a) is list for a in got.raw_csr)
            assert type(got.raw_csr[0][0]) is int
        finally:
            shm.unlink_handle(handle)

    def test_zero_copy_views_give_bit_identical_cuts(self, hg):
        handle = hg.to_shared()
        try:
            views = Hypergraph.from_shared(handle, materialize=False)
            ref = FMPartitioner().partition(hg, seed=7)
            got = FMPartitioner().partition(views, seed=7)
            assert got.cut == ref.cut
            assert got.assignment == ref.assignment
            assert got.legal == ref.legal
            del views
        finally:
            shm.detach_handle(handle)
            shm.unlink_handle(handle)

    def test_zero_copy_views_are_read_only(self, hg):
        handle = hg.to_shared()
        try:
            views = Hypergraph.from_shared(handle, materialize=False)
            with pytest.raises((ValueError, RuntimeError)):
                views.csr[1][0] = 999
            del views
        finally:
            shm.detach_handle(handle)
            shm.unlink_handle(handle)

    def test_every_zero_copy_array_rejects_writes(self, hg):
        """The in-run proposal plane computes clustering proposals on
        zero-copy views from several worker processes at once; its
        safety argument is that every attached array is a read-only
        numpy view, so an accidental in-place write raises instead of
        corrupting the instance under every other worker."""
        import numpy as np

        handle = hg.to_shared()
        try:
            views = Hypergraph.from_shared(handle, materialize=False)
            # The weight *properties* return copies; the arrays the
            # kernels read are the adopted segment-backed ones.
            arrays = list(views.csr) + [
                views.vertex_weight_array, views.net_weight_array
            ]
            assert len(arrays) == 6
            for arr in arrays:
                assert isinstance(arr, np.ndarray)
                assert not arr.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    arr[0] = arr[0]
            del views, arrays
        finally:
            shm.detach_handle(handle)
            shm.unlink_handle(handle)

    def test_names_survive_the_round_trip(self):
        hg = Hypergraph(
            [[0, 1], [1, 2]],
            num_vertices=3,
            vertex_names=["a", "b", "c"],
            net_names=["n0", "n1"],
        )
        handle = hg.to_shared()
        try:
            got = Hypergraph.from_shared(handle)
            assert [got.vertex_name(v) for v in range(3)] == ["a", "b", "c"]
            assert [got.net_name(e) for e in range(2)] == ["n0", "n1"]
        finally:
            shm.unlink_handle(handle)

    def test_handle_pickles_small(self, hg):
        handle = hg.to_shared()
        try:
            blob = pickle.dumps(handle)
            # The whole point: handle size is independent of |pins|.
            assert len(blob) < 1024 < handle.nbytes()
            clone = pickle.loads(blob)
            got = Hypergraph.from_shared(clone)
            assert got.num_pins == hg.num_pins
        finally:
            shm.unlink_handle(handle)


# ----------------------------------------------------------------------
@needs_shm
class TestLifecycle:
    def test_refcounted_attach_detach(self, hg):
        handle = hg.to_shared()
        name = handle.segment
        try:
            assert shm._MAPPINGS[name].refs == 1  # creator's reference
            a = Hypergraph.from_shared(handle, materialize=False)
            b = Hypergraph.from_shared(handle, materialize=False)
            assert shm._MAPPINGS[name].refs == 3
            del a
            shm.detach_handle(handle)
            assert shm._MAPPINGS[name].refs == 2
            del b
            shm.detach_handle(handle)
            assert shm._MAPPINGS[name].refs == 1
        finally:
            shm.unlink_handle(handle)
        assert name not in shm._MAPPINGS

    def test_materialized_attach_leaves_no_reference(self, hg):
        handle = hg.to_shared()
        name = handle.segment
        try:
            before = shm._MAPPINGS[name].refs
            Hypergraph.from_shared(handle)  # materialize drops its ref
            assert shm._MAPPINGS[name].refs == before
        finally:
            shm.unlink_handle(handle)

    def test_double_detach_and_double_unlink_are_noops(self, hg):
        handle = hg.to_shared()
        shm.detach_handle(handle)  # drops the creator reference
        shm.detach_handle(handle)  # double close: no-op
        shm.unlink_handle(handle)
        shm.unlink_handle(handle)  # double unlink: no-op
        assert not _segment_exists(handle.segment)

    def test_unlink_removes_the_name(self, hg):
        handle = hg.to_shared()
        assert _segment_exists(handle.segment)
        shm.unlink_handle(handle)
        assert not _segment_exists(handle.segment)

    def test_deferred_close_with_live_views(self, hg):
        """Unlinking while zero-copy views are alive must not fail or
        leak the name; the blocked close drains once the views die."""
        handle = hg.to_shared()
        views = Hypergraph.from_shared(handle, materialize=False)
        shm.detach_handle(handle)
        shm.unlink_handle(handle)  # views alive: close deferred
        assert not _segment_exists(handle.segment)
        assert views.num_vertices == hg.num_vertices  # still readable
        del views
        shm._drain_zombies()
        assert not shm._ZOMBIES


# ----------------------------------------------------------------------
@needs_shm
class TestConcurrentLifecycle:
    """Multi-campaign hygiene: the service detaches and unlinks one
    segment from several threads at once; every interleaving must end
    with the name gone, no exception, no leaked registry entry."""

    def test_concurrent_detach_from_many_threads(self, hg):
        import threading

        handle = hg.to_shared()
        n = 8
        for _ in range(n):
            Hypergraph.from_shared(handle, materialize=False)
        assert shm._MAPPINGS[handle.segment].refs == n + 1

        barrier = threading.Barrier(n)
        errors = []

        def detach():
            try:
                barrier.wait()
                shm.detach_handle(handle)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=detach) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Exactly the creator reference must remain: no lost or double
        # decrements under the race.
        assert shm._MAPPINGS[handle.segment].refs == 1
        shm.unlink_handle(handle)
        assert not _segment_exists(handle.segment)

    def test_concurrent_unlink_is_idempotent(self, hg):
        import threading

        handle = hg.to_shared()
        barrier = threading.Barrier(4)
        errors = []

        def unlink():
            try:
                barrier.wait()
                shm.unlink_handle(handle)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=unlink) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert not _segment_exists(handle.segment)
        assert handle.segment not in shm._MAPPINGS

    def test_unlink_while_attach_detach_churn(self, hg):
        """Unlink racing attach/detach churn from other campaigns: the
        winner unlinks; attachers either succeed (and their views stay
        readable) or observe the normal FileNotFoundError."""
        import threading

        handle = hg.to_shared()
        stop = threading.Event()
        errors = []

        def churn():
            while not stop.is_set():
                try:
                    views = Hypergraph.from_shared(
                        handle, materialize=False
                    )
                    assert views.num_vertices == hg.num_vertices
                    del views
                    shm.detach_handle(handle)
                except FileNotFoundError:
                    return  # lost the race to the unlink: expected
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=churn) for _ in range(3)]
        for t in threads:
            t.start()
        shm.unlink_handle(handle)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        assert not _segment_exists(handle.segment)
        shm._drain_zombies()

    def test_double_unlink_after_concurrent_detach(self, hg):
        """The service shutdown path: cache close and a finishing job
        may both try to unlink after workers detached."""
        handle = hg.to_shared()
        shm.detach_handle(handle)
        shm.unlink_handle(handle)
        shm.unlink_handle(handle)  # second campaign's release: no-op
        assert not _segment_exists(handle.segment)


# ----------------------------------------------------------------------
@needs_shm
class TestSharedInstanceSet:
    def test_context_manager_unlinks_everything(self, hg):
        with shm.SharedInstanceSet({"x": hg}) as inst:
            names = inst.segment_names()
            assert inst.num_shared == 1
            assert all(_segment_exists(n) for n in names)
        assert all(not _segment_exists(n) for n in names)

    def test_close_is_idempotent(self, hg):
        inst = shm.SharedInstanceSet({"x": hg})
        inst.close()
        inst.close()
        assert all(not _segment_exists(n) for n in inst.segment_names())

    def test_forked_child_pid_guard(self, hg):
        """A child that inherited the set must not unlink the parent's
        segments; close() is guarded by creating PID."""
        inst = shm.SharedInstanceSet({"x": hg})
        try:
            names = inst.segment_names()
            inst._pid = inst._pid + 1  # simulate: we are not the creator
            inst.close()
            assert all(_segment_exists(n) for n in names)
        finally:
            inst._pid = shm.os.getpid()
            inst.close()

    def test_disabled_shared_memory_yields_fallbacks(self, hg):
        inst = shm.SharedInstanceSet({"x": hg}, use_shared_memory=False)
        try:
            assert inst.num_shared == 0
            handle = inst.handles["x"]
            assert not handle.is_shared
            assert Hypergraph.from_shared(handle) is hg
        finally:
            inst.close()


# ----------------------------------------------------------------------
class TestFallback:
    def test_forced_fallback_round_trip(self, hg, monkeypatch):
        monkeypatch.setattr(shm, "_FORCE_FALLBACK", True)
        handle = hg.to_shared()
        assert not handle.is_shared
        assert Hypergraph.from_shared(handle) is hg
        # Lifecycle calls degrade to no-ops on fallback handles.
        shm.detach_handle(handle)
        shm.unlink_handle(handle)

    @needs_shm
    def test_allocation_failure_degrades_to_fallback(self, hg, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(shm._shared_memory, "SharedMemory", refuse)
        handle = hg.to_shared()
        assert not handle.is_shared
        assert Hypergraph.from_shared(handle) is hg

    def test_fallback_handle_without_payload_rejected(self):
        with pytest.raises(ValueError):
            shm.attach_hypergraph(shm.ShmHandle(segment=None))

    def test_fallback_pickles_whole_instance(self, hg, monkeypatch):
        monkeypatch.setattr(shm, "_FORCE_FALLBACK", True)
        handle = hg.to_shared()
        clone = pickle.loads(pickle.dumps(handle))
        got = Hypergraph.from_shared(clone)
        assert got is not hg
        assert got.raw_csr == hg.raw_csr
        assert got.vertex_weights == hg.vertex_weights


# ----------------------------------------------------------------------
class TestFromCsrTranspose:
    def test_supplied_transpose_is_adopted(self, hg):
        net_ptr, net_pins, vtx_ptr, vtx_nets = hg.raw_csr
        built = Hypergraph.from_csr(
            list(net_ptr),
            list(net_pins),
            hg.num_vertices,
            hg.vertex_weights,
            hg.net_weights,
            transpose=(list(vtx_ptr), list(vtx_nets)),
        )
        rebuilt = _build_transpose(hg.num_vertices, *hg.csr[:2])
        assert (built.raw_csr[2], built.raw_csr[3]) == tuple(
            a.tolist() for a in rebuilt
        )
        assert built.nets_of(0) == hg.nets_of(0)
        assert built.degree(hg.num_vertices - 1) == hg.degree(
            hg.num_vertices - 1
        )
