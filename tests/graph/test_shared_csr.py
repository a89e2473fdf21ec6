"""Tests for shared-memory CSR export (:mod:`repro.graph.shm`).

The process-mode serving layer ships frozen snapshot buffers to worker
processes through :class:`SharedArrayBundle`; these tests pin the ownership
contract (create → attach → unlink), the zero-copy property, and the
round trip of a snapshot through the codec (:mod:`repro.engine.codec`) and
a shared bundle that shard workers rely on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import CTCEngine
from repro.engine.codec import decode_snapshot, encode_snapshot
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph, erdos_renyi_graph
from repro.graph.shm import SharedArrayBundle
from repro.graph.simple_graph import UndirectedGraph


@pytest.fixture
def csr():
    return CSRGraph.from_graph(erdos_renyi_graph(30, 0.2, seed=7))


class TestSharedArrayBundle:
    def test_roundtrip_values_and_objects(self):
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 5),
        }
        with SharedArrayBundle.create("repro_test_rt", arrays, {"tag": "x"}) as owner:
            attached = SharedArrayBundle.attach(owner.meta)
            try:
                np.testing.assert_array_equal(attached["a"], arrays["a"])
                np.testing.assert_array_equal(attached["b"], arrays["b"])
                assert attached.objects == {"tag": "x"}
                assert attached.array_names() == ["a", "b"]
                assert "a" in attached and "missing" not in attached
            finally:
                attached.close()

    def test_attached_views_share_pages_with_owner(self):
        arrays = {"a": np.zeros(8, dtype=np.int64)}
        with SharedArrayBundle.create("repro_test_zc", arrays) as owner:
            attached = SharedArrayBundle.attach(owner.meta)
            try:
                owner["a"][3] = 42  # owner views stay writable
                assert attached["a"][3] == 42  # same physical pages, no copy
            finally:
                attached.close()

    def test_attached_views_are_read_only(self):
        with SharedArrayBundle.create(
            "repro_test_ro", {"a": np.arange(4, dtype=np.int64)}
        ) as owner:
            attached = SharedArrayBundle.attach(owner.meta)
            try:
                with pytest.raises(ValueError):
                    attached["a"][0] = 99
            finally:
                attached.close()

    def test_unlink_then_attach_fails(self):
        owner = SharedArrayBundle.create(
            "repro_test_ul", {"a": np.arange(4, dtype=np.int64)}
        )
        meta = owner.meta
        owner.unlink()
        with pytest.raises(FileNotFoundError):
            SharedArrayBundle.attach(meta)

    def test_only_owner_may_unlink(self):
        with SharedArrayBundle.create(
            "repro_test_own", {"a": np.arange(4, dtype=np.int64)}
        ) as owner:
            attached = SharedArrayBundle.attach(owner.meta)
            try:
                with pytest.raises(ValueError):
                    attached.unlink()
            finally:
                attached.close()

    def test_zero_size_arrays_survive(self):
        with SharedArrayBundle.create(
            "repro_test_z", {"empty": np.empty(0, dtype=np.int64)}
        ) as owner:
            attached = SharedArrayBundle.attach(owner.meta)
            try:
                assert attached["empty"].size == 0
                assert attached["empty"].dtype == np.int64
            finally:
                attached.close()

    def test_close_is_idempotent(self):
        owner = SharedArrayBundle.create(
            "repro_test_ci", {"a": np.arange(4, dtype=np.int64)}
        )
        owner.close()
        owner.close()
        owner.unlink()


def _publish(prefix, csr, trussness, incidence=None):
    """Encode a snapshot into a shared-memory bundle, as a process-mode shard is."""
    arrays, labels = encode_snapshot(csr, trussness, incidence)
    return SharedArrayBundle.create(prefix, arrays, objects={"labels": labels})


def _attached_snapshot(bundle):
    """Decode a snapshot from an attached view of ``bundle``, as a shard worker does."""
    attached = SharedArrayBundle.attach(bundle.meta)
    return decode_snapshot(attached, attached.objects["labels"])


class TestCSRSharedRoundtrip:
    def test_from_shared_reproduces_the_graph(self, csr):
        trussness = np.full(csr.number_of_edges(), 3, dtype=np.int64)
        with _publish("repro_test_csr", csr, trussness) as bundle:
            clone, _, _ = _attached_snapshot(bundle)
            assert clone.number_of_nodes() == csr.number_of_nodes()
            assert clone.number_of_edges() == csr.number_of_edges()
            np.testing.assert_array_equal(clone.indptr, csr.indptr)
            np.testing.assert_array_equal(clone.indices, csr.indices)
            np.testing.assert_array_equal(clone.edge_u, csr.edge_u)
            np.testing.assert_array_equal(clone.edge_v, csr.edge_v)
            assert clone.to_graph() == csr.to_graph()

    def test_from_shared_is_zero_copy(self, csr):
        trussness = np.full(csr.number_of_edges(), 3, dtype=np.int64)
        with _publish("repro_test_csrz", csr, trussness) as bundle:
            clone, _, _ = decode_snapshot(bundle, bundle.objects["labels"])
            for name in ("indptr", "indices", "edge_u", "edge_v"):
                assert np.shares_memory(getattr(clone, name), bundle[name])

    def test_from_shared_preserves_labels(self):
        graph = UndirectedGraph()
        graph.add_edge("alpha", "beta")
        graph.add_edge("beta", ("tuple", 3))
        csr = CSRGraph.from_graph(graph)
        trussness = np.full(csr.number_of_edges(), 2, dtype=np.int64)
        with _publish("repro_test_lbl", csr, trussness) as bundle:
            clone, _, incidence = _attached_snapshot(bundle)
            assert clone.to_graph() == graph
            assert incidence is None

    def test_extra_arrays_ride_along(self, csr):
        trussness = np.full(csr.number_of_edges(), 3, dtype=np.int64)
        with _publish("repro_test_x", csr, trussness) as b:
            np.testing.assert_array_equal(b["trussness"], trussness)


class TestEngineFromArrays:
    def test_seeded_engine_answers_like_a_fresh_one(self):
        graph = erdos_renyi_graph(30, 0.25, seed=3)
        fresh = CTCEngine(graph)
        snapshot = fresh.snapshot()
        with _publish("repro_test_seed", snapshot.csr, snapshot.trussness) as bundle:
            clone_csr, trussness, incidence = _attached_snapshot(bundle)
            seeded = CTCEngine.from_arrays(clone_csr, trussness, incidence=incidence)
            assert seeded.snapshot().version == 0
            # Seeding skips the decomposition entirely: the first snapshot
            # resolution is a cache hit, not a rebuild.
            assert seeded.stats.full_rebuilds == 0
            assert seeded.stats.hits >= 1
            expected = fresh.query([0, 1], method="lctc", eta=20)
            got = seeded.query([0, 1], method="lctc", eta=20)
            assert frozenset(got.nodes) == frozenset(expected.nodes)
            assert got.trussness == expected.trussness

    def test_seeded_engine_accepts_mutations(self):
        graph = complete_graph(6)
        base = CTCEngine(graph)
        snapshot = base.snapshot()
        with _publish("repro_test_mut", snapshot.csr, snapshot.trussness) as bundle:
            clone_csr, trussness, _ = _attached_snapshot(bundle)
            seeded = CTCEngine.from_arrays(clone_csr, trussness)
            seeded.remove_edge(0, 1)
            oracle = CTCEngine(complete_graph(6))
            oracle.remove_edge(0, 1)
            got = seeded.query([2, 3], method="lctc", eta=20)
            expected = oracle.query([2, 3], method="lctc", eta=20)
            assert frozenset(got.nodes) == frozenset(expected.nodes)
            assert got.trussness == expected.trussness
