"""Tests for the snapshot array codec (:mod:`repro.engine.codec`).

One codec writes both checkpoints and process-mode shard bundles, so a
snapshot must come back bit for bit, dtypes included, from either medium.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.engine import CheckpointStore, EngineSnapshot
from repro.engine.codec import decode_snapshot, encode_snapshot
from repro.engine.persistence import CHECKPOINT_FORMAT_VERSION
from repro.graph.csr import CSRGraph
from repro.graph.disk import read_manifest
from repro.graph.generators import erdos_renyi_graph
from repro.graph.shm import SharedArrayBundle
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.csr_decomposition import csr_decompose

_CSR_NAMES = ("indptr", "indices", "slot_edge", "edge_u", "edge_v", "trussness")
_INCIDENCE_NAMES = ("supports", "tri_edges", "inc_indptr", "inc_triangles")


@pytest.fixture(params=[True, False], ids=["incidence", "no-incidence"])
def snapshot(request) -> EngineSnapshot:
    """A decomposed snapshot over tuple labels, with or without its incidence."""
    base = erdos_renyi_graph(60, 0.3, seed=4)
    csr = CSRGraph.from_graph(UndirectedGraph(((0, u), (0, v)) for u, v in base.edges()))
    decomposition = csr_decompose(csr, method="vector")
    incidence = decomposition.incidence if request.param else None
    return EngineSnapshot(7, csr, decomposition.trussness, incidence=incidence)


def _encoded(csr, trussness, incidence) -> dict:
    """Every encoded array as ``(dtype, shape, bytes)``, plus the labels."""
    arrays, labels = encode_snapshot(csr, trussness, incidence)
    encoded = {
        name: (array.dtype.str, array.shape, np.ascontiguousarray(array).tobytes())
        for name, array in arrays.items()
    }
    encoded["labels"] = labels
    return encoded


class TestCodec:
    def test_encode_names_every_array_once_in_a_fixed_order(self, snapshot):
        arrays, labels = encode_snapshot(snapshot.csr, snapshot.trussness, snapshot.incidence)
        expected = _CSR_NAMES + (_INCIDENCE_NAMES if snapshot.incidence is not None else ())
        assert tuple(arrays) == expected
        assert arrays["indptr"] is snapshot.csr.indptr  # no copies
        assert labels == snapshot.csr.labels()

    def test_checkpoint_round_trip_is_bit_identical(self, tmp_path, snapshot):
        store = CheckpointStore(tmp_path)
        path = store.write(snapshot)
        loaded = store.load_latest(verify=True)
        assert loaded is not None and loaded.version == snapshot.version
        assert _encoded(loaded.csr, loaded.trussness, loaded.incidence) == _encoded(
            snapshot.csr, snapshot.trussness, snapshot.incidence
        )
        assert loaded.csr.to_graph() == snapshot.csr.to_graph()
        # The directory layout and manifest keys of format version 1.
        names = _CSR_NAMES + (_INCIDENCE_NAMES if snapshot.incidence is not None else ())
        assert CHECKPOINT_FORMAT_VERSION == 1
        assert sorted(os.listdir(path)) == sorted(
            [f"{name}.npy" for name in names] + ["labels.pkl", "manifest.json"]
        )
        manifest = read_manifest(os.path.join(path, "manifest.json"))
        assert sorted(manifest) == ["arrays", "edges", "format_version", "labels", "nodes", "version"]
        assert sorted(manifest["arrays"]) == sorted(names)

    def test_shared_memory_round_trip_is_bit_identical(self, snapshot):
        arrays, labels = encode_snapshot(snapshot.csr, snapshot.trussness, snapshot.incidence)
        with SharedArrayBundle.create("repro_test_codec", arrays, {"labels": labels}) as owner:
            attached = SharedArrayBundle.attach(owner.meta)
            csr, trussness, incidence = decode_snapshot(attached, attached.objects["labels"])
            assert _encoded(csr, trussness, incidence) == _encoded(
                snapshot.csr, snapshot.trussness, snapshot.incidence
            )
            assert np.shares_memory(trussness, attached["trussness"])
            del csr, trussness, incidence
            attached.close()

    def test_decoded_snapshot_keeps_its_arrays_alive(self):
        # Run apart: reading unmapped pages kills the interpreter.
        program = textwrap.dedent(
            """
            from repro.engine.codec import decode_snapshot, encode_snapshot
            from repro.graph.csr import CSRGraph
            from repro.graph.generators import complete_graph
            from repro.graph.shm import SharedArrayBundle
            from repro.trusses.csr_decomposition import csr_decompose

            csr = CSRGraph.from_graph(complete_graph(40))
            arrays, labels = encode_snapshot(csr, csr_decompose(csr).trussness, None)
            with SharedArrayBundle.create("repro_test_keep", arrays, {"labels": labels}) as owner:
                # Only the decoded snapshot refers to the attached bundle.
                clone, _, _ = decode_snapshot(SharedArrayBundle.attach(owner.meta), labels)
                assert clone.indices.tolist() == csr.indices.tolist()
                del clone
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        finished = subprocess.run(
            [sys.executable, "-c", program], env=env, capture_output=True, timeout=120
        )
        assert finished.returncode == 0, finished.stderr.decode()[-2000:]

    def test_missing_array_raises(self, snapshot):
        arrays, labels = encode_snapshot(snapshot.csr, snapshot.trussness, snapshot.incidence)
        del arrays["trussness"]
        with pytest.raises(KeyError):
            decode_snapshot(arrays, labels)
