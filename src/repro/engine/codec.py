"""The snapshot codec: a decomposed snapshot as named arrays, and back.

A snapshot leaves its process as named ``numpy`` arrays (the CSR, the
per-edge trussness and, when it holds one, the triangle incidence with its
supports) plus its labels in id order: as checkpoint files
(:class:`~repro.engine.persistence.CheckpointStore`) or as one shared-memory
bundle per process-mode shard (:mod:`repro.engine.serving`).  This module is
the only code that names the arrays.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.csr_triangles import TriangleIncidence

__all__ = ["decode_snapshot", "encode_snapshot"]

#: Array name -> attribute, for the CSR and for the triangle incidence.
_CSR_ARRAYS = {name: name for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v")}
_INCIDENCE_ARRAYS = {
    "supports": "supports",
    "tri_edges": "edges",
    "inc_indptr": "inc_indptr",
    "inc_triangles": "inc_triangles",
}


def encode_snapshot(
    csr: CSRGraph, trussness: np.ndarray, incidence: TriangleIncidence | None
) -> tuple[dict[str, np.ndarray], list[Hashable]]:
    """Return ``(arrays, labels)``: the snapshot's own arrays by name, and its labels.

    The order is fixed: the CSR arrays, ``trussness``, then the incidence's.
    """
    arrays = {name: getattr(csr, field) for name, field in _CSR_ARRAYS.items()}
    arrays["trussness"] = trussness
    if incidence is not None:
        arrays.update((name, getattr(incidence, field)) for name, field in _INCIDENCE_ARRAYS.items())
    return arrays, csr.labels()


def decode_snapshot(
    arrays: Mapping[str, np.ndarray], labels: list[Hashable]
) -> tuple[CSRGraph, np.ndarray, TriangleIncidence | None]:
    """Return ``(csr, trussness, incidence)`` from :func:`encode_snapshot`'s output.

    ``arrays`` may be memory-mapped files or a
    :class:`~repro.graph.shm.SharedArrayBundle`: the snapshot views them
    without copying and keeps ``arrays`` alive, so a shared-memory mapping
    lasts as long as the snapshot.  A missing array raises ``KeyError``.
    """
    csr = CSRGraph(
        **{field: arrays[name] for name, field in _CSR_ARRAYS.items()},
        labels=labels,
        ids={label: position for position, label in enumerate(labels)},
        retained=arrays,
    )
    incidence = None
    if "tri_edges" in arrays:
        incidence = TriangleIncidence(
            **{field: arrays[name] for name, field in _INCIDENCE_ARRAYS.items()}
        )
    return csr, arrays["trussness"], incidence
