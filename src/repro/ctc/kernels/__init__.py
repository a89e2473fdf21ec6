"""CSR-native query kernels: CTC search directly on cached array snapshots.

PRs 1-2 froze the engine's read replica into ``(CSRGraph, trussness
ndarray)`` pairs but still answered every query in dict-of-sets land.  This
package is the missing execution layer: FindG0, the truss-distance Steiner
seed, LCTC expansion, query distances and BulkDelete peeling all run on the
arrays (dense int ids, flat per-edge attributes), which is where the
paper's Section 5 locality argument — and the HTAP-replica design the
engine borrows from Polynesia (arXiv:2103.00798) — says analytical reads
belong.

Layout
------
* :mod:`~repro.ctc.kernels.context` — :class:`QueryKernel`, the lazily
  derived per-snapshot structures (sorted adjacency, ``repr`` ranks, ...);
* :mod:`~repro.ctc.kernels.find_g0` — Algorithm 2: masked-BFS binary search
  over trussness levels;
* :mod:`~repro.ctc.kernels.peeling` — Algorithms 1/3/4 as the masked array
  peel engine (alive masks + incidence cascade + frontier-BFS distances),
  with the adjacency-map engine kept for tiny working subgraphs;
* :mod:`~repro.ctc.kernels.steiner` / :mod:`~repro.ctc.kernels.local` —
  Algorithm 5's Steiner seed and budgeted expansion;
* :mod:`~repro.ctc.kernels.search` — the per-method entry points returning
  :class:`~repro.ctc.result.CommunityResult`.

The dispatch seam
-----------------
:func:`kernel_of` is how the algorithm classes pick their execution path
(mirroring how :func:`repro.trusses.decomposition.truss_decomposition`
dispatches on graph type): anything exposing a ``kernel`` attribute holding
a :class:`QueryKernel` — i.e. an :class:`~repro.engine.EngineSnapshot` —
runs on the kernels; a plain :class:`~repro.trusses.index.TrussIndex` keeps
the dict path.  The duck-typed probe (rather than an ``isinstance`` on the
snapshot) keeps this package importable without the engine.

Both paths return identical communities for the same query; the property
suite ``tests/ctc/test_kernel_equivalence.py`` enforces it.
"""

from repro.ctc.kernels.context import QueryKernel, validate_query_ids
from repro.ctc.kernels.find_g0 import connected_truss_at_k, find_g0
from repro.ctc.kernels.search import (
    basic_search,
    bulk_delete_search,
    lctc_search,
    truss_search,
)

__all__ = [
    "QueryKernel",
    "kernel_of",
    "split_dispatch",
    "validate_query_ids",
    "find_g0",
    "connected_truss_at_k",
    "basic_search",
    "bulk_delete_search",
    "lctc_search",
    "truss_search",
]


def kernel_of(target: object) -> QueryKernel | None:
    """Return ``target``'s :class:`QueryKernel`, or ``None`` for dict-path inputs.

    This is the package's dispatch seam: :class:`~repro.engine.EngineSnapshot`
    exposes a lazily built ``kernel`` attribute, a
    :class:`~repro.trusses.index.TrussIndex` (or any ad-hoc graph) does not.
    A bare :class:`QueryKernel` passes through unchanged, so power users can
    drive the kernels without an engine.
    """
    if isinstance(target, QueryKernel):
        return target
    kernel = getattr(target, "kernel", None)
    return kernel if isinstance(kernel, QueryKernel) else None


def split_dispatch(target):
    """Resolve an algorithm constructor's input into ``(kernel, index)``.

    Exactly one of the two is non-``None``: the :class:`QueryKernel` when
    ``target`` is kernel-capable (see :func:`kernel_of`), otherwise
    ``target`` itself as the dict-path index.  The algorithm classes all
    call this so the seam has a single definition.
    """
    kernel = kernel_of(target)
    return kernel, (None if kernel is not None else target)
