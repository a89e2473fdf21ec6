"""Graph and community persistence: edge lists and SNAP-style community files.

The SNAP datasets the paper uses ship as whitespace-separated edge lists plus
"one community per line" ground-truth files.  The same formats are supported
here so that (a) the synthetic stand-ins can be written out and inspected,
and (b) anyone with the real SNAP files can load them into this library
unchanged.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from pathlib import Path

from repro.exceptions import GraphError
from repro.graph.simple_graph import UndirectedGraph

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "write_communities",
    "read_communities",
    "graph_to_edge_list_text",
    "graph_from_edge_list_text",
]


def graph_to_edge_list_text(graph: UndirectedGraph, delimiter: str = "\t") -> str:
    """Serialise a graph as one ``u<delimiter>v`` line per edge.

    Isolated nodes are appended as single-token lines so they survive the
    round trip.
    """
    lines = [f"{u}{delimiter}{v}" for u, v in graph.edges()]
    for node in graph.nodes():
        if graph.degree(node) == 0:
            lines.append(f"{node}")
    return "\n".join(lines) + ("\n" if lines else "")


def graph_from_edge_list_text(
    text: str,
    delimiter: str | None = None,
    node_type: type = str,
) -> UndirectedGraph:
    """Parse an edge-list string into a graph.

    Parameters
    ----------
    text:
        Edge-list content.  Lines starting with ``#`` and blank lines are
        ignored (SNAP files carry ``#`` headers).
    delimiter:
        Field separator; ``None`` splits on any whitespace.
    node_type:
        Callable applied to each token (e.g. ``int`` for SNAP ids).
    """
    graph = UndirectedGraph()
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split(delimiter)
        if len(tokens) == 1:
            graph.add_node(node_type(tokens[0]))
        elif len(tokens) >= 2:
            u, v = node_type(tokens[0]), node_type(tokens[1])
            if u != v:
                graph.add_edge(u, v)
        else:
            raise GraphError(f"cannot parse edge-list line: {raw_line!r}")
    return graph


def write_edge_list(graph: UndirectedGraph, path: str | Path, delimiter: str = "\t") -> None:
    """Write ``graph`` to ``path`` in edge-list format."""
    Path(path).write_text(graph_to_edge_list_text(graph, delimiter=delimiter), encoding="utf-8")


def read_edge_list(
    path: str | Path, delimiter: str | None = None, node_type: type = str
) -> UndirectedGraph:
    """Read an edge-list file into a graph."""
    text = Path(path).read_text(encoding="utf-8")
    return graph_from_edge_list_text(text, delimiter=delimiter, node_type=node_type)


def write_communities(
    communities: Iterable[Iterable[Hashable]], path: str | Path, delimiter: str = "\t"
) -> None:
    """Write ground-truth communities, one whitespace-separated line per community."""
    lines = []
    for community in communities:
        members = [str(member) for member in community]
        lines.append(delimiter.join(members))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_communities(
    path: str | Path, delimiter: str | None = None, node_type: type = str
) -> list[set[Hashable]]:
    """Read a SNAP-style community file into a list of node sets."""
    communities: list[set[Hashable]] = []
    for raw_line in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        members = {node_type(token) for token in line.split(delimiter)}
        if members:
            communities.append(members)
    return communities
