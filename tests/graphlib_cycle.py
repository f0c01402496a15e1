"""The ``graphlib`` cycle search that ``gsn._is_cyclic`` replaced, kept as a
differential oracle.

``graphlib.TopologicalSorter.prepare`` raises ``CycleError`` with one cycle
of the graph when there is one. The dict-based Kahn pass must give the same
verdict on every graph, self-loops and repeated pairs included.
"""

from __future__ import annotations

import graphlib
from typing import Iterable


def find_cycle(pairs: Iterable[tuple[str, str]], nodes: Iterable[str] = ()) -> list[str] | None:
    """One cycle of the (source, target) pairs, or None if acyclic."""
    graph: dict[str, set[str]] = {node_id: set() for node_id in nodes}
    for source, target in pairs:
        graph.setdefault(source, set()).add(target)
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None
