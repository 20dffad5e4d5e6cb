"""Operator instrumentation for EXPLAIN ANALYZE.

Wraps every node of a physical plan so that executing it records, per
operator, the rows produced and the inclusive wall-clock time spent
producing them.  Instrumentation shadows the instance's ``rows`` and
``batches`` methods with counting generators — the plan's structure and
semantics are untouched, so analysis runs the exact plan it reports on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .base import Operator


@dataclass
class NodeStats:
    """Execution counters for one operator."""

    rows: int = 0
    inclusive_seconds: float = 0.0
    opened: int = 0


@dataclass
class AnalyzeReport:
    """Per-node statistics keyed by operator identity."""

    stats: dict[int, NodeStats] = field(default_factory=dict)

    def for_node(self, op: Operator) -> NodeStats:
        return self.stats.setdefault(id(op), NodeStats())

    def render(self, root: Operator) -> str:
        lines: list[str] = []

        def walk(node: Operator, depth: int) -> None:
            stats = self.stats.get(id(node), NodeStats())
            pad = "  " * depth
            lines.append(
                f"{pad}{node.describe()}  "
                f"[rows={stats.rows}, time={stats.inclusive_seconds * 1e3:.2f}ms]"
            )
            for child in node.children():
                walk(child, depth + 1)

        walk(root, 0)
        return "\n".join(lines)


def instrument(root: Operator) -> AnalyzeReport:
    """Attach counters to every node of the plan (idempotent per node).

    Both ``rows`` and ``batches`` are wrapped, and a ``SeqScan``'s
    ``scan_into`` (one item per row), so a node is counted whichever one
    its parent pulls.  When one of them is derived from the
    other, the inner call runs inside the outer wrapper and passes through
    uncounted: each output row is billed once.

    Re-instrumenting an already-instrumented plan *replaces* the previous
    wrappers instead of stacking a second counting layer: each wrapper
    carries the pristine method it shadowed in an ``_instrument_original``
    sentinel attribute, and wrapping always starts from that original.
    Stacked wrappers would drive every report's counters at once and bill
    each generator's bookkeeping overhead to the reports below it.
    """
    report = AnalyzeReport()

    def wrap(node: Operator) -> None:
        stats = report.for_node(node)
        producing = [False]  # one of this node's wrappers is pulling

        def counting(method: str, size: Callable[[object], int]) -> None:
            original = getattr(node, method)
            original = getattr(original, "_instrument_original", original)

            def counted(*args) -> Iterator:
                if producing[0]:
                    yield from original(*args)
                    return
                stats.opened += 1
                items = original(*args)
                start = time.perf_counter()
                try:
                    while True:
                        producing[0] = True
                        try:
                            item = next(items)
                        except StopIteration:
                            break
                        finally:
                            producing[0] = False
                        stats.inclusive_seconds += time.perf_counter() - start
                        stats.rows += size(item)
                        yield item
                        start = time.perf_counter()
                    stats.inclusive_seconds += time.perf_counter() - start
                except GeneratorExit:
                    stats.inclusive_seconds += time.perf_counter() - start
                    raise

            # Shadow the bound method on the instance only; the sentinel
            # lets a later instrument() call find the unwrapped original.
            counted._instrument_original = original  # type: ignore[attr-defined]
            setattr(node, method, counted)

        counting("rows", lambda row: 1)
        counting("batches", len)
        if hasattr(node, "scan_into"):
            counting("scan_into", lambda row: 1)
        for child in node.children():
            wrap(child)

    wrap(root)
    return report
