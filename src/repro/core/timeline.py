"""Textual rendering of the chained training-iteration timeline.

Paper Fig. 8 illustrates gradient queuing as a timing diagram: the
communication row (chunks finishing) above the computation row (layer
forward passes gated by their chunks).  This module renders the same
diagram from an actual :class:`~repro.core.pipeline.IterationResult`,
which makes C-Cube's chaining inspectable for any workload:

    comm  |####.####.####.....                       (chunk completions)
    L1    |    ██
    L2    |      ████
    ...
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.collectives.base import AllReduceOutcome
from repro.core.pipeline import IterationResult


def render_iteration_timeline(
    result: IterationResult,
    comm: AllReduceOutcome | None = None,
    *,
    layer_names: list[str] | None = None,
) -> str:
    """Render the iteration's forward chaining as rows of text.

    Args:
        result: the iteration timeline to draw.
        comm: the AllReduce outcome (adds a chunk-completion row).
        layer_names: optional row labels (defaults to ``L1..``).

    Returns:
        A multi-line string: a 72-character time axis spanning
        [0, iteration end of forward], and at most 24 layer rows (larger
        networks get elided).
    """
    width = 72
    horizon = result.fwd_end[-1]
    if horizon <= 0:
        raise ConfigError("degenerate timeline")
    scale = width / horizon

    def span(start: float, end: float, fill: str) -> str:
        row = [" "] * width
        lo = min(width - 1, int(start * scale))
        hi = min(width, max(lo + 1, int(end * scale)))
        for i in range(lo, hi):
            row[i] = fill
        return "".join(row)

    lines = [
        f"strategy {result.strategy.value}: comm={result.comm_total * 1e3:.3f} ms, "
        f"iteration={result.iteration_time * 1e3:.3f} ms, "
        f"normalized={result.normalized_performance:.3f}",
    ]
    if comm is not None:
        row = [" "] * width
        for when in comm.chunk_available.values():
            pos = min(width - 1, int(when * scale))
            row[pos] = "#"
        lines.append(f"{'chunks':<10} |{''.join(row)}|")

    nlayers = len(result.fwd_start)
    shown = min(nlayers, 24)
    for i in range(shown):
        name = (
            layer_names[i] if layer_names and i < len(layer_names)
            else f"L{i + 1}"
        )
        lines.append(
            f"{name[:10]:<10} |"
            f"{span(result.fwd_start[i], result.fwd_end[i], '█')}|"
        )
    if shown < nlayers:
        lines.append(f"... ({nlayers - shown} more layers)")
    if result.bubble_time > 0:
        lines.append(
            f"bubbles: {result.bubble_time * 1e3:.3f} ms of forward stall"
        )
    return "\n".join(lines)
