"""Chunking policy for pipelined tree collectives (paper Eq. 4).

The tree algorithms pipeline the message as K chunks of N/K bytes.  The
paper derives the optimal chunk count by minimising Eq. 3,

    K_opt = sqrt(log2(P) * beta * N / alpha),

trading per-chunk latency (more chunks -> more alpha terms) against
pipeline fill (fewer chunks -> longer pipeline drain).
"""

from __future__ import annotations

import math

from repro.errors import ConfigError


def optimal_chunk_count(
    nnodes: int,
    nbytes: float,
    *,
    alpha: float,
    beta: float,
    max_chunks: int = 4096,
) -> int:
    """Optimal number of pipeline chunks per Eq. 4, clamped to [1, max_chunks].

    Args:
        nnodes: number of participating nodes (P).
        nbytes: total message size (N).
        alpha: per-transfer latency.
        beta: seconds per byte.
        max_chunks: safety cap (the paper's 64 MB runs use 256 chunks).
    """
    if nnodes < 2:
        raise ConfigError("need at least 2 nodes")
    if nbytes <= 0:
        raise ConfigError("message size must be positive")
    if alpha <= 0:
        # Latency-free channels: chunking has no cost; cap at max_chunks.
        return max_chunks
    k = math.sqrt(math.log2(nnodes) * beta * nbytes / alpha)
    return max(1, min(max_chunks, round(k)))


def split_bytes(nbytes: float, nchunks: int) -> list[float]:
    """Split ``nbytes`` into ``nchunks`` near-equal chunk sizes.

    Sizes differ by at most one byte-equivalent so the pipeline stays
    balanced; the sum is exactly ``nbytes``.
    """
    if nchunks < 1:
        raise ConfigError("need at least 1 chunk")
    if nbytes < 0:
        raise ConfigError("cannot split a negative byte count")
    base = nbytes / nchunks
    return [base] * nchunks


def chunk_offsets(chunk_sizes: list[float]) -> list[float]:
    """Starting byte offset of each chunk."""
    offsets = []
    total = 0.0
    for size in chunk_sizes:
        offsets.append(total)
        total += size
    return offsets


def chunks_covering(
    chunk_sizes: list[float],
    byte_range: tuple[float, float],
) -> list[int]:
    """Indices of chunks overlapping the half-open ``byte_range``.

    Used to map a DNN layer's gradient bytes onto the communication chunks
    its dequeue must wait for.
    """
    lo, hi = byte_range
    if hi < lo:
        raise ConfigError(f"bad byte range {byte_range}")
    out = []
    offset = 0.0
    for i, size in enumerate(chunk_sizes):
        if offset < hi and offset + size > lo:
            out.append(i)
        offset += size
    return out
