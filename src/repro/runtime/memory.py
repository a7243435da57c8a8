"""Gradient buffers and chunk layout for the functional runtime.

The paper stores reduced gradient chunks back into "the same memory
address as where they started reduction", so the gradient buffer itself
serves as the gradient queue.  :class:`GradientBuffer` mirrors that: one
flat array per GPU, addressed through a shared :class:`ChunkLayout` that
assigns contiguous element ranges to global chunk ids (each tree of a
double tree owning one contiguous half, as in the schedules).
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigError
from repro.sanitizer import hooks as _hooks

#: Distinct labels for buffers constructed without an owner rank.
_ANON_LABELS = itertools.count()


def _emit(kind: str, label: str, chunk: int) -> None:
    # The schedule fuzzer perturbs *before* the access happens (and
    # before the tracer records it), widening any race window between
    # this access and an unordered peer.  Hot paths guard every call
    # with ``_hooks.ANY`` so a detached tracer costs one attribute
    # check, not an event construction.
    scheduler = _hooks.active_scheduler()
    if scheduler is not None:
        scheduler.on_point("access", kind, f"{label}/c{chunk}")
    tracer = _hooks.active()
    if tracer is not None:
        tracer.on_access(kind, label, chunk)


def payload_checksum(values: np.ndarray) -> int:
    """CRC32 over a chunk payload's raw bytes (the frame checksum).

    Computed over the contiguous array's own buffer: a contiguous payload
    (every wire slot and gradient-buffer chunk) is checksummed without a
    copy; a strided view is made contiguous first, as ``tobytes`` would.
    """
    return zlib.crc32(np.ascontiguousarray(values))


def reduce_chunk_reference(
    dst: np.ndarray, values: np.ndarray
) -> None:
    """Per-element serial reduce: the reference the vectorized
    :meth:`GradientBuffer.accumulate` is pinned bit-exact against.

    IEEE-754 addition is deterministic per element, so ``dst[i] +=
    values[i]`` one index at a time and the array-slice ``dst +=
    values`` must agree bitwise; the regression tests rely on exactly
    that, and ``tests/test_work_counters.py`` times this loop as the
    floor the vectorized path must beat.
    """
    for i in range(len(dst)):
        dst[i] += values[i]


@dataclass(frozen=True)
class ChunkLayout:
    """Partition of ``total_elems`` into per-tree contiguous chunk runs.

    Attributes:
        total_elems: gradient element count.
        tree_chunks: per tree, the list of global chunk ids it carries
            (in pipeline order).
        bounds: per global chunk id, its (start, stop) element range.
    """

    total_elems: int
    tree_chunks: tuple[tuple[int, ...], ...]
    bounds: tuple[tuple[int, int], ...]

    @property
    def nchunks(self) -> int:
        return len(self.bounds)

    @property
    def ntrees(self) -> int:
        return len(self.tree_chunks)

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        """Per-chunk slice objects, built once (hot paths index these
        instead of constructing a fresh slice per access)."""
        return tuple(slice(start, stop) for start, stop in self.bounds)

    def slice_of(self, chunk: int) -> slice:
        return self.slices[chunk]

    def chunk_elems(self, chunk: int) -> int:
        start, stop = self.bounds[chunk]
        return stop - start

    def tree_of(self, chunk: int) -> int:
        for tree, chunks in enumerate(self.tree_chunks):
            if chunk in chunks:
                return tree
        raise ConfigError(f"chunk {chunk} not in any tree")

    @staticmethod
    def split(
        total_elems: int, *, ntrees: int, chunks_per_tree: int
    ) -> "ChunkLayout":
        """Split elements into ``ntrees`` halves of ``chunks_per_tree``
        near-equal chunks each (global chunk ids are contiguous per tree).
        """
        if total_elems < ntrees * chunks_per_tree:
            raise ConfigError(
                "buffer too small for the requested chunk count"
            )
        bounds: list[tuple[int, int]] = []
        tree_chunks: list[tuple[int, ...]] = []
        cursor = 0
        next_chunk = 0
        for tree in range(ntrees):
            tree_elems = total_elems // ntrees
            if tree == ntrees - 1:
                tree_elems = total_elems - cursor
            ids = []
            tree_cursor = 0
            for k in range(chunks_per_tree):
                size = tree_elems // chunks_per_tree
                if k == chunks_per_tree - 1:
                    size = tree_elems - tree_cursor
                bounds.append((cursor + tree_cursor, cursor + tree_cursor + size))
                ids.append(next_chunk)
                next_chunk += 1
                tree_cursor += size
            tree_chunks.append(tuple(ids))
            cursor += tree_elems
        return ChunkLayout(
            total_elems=total_elems,
            tree_chunks=tuple(tree_chunks),
            bounds=tuple(bounds),
        )


class GradientBuffer:
    """One GPU's gradient memory, chunk-addressed.

    The buffer doubles as the gradient queue (paper Section III-D): a
    broadcast delivery writes the fully reduced chunk in place, and the
    enqueue semaphore is the only extra state.

    Every chunk access is reported to an active sanitizer tracer as a
    ``read`` / ``write`` / ``reduce`` event under the buffer's label
    (``gpu<rank>`` when an ``owner`` was given).  ``reduce`` counts as a
    write: numpy's in-place add is a read-modify-write.

    By default the buffer holds a float64 copy of ``data``.  With
    ``copy=False`` it takes ``data`` itself as its memory (NCCL's
    in-place convention): the collective then reduces into the caller's
    array, which must be a writeable, C-contiguous float64 array.
    """

    def __init__(
        self,
        data: np.ndarray,
        layout: ChunkLayout,
        *,
        owner: int | None = None,
        copy: bool = True,
    ):
        if data.ndim != 1:
            raise ConfigError("gradient buffer must be one-dimensional")
        if len(data) != layout.total_elems:
            raise ConfigError(
                f"buffer has {len(data)} elems, layout expects "
                f"{layout.total_elems}"
            )
        if copy:
            data = data.astype(np.float64, copy=True)
        elif not (
            data.dtype == np.float64
            and data.flags.c_contiguous
            and data.flags.writeable
        ):
            raise ConfigError(
                "an in-place gradient buffer needs a writeable, "
                "C-contiguous float64 array"
            )
        self.data = data
        self.layout = layout
        self.owner = owner
        # Hot paths index the layout's cached slice table directly.
        self._slices = layout.slices
        self.label = (
            f"gpu{owner}" if owner is not None
            else f"buffer{next(_ANON_LABELS)}"
        )

    def chunk(self, chunk_id: int) -> np.ndarray:
        """View of one chunk's elements (writable, untraced).

        Kernel code should go through :meth:`read` / :meth:`accumulate` /
        :meth:`overwrite` so the access is visible to the sanitizer;
        ``chunk`` remains for single-threaded setup/inspection.
        """
        return self.data[self._slices[chunk_id]]

    def read(self, chunk_id: int) -> np.ndarray:
        """Copy of one chunk's elements (a traced kernel-side read)."""
        if _hooks.ANY:
            _emit("read", self.label, chunk_id)
        return self.data[self._slices[chunk_id]].copy()

    def read_view(self, chunk_id: int) -> np.ndarray:
        """View of one chunk's elements (a traced kernel-side read).

        The send path: a link copies the payload onto its wire
        synchronously, or (a zero-copy wire) publishes the chunk for
        the receiver to read in place, so senders hand it this view
        instead of a copy.  The caller must not hold the view across a
        write to the chunk.
        """
        if _hooks.ANY:
            _emit("read", self.label, chunk_id)
        return self.data[self._slices[chunk_id]]

    def read_range(self, start: int, stop: int) -> np.ndarray:
        """View of an element range (traced as reads of every chunk the
        range overlaps — the compute kernel's per-layer gradient fetch)."""
        if _hooks.ANY:
            for chunk_id, (lo, hi) in enumerate(self.layout.bounds):
                if lo < stop and start < hi:
                    _emit("read", self.label, chunk_id)
        return self.data[start:stop]

    def accumulate(self, chunk_id: int, values: np.ndarray) -> None:
        """Reduce ``values`` into the chunk (the reduction kernel's add).

        Array-slice in-place add: bit-identical to the per-element
        :func:`reduce_chunk_reference` loop (IEEE-754 addition is
        deterministic per element) and the path every runtime reduces
        through.
        """
        if _hooks.ANY:
            _emit("reduce", self.label, chunk_id)
        dst = self.data[self._slices[chunk_id]]
        dst += values

    def overwrite(self, chunk_id: int, values: np.ndarray) -> None:
        """Replace the chunk with the fully reduced payload (broadcast)."""
        if _hooks.ANY:
            _emit("write", self.label, chunk_id)
        self.data[self._slices[chunk_id]] = values

    def note_remote_write(self, chunk_id: int) -> None:
        """Record a write performed directly into :attr:`data` by another
        GPU's kernel (a wire delivery into aliased receive memory)."""
        if _hooks.ANY:
            _emit("write", self.label, chunk_id)

    def snapshot(self) -> np.ndarray:
        if _hooks.ANY:
            for chunk_id in range(self.layout.nchunks):
                _emit("read", self.label, chunk_id)
        return self.data.copy()
