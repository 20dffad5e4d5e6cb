"""Shared-memory tensor transport for the process-parallel serving tier.

Tensor blocks cross the process boundary through *named shared-memory
segments* (``multiprocessing.shared_memory``): the sender copies the
array into a segment and ships only a tiny :class:`TensorRef` descriptor
(segment name, byte offset, dtype, shape) over the control pipe; the
receiver maps a numpy view over the same physical pages.  No tensor
payload is pickled on the hot path.

The cluster's hot path does not create a segment per request.  Each
worker owns a set of reusable :class:`Slot`\\ s: one parent-created
segment holding an input region and a label region, each
``cluster_shm_max_bytes`` long.  The parent writes features into the
input region, the worker writes labels into the label region, and the
slot goes back on its worker's free list once the request is retired.
A worker attaches a slot on first use and keeps that mapping for its
lifetime (:class:`Attachments`), so a steady-state request creates,
attaches and unlinks nothing.  ``share_array`` still publishes one array
in its own segment for callers outside the pool.

Two edge cases deliberately leave the shared-memory path:

* **zero-row batches** — a POSIX shm segment cannot be empty, so a
  0-byte array travels as an ``empty`` descriptor with no segment;
* **oversized batches** — payloads beyond ``max_shm_bytes`` fall back to
  pickling through the pipe (an ``inline`` descriptor carrying the
  bytes) so one huge request cannot exhaust ``/dev/shm``; callers count
  these under ``cluster_shm_fallback_total``.

Ownership protocol: the *parent* creates every segment and is the only
side that ever ``unlink``\\ s.  It unlinks a worker's slots when that
worker generation is declared dead (crash, wedge or rolling restart) and
every slot at ``close()``, so a SIGKILL'd worker can never leak a
segment — its attachments die with the process and the parent's cleanup
still runs.  Worker-side attaches go through :func:`attach`, which
unregisters the mapping from the ``resource_tracker`` (on CPython < 3.13
every attach is tracked, and a tracked segment the parent already
unlinked produces spurious "leaked shared_memory" warnings at worker
exit).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

#: Descriptor kinds (see module docstring for when each is used).
SHM = "shm"  # payload lives in the named segment
INLINE = "inline"  # payload pickled into the descriptor itself
EMPTY = "empty"  # zero-byte array; no payload at all


@dataclass(frozen=True)
class TensorRef:
    """A picklable descriptor for one tensor crossing the boundary."""

    kind: str  # SHM | INLINE | EMPTY
    dtype: str
    shape: tuple[int, ...]
    segment: str | None = None  # SHM: the shared-memory segment name
    payload: bytes | None = None  # INLINE: the pickled ndarray
    offset: int = 0  # SHM: byte offset of the array inside the segment

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))

    def view(self, buf) -> np.ndarray:
        """A numpy view of this SHM ref's array over a mapping of its segment."""
        return np.ndarray(
            self.shape, dtype=np.dtype(self.dtype), buffer=buf, offset=self.offset
        )


#: True inside a cluster worker process (set by ``_worker_main``).  A
#: worker's attaches must not stay registered with its resource tracker:
#: the parent owns and unlinks every segment, and a tracked-but-foreign
#: name makes the tracker warn about (and try to unlink) "leaked"
#: segments at worker exit.  In the parent the registration balance is
#: already correct, so unregistering there would erase the *creator's*
#: registration instead.
IN_WORKER = False


def attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment (untracked inside worker processes)."""
    seg = shared_memory.SharedMemory(name=name)
    if IN_WORKER:
        try:
            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    return seg


def unshared_ref(arr: np.ndarray, max_shm_bytes: int) -> TensorRef | None:
    """The ref for an array that takes no segment, or None when it should.

    Zero-byte arrays get an ``empty`` ref; arrays beyond
    ``max_shm_bytes`` get an ``inline`` ref (pickle fallback).
    """
    if arr.nbytes == 0:
        return TensorRef(EMPTY, str(arr.dtype), tuple(int(d) for d in arr.shape))
    if arr.nbytes > max_shm_bytes:
        return TensorRef(
            INLINE,
            str(arr.dtype),
            tuple(int(d) for d in arr.shape),
            payload=pickle.dumps(arr),
        )
    return None


def _write(buf, segment: str, offset: int, arr: np.ndarray) -> TensorRef:
    ref = TensorRef(
        SHM,
        str(arr.dtype),
        tuple(int(d) for d in arr.shape),
        segment=segment,
        offset=offset,
    )
    ref.view(buf)[...] = arr
    return ref


def share_array(
    arr: np.ndarray, name: str, max_shm_bytes: int
) -> tuple[TensorRef, shared_memory.SharedMemory | None]:
    """Publish ``arr`` in a segment of its own; returns (ref, owned segment).

    The returned segment (when non-None) is owned by the caller, who
    must ``close()`` and ``unlink()`` it once the peer has responded.
    Zero-byte and oversized arrays return their :func:`unshared_ref`
    and no segment.
    """
    arr = np.ascontiguousarray(arr)
    ref = unshared_ref(arr, max_shm_bytes)
    if ref is not None:
        return ref, None
    seg = shared_memory.SharedMemory(create=True, size=arr.nbytes, name=name)
    return _write(seg.buf, seg.name, 0, arr), seg


def read_array(ref: TensorRef, buf=None) -> np.ndarray:
    """Materialize the tensor a :class:`TensorRef` describes (a copy).

    ``buf`` is the caller's own mapping of ``ref.segment`` when it keeps
    one (a slot); without it the segment is attached for this one read.
    The copy decouples the caller from the segment: the sender may
    reuse or unlink it the moment the response lands.
    """
    if ref.kind == EMPTY:
        return np.empty(ref.shape, dtype=np.dtype(ref.dtype))
    if ref.kind == INLINE:
        return pickle.loads(ref.payload)
    if buf is not None:
        return ref.view(buf).copy()
    seg = attach(ref.segment)
    try:
        return ref.view(seg.buf).copy()
    finally:
        seg.close()


def write_into(
    segment: str, capacity: int, arr: np.ndarray, offset: int = 0, buf=None
) -> TensorRef:
    """Write ``arr`` into the ``capacity``-byte region at ``offset`` of a
    pre-created segment (a slot's label region).

    ``buf`` is as for :func:`read_array`.  The parent sizes the region
    for the expected label payload; a result that does not fit
    (unexpected dtype or shape) falls back to an ``inline`` ref rather
    than corrupting the slot.
    """
    arr = np.ascontiguousarray(arr)
    ref = unshared_ref(arr, capacity)
    if ref is not None:
        return ref
    if buf is not None:
        return _write(buf, segment, offset, arr)
    seg = attach(segment)
    try:
        return _write(seg.buf, segment, offset, arr)
    finally:
        seg.close()


def release(seg: shared_memory.SharedMemory | None) -> None:
    """Close and unlink one parent-owned segment (idempotent-ish)."""
    if seg is None:
        return
    try:
        seg.close()
    except Exception:  # pragma: no cover - buffer already released
        pass
    unlink(seg)


def unlink(seg: shared_memory.SharedMemory) -> None:
    """Remove a segment's name but keep this process's mapping valid."""
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


class Slot:
    """One reusable, parent-owned transport area for a worker's requests.

    A single segment holds an input region and then a label region,
    ``capacity`` bytes each, so it carries any request the SHM path
    accepts.  tmpfs allocates pages only when written, so resident
    memory follows the payloads, not the slot size.  ``generation`` is
    the worker incarnation the slot serves: a slot outlives requests,
    never its worker.
    """

    __slots__ = ("segment", "capacity", "generation")

    def __init__(self, name: str, capacity: int, generation: int):
        self.segment = shared_memory.SharedMemory(
            create=True, size=2 * capacity, name=name
        )
        self.capacity = capacity
        self.generation = generation

    @property
    def name(self) -> str:
        return self.segment.name

    def write_input(self, arr: np.ndarray) -> TensorRef:
        """Copy ``arr`` (at most ``capacity`` bytes) into the input region."""
        return _write(self.segment.buf, self.segment.name, 0, arr)

    def read(self, ref: TensorRef) -> np.ndarray:
        """Copy out what the worker wrote (see :func:`read_array`)."""
        return read_array(ref, self.segment.buf)

    def release(self) -> None:
        release(self.segment)


class Attachments:
    """A worker's slot mappings: attached on first use, kept until close.

    The parent unlinks a slot only once its worker is dead or the pool is
    closing, so a mapping kept here never outlives the slot's use.
    """

    def __init__(self):
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def buf(self, name: str | None):
        """The mapping of segment ``name`` (None for a ref with no segment)."""
        if name is None:
            return None
        seg = self._segments.get(name)
        if seg is None:
            seg = self._segments[name] = attach(name)
        return seg.buf

    def close(self) -> None:
        for seg in self._segments.values():
            seg.close()
        self._segments.clear()
