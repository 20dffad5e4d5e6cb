"""Fixed-size pages, the unit of buffering and disk I/O."""

from __future__ import annotations

from ..errors import StorageError

PageId = int

INVALID_PAGE_ID: PageId = -1


class Page:
    """A pinned-counted, fixed-size byte buffer.

    Pages are owned by the buffer pool; operators obtain them through
    :meth:`repro.storage.buffer_pool.BufferPool.fetch_page` and must unpin
    them when done (the heap file does this internally).
    """

    __slots__ = ("page_id", "data", "pin_count", "dirty")

    def __init__(self, page_id: PageId, size: int, data: bytes | None = None):
        """A zero-filled frame of ``size`` bytes, or one copy of ``data``
        (``size`` bytes read from disk)."""
        self.page_id = page_id
        self.data = bytearray(size) if data is None else bytearray(data)
        self.pin_count = 0
        self.dirty = False

    @property
    def size(self) -> int:
        return len(self.data)

    def pin(self) -> None:
        self.pin_count += 1

    def unpin(self, dirty: bool = False) -> None:
        if self.pin_count <= 0:
            raise StorageError(f"page {self.page_id} unpinned more times than pinned")
        self.pin_count -= 1
        if dirty:
            self.dirty = True

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > len(self.data):
            raise StorageError(
                f"read [{offset}, {offset + length}) out of bounds for page of "
                f"size {len(self.data)}"
            )
        return bytes(self.data[offset : offset + length])

    def write(self, offset: int, payload: bytes) -> None:
        if offset < 0 or offset + len(payload) > len(self.data):
            raise StorageError(
                f"write [{offset}, {offset + len(payload)}) out of bounds for "
                f"page of size {len(self.data)}"
            )
        self.data[offset : offset + len(payload)] = payload
        self.dirty = True

    def __repr__(self) -> str:
        return (
            f"Page(id={self.page_id}, pins={self.pin_count}, "
            f"dirty={self.dirty}, size={len(self.data)})"
        )
