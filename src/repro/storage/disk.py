"""Disk managers: where evicted pages go.

Two implementations share one interface:

* :class:`FileDiskManager` writes pages to a real file (the default for a
  :class:`repro.session.Database` with a path) so spilling is genuine I/O.
* :class:`InMemoryDiskManager` keeps pages in a dict, for fast unit tests.

Both count reads and writes; the relation-centric benchmarks report these
to show how much of a large operator was served from disk versus the pool.

Durability (:class:`FileDiskManager`): each on-disk slot is
``magic(4) + crc32(4) + page`` (:data:`PAGE_MAGIC`,
:data:`PAGE_HEADER`).  Reads verify the checksum and raise a typed
:class:`~repro.errors.CorruptPageError` on a torn write, bit rot, or a
foreign file — the disk path is never trusted blindly.  An all-zero slot
is an allocated-but-never-written page (a sparse hole) and reads as
zeros.  Reopening a file whose size is not a whole number of slots means
the final write was torn mid-page; that raises
:class:`~repro.errors.StorageError` naming the byte offset rather than
silently truncating the tail.

Both managers are fault-injection points (sites ``disk.read_page``,
``disk.write_page``, ``disk.sync`` — see :mod:`repro.faults`).  Error
kinds raise at the site; corruption kinds damage the slot bytes in
flight so the checksum machinery detects them later, exactly like real
media faults.  The in-memory manager has no checksums, so only error
kinds are meaningful there.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib

from dataclasses import dataclass

from ..errors import CorruptPageError, StorageError
from ..faults import ERROR, NULL_INJECTOR, FaultInjector, corrupt
from .page import PageId

#: On-disk slot header: 4-byte magic + CRC32 of the page payload.
PAGE_HEADER = struct.Struct("<4sI")
PAGE_MAGIC = b"RPG1"


@dataclass
class DiskStats:
    """I/O counters maintained by every disk manager."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    allocated_pages: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0


class DiskManager:
    """Abstract page-granular persistent store."""

    def __init__(self, page_size: int, injector: FaultInjector | None = None):
        self.page_size = page_size
        self.stats = DiskStats()
        self.injector = injector if injector is not None else NULL_INJECTOR
        self._next_page_id: PageId = 0

    def allocate_page(self) -> PageId:
        """Reserve a new page id (contents undefined until first write)."""
        page_id = self._next_page_id
        self._next_page_id += 1
        self.stats.allocated_pages += 1
        return page_id

    @property
    def num_pages(self) -> int:
        return self._next_page_id

    def read_page(self, page_id: PageId) -> bytes:
        raise NotImplementedError

    def write_page(self, page_id: PageId, data: bytes) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        """Force written pages onto stable storage (no-op by default)."""

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""

    def _check(self, page_id: PageId, data: bytes | None = None) -> None:
        if page_id < 0 or page_id >= self._next_page_id:
            raise StorageError(f"page {page_id} was never allocated")
        if data is not None and len(data) != self.page_size:
            raise StorageError(
                f"page write must be exactly {self.page_size} bytes, "
                f"got {len(data)}"
            )


class InMemoryDiskManager(DiskManager):
    """Dict-backed disk manager for tests and ephemeral databases.

    Fires the ``disk.*`` fault sites for error kinds; corruption kinds
    are ignored (there is no checksummed slot format to detect them, so
    injecting them here would be silent corruption with no story).
    """

    def __init__(self, page_size: int, injector: FaultInjector | None = None):
        super().__init__(page_size, injector=injector)
        self._pages: dict[PageId, bytes] = {}

    def read_page(self, page_id: PageId) -> bytes:
        self._check(page_id)
        self.injector.fire("disk.read_page", page_id=page_id)
        data = self._pages.get(page_id)
        if data is None:
            data = bytes(self.page_size)
        self.stats.reads += 1
        self.stats.bytes_read += self.page_size
        return data

    def write_page(self, page_id: PageId, data: bytes) -> None:
        self._check(page_id, data)
        self.injector.fire("disk.write_page", page_id=page_id)
        self._pages[page_id] = bytes(data)
        self.stats.writes += 1
        self.stats.bytes_written += self.page_size

    def sync(self) -> None:
        self.injector.fire("disk.sync")

    def close(self) -> None:
        """Free every page: an in-memory database's data ends with it."""
        self._pages.clear()


class FileDiskManager(DiskManager):
    """Single-file disk manager, one checksummed slot per page.

    If no path is given, a temporary file is created and deleted on close.
    """

    def __init__(
        self,
        page_size: int,
        path: str | None = None,
        injector: FaultInjector | None = None,
    ):
        super().__init__(page_size, injector=injector)
        self._slot_size = page_size + PAGE_HEADER.size
        if path is None:
            fd, self._path = tempfile.mkstemp(prefix="repro-db-", suffix=".pages")
            self._owns_file = True
            self._file = os.fdopen(fd, "r+b")
        else:
            self._path = path
            self._owns_file = False
            mode = "r+b" if os.path.exists(path) else "w+b"
            self._file = open(path, mode)
            existing = os.path.getsize(path)
            torn = existing % self._slot_size
            if torn:
                self._file.close()
                raise StorageError(
                    f"page file {path!r} ends with a torn partial page: "
                    f"{torn} trailing bytes at byte offset {existing - torn} "
                    f"(expected a multiple of {self._slot_size}-byte slots)"
                )
            self._next_page_id = existing // self._slot_size

    @property
    def path(self) -> str:
        return self._path

    @property
    def slot_size(self) -> int:
        """Bytes one page occupies on disk (page + checksum header)."""
        return self._slot_size

    def read_page(self, page_id: PageId) -> bytes:
        self._check(page_id)
        spec = self.injector.fire("disk.read_page", page_id=page_id)
        self._file.seek(page_id * self._slot_size)
        raw = self._file.read(self._slot_size)
        if spec is not None and spec.kind != ERROR:
            # Simulated media damage between the platter and the caller.
            raw = corrupt(raw, spec)
        self.stats.reads += 1
        self.stats.bytes_read += self.page_size
        return self._verify_slot(page_id, raw)

    def _verify_slot(self, page_id: PageId, raw: bytes) -> bytes:
        if not raw.strip(b"\x00"):
            # Allocated but never written (or a sparse hole before a
            # higher page): zero-filled by definition.
            return bytes(self.page_size)
        if len(raw) < self._slot_size:
            raise CorruptPageError(
                f"page {page_id} in {self._path!r} is torn: slot holds "
                f"{len(raw)} of {self._slot_size} bytes",
                page_id=page_id,
                path=self._path,
            )
        magic, crc = PAGE_HEADER.unpack_from(raw)
        data = raw[PAGE_HEADER.size :]
        if magic != PAGE_MAGIC:
            raise CorruptPageError(
                f"page {page_id} in {self._path!r} has a corrupt header "
                f"(magic {magic!r})",
                page_id=page_id,
                path=self._path,
            )
        if zlib.crc32(data) & 0xFFFFFFFF != crc:
            raise CorruptPageError(
                f"page {page_id} in {self._path!r} failed its checksum "
                f"(torn write or bit rot)",
                page_id=page_id,
                path=self._path,
            )
        return data

    def write_page(self, page_id: PageId, data: bytes) -> None:
        self._check(page_id, data)
        spec = self.injector.fire("disk.write_page", page_id=page_id)
        data = bytes(data)
        slot = PAGE_HEADER.pack(PAGE_MAGIC, zlib.crc32(data) & 0xFFFFFFFF) + data
        if spec is not None and spec.kind != ERROR:
            # Torn write / bit flip: the write "succeeds" (as a crashed
            # write would) and the checksum catches it on a later read.
            slot = corrupt(slot, spec)
        self._file.seek(page_id * self._slot_size)
        self._file.write(slot)
        self.stats.writes += 1
        self.stats.bytes_written += self.page_size

    def sync(self) -> None:
        """Flush buffered writes and fsync them onto stable storage."""
        self.injector.fire("disk.sync")
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file.closed:
            return
        self._file.flush()
        self._file.close()
        if self._owns_file:
            try:
                os.unlink(self._path)
            except OSError:
                pass
