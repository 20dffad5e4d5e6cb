"""A reentrant readers-writer lock for the Database concurrency contract.

The serving front-end's contract: **concurrent reads** (SELECT, PREDICT,
SHOW, EXPLAIN) share the lock; **DDL/DML and administrative changes**
(CREATE/DROP/INSERT/UPDATE/DELETE, ``set_option``, ``register_model``)
take it exclusively.  The lock is writer-preferring so a steady stream of
PREDICT traffic cannot starve a schema change.

Reentrancy rules, chosen to match how :class:`repro.session.Database`
nests its own calls:

* a thread already holding the read side may re-acquire it freely
  (``execute(SELECT)`` → planner → ``predict``);
* a thread holding the *write* side may acquire the read side as a no-op
  (``CREATE TABLE AS`` plans and runs its SELECT under the write lock);
* upgrading read → write is refused with ``RuntimeError`` (it deadlocks
  two upgraders against each other).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class ReadWriteLock:
    """Writer-preferring, per-thread-reentrant readers/writer lock."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0  # threads holding the read side (once each)
        self._waiting_writers = 0
        self._writer: int | None = None  # ident of the write holder
        self._writer_depth = 0
        self._local = threading.local()
        #: Advances as each outermost write section begins and as it ends,
        #: so what a reader derived from the guarded state at one
        #: generation is current for as long as the generation reads the
        #: same (a read nested in a write section derives at a generation
        #: the section's end retires).
        self.generation = 0

    # -- read side -------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        if self._writer == me:
            # Reads nested under this thread's own write are no-ops.
            self._local.read_under_write = (
                getattr(self._local, "read_under_write", 0) + 1
            )
            return
        depth = getattr(self._local, "read_depth", 0)
        if depth:
            self._local.read_depth = depth + 1
            return
        with self._cond:
            # Writer preference: new readers queue behind waiting writers.
            while self._writer is not None or self._waiting_writers:
                self._cond.wait()
            self._active_readers += 1
        self._local.read_depth = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        if self._writer == me:
            nested = getattr(self._local, "read_under_write", 0)
            if nested <= 0:
                raise RuntimeError("release_read without matching acquire_read")
            self._local.read_under_write = nested - 1
            return
        depth = getattr(self._local, "read_depth", 0)
        if depth <= 0:
            raise RuntimeError("release_read without matching acquire_read")
        self._local.read_depth = depth - 1
        if depth == 1:
            with self._cond:
                self._active_readers -= 1
                if self._active_readers == 0:
                    self._cond.notify_all()

    # -- write side ------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if getattr(self._local, "read_depth", 0):
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock "
                    "(release the read side first)"
                )
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._active_readers:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = me
            self._writer_depth = 1
            self.generation += 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release_write by a thread not holding it")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self.generation += 1
                self._cond.notify_all()

    # -- context managers ------------------------------------------------

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
