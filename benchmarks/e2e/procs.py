"""Leave no process behind.

``serve_cluster_open`` starts worker processes, and each worker starts a
``multiprocessing`` resource tracker of its own on its first shared-memory
attach; this process starts one too.  The pool joins its workers, but the
trackers are nobody's to wait for: a worker's tracker is orphaned when the
worker exits and ends a moment later, this process's tracker ends only after
this process has.  :func:`adopt_orphans` makes such orphans children of this
process, and :func:`reap_all` ends and waits for every child before exit.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Orphaned descendants are re-parented to this process, not to init.

    Call before anything is started.  False where the kernel refuses."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def child_pids() -> list[int]:
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces and brackets
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_resource_tracker() -> None:
    """End this process's resource tracker, if one was started, and wait for it."""
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError):  # tracker internals vary; reap_all still waits
        pass


def reap_all(grace_s: float = 5.0) -> int:
    """Wait until every child of this process has ended; returns how many.

    Children still running after ``grace_s`` are killed, then waited for."""
    stop_resource_tracker()
    reaped = 0
    next_kill = time.monotonic() + grace_s
    while True:
        try:
            pid, __ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped  # no child is left
        if pid:
            reaped += 1
        elif time.monotonic() > next_kill:
            # Again every 0.1 s: a killed child may orphan children of its own.
            for child in child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            next_kill = time.monotonic() + 0.1
        else:
            time.sleep(0.005)
