"""Deterministic canary/shadow request routing.

Canary routing is *fingerprint-hashed*: each feature row is hashed
(CRC-32 of its raw bytes) and lands in the canary slice iff
``hash % 10_000 < percent * 100``.  The split is therefore a pure
function of the row — the same input routes the same way on every
replica, across batches, and across runs — which is what makes the
deploy-chaos CI job's two-run diff meaningful.

Both canary and shadow execution are wrapped so that a failing *new*
version can never surface to a client: canary rows fall back to the
stable version, shadow failures only feed the deployment controller.
The controller (per-version breaker, SLO burn, divergence counters)
decides whether the deployment advances or rolls back.
"""

from __future__ import annotations

import zlib

import numpy as np


def routing_hashes(features: np.ndarray) -> np.ndarray:
    """Stable per-row fingerprints (CRC-32 over the row's raw bytes)."""
    rows = np.ascontiguousarray(features)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    return np.fromiter(
        (zlib.crc32(row.tobytes()) for row in rows),
        dtype=np.uint64,
        count=rows.shape[0],
    )


def canary_mask(hashes: np.ndarray, percent: float) -> np.ndarray:
    """Boolean mask of the rows whose fingerprint lands in the canary."""
    return (hashes % 10_000) < int(round(percent * 100))


def routed_predict(controller, entry, features, execute):
    """Execute one prediction call against a pinned snapshot's routing.

    ``entry`` comes from the snapshot the caller pinned;
    ``execute(record, features)`` runs the underlying engine (in-process
    path or cluster path) for one version record.  Returns the label
    array.
    """
    serving = entry.record(entry.serving)
    if entry.canary is None and entry.shadow is None:
        return execute(serving, features)

    if entry.canary is not None:
        return _canary_predict(controller, entry, features, execute, serving)

    # Shadow: the stable version answers; the shadow version sees a copy
    # and its outputs are compared row-for-row (label disagreement is the
    # serving error bound used by the divergence threshold).
    out = execute(serving, features)
    try:
        mirrored = execute(entry.record(entry.shadow), features)
    except Exception as exc:
        controller.observe_shadow(
            entry.model, entry.shadow, compared=0, diverged=0,
            ok=False, error=exc,
        )
        return out
    diverged = int(np.count_nonzero(
        np.asarray(mirrored).reshape(-1) != np.asarray(out).reshape(-1)
    ))
    controller.observe_shadow(
        entry.model, entry.shadow,
        compared=int(np.asarray(out).reshape(-1).shape[0]),
        diverged=diverged, ok=True,
    )
    return out


def _canary_predict(controller, entry, features, execute, serving):
    n = int(features.shape[0])
    mask = canary_mask(routing_hashes(features), entry.canary_percent)
    canary_idx = np.flatnonzero(mask)
    stable_idx = np.flatnonzero(~mask)
    canary = entry.record(entry.canary)

    stable_out = (
        execute(serving, features[stable_idx])
        if stable_idx.size
        else None
    )
    canary_out = None
    if canary_idx.size:
        try:
            canary_out = execute(canary, features[canary_idx])
            controller.observe_canary(
                entry.model, entry.canary, ok=True,
                canary_rows=int(canary_idx.size), total_rows=n,
            )
        except Exception as exc:
            controller.observe_canary(
                entry.model, entry.canary, ok=False,
                canary_rows=int(canary_idx.size), total_rows=n, error=exc,
            )
            # The stable version absorbs the canary slice: a broken new
            # version costs one extra execute, never a client error.
            canary_out = execute(serving, features[canary_idx])
    else:
        controller.observe_canary(
            entry.model, entry.canary, ok=True, canary_rows=0, total_rows=n,
        )

    if stable_out is None:
        return canary_out
    if canary_out is None:
        return stable_out
    stable_out = np.asarray(stable_out)
    canary_out = np.asarray(canary_out)
    out = np.empty(n, dtype=stable_out.dtype)
    out[stable_idx] = stable_out
    out[canary_idx] = canary_out
    return out
