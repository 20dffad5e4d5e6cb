"""Shared-memory tensor transport edge cases (repro.cluster.shm)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import shm

from .conftest import shm_listing

MB = 1024 * 1024


@pytest.mark.parametrize("dtype", ["float32", "float64", "int64"])
def test_round_trip_preserves_dtype_and_shape(dtype, shm_before):
    arr = (np.arange(24).reshape(4, 6) * 1.5).astype(dtype)
    ref, seg = shm.share_array(arr, "repro-test-rt", MB)
    try:
        assert ref.kind == shm.SHM
        assert ref.dtype == dtype
        assert ref.shape == (4, 6)
        out = shm.read_array(ref)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        np.testing.assert_array_equal(out, arr)
    finally:
        shm.release(seg)
    assert shm_listing() <= shm_before


def test_zero_row_batch_travels_without_a_segment(shm_before):
    arr = np.empty((0, 28), dtype=np.float64)
    ref, seg = shm.share_array(arr, "repro-test-zero", MB)
    assert seg is None  # a POSIX segment cannot be 0 bytes
    assert ref.kind == shm.EMPTY
    out = shm.read_array(ref)
    assert out.shape == (0, 28)
    assert out.dtype == np.float64
    assert shm_listing() <= shm_before


def test_oversized_batch_falls_back_to_pickling(shm_before):
    arr = np.ones((64, 64), dtype=np.float64)
    ref, seg = shm.share_array(arr, "repro-test-big", max_shm_bytes=1024)
    assert seg is None  # no segment created: nothing to leak
    assert ref.kind == shm.INLINE
    assert ref.payload is not None
    np.testing.assert_array_equal(shm.read_array(ref), arr)
    assert shm_listing() <= shm_before


def test_read_copy_survives_release():
    arr = np.random.default_rng(3).normal(size=(8, 8))
    ref, seg = shm.share_array(arr, "repro-test-copy", MB)
    out = shm.read_array(ref)
    shm.release(seg)  # sender unlinks immediately after the response
    np.testing.assert_array_equal(out, arr)


def test_write_into_fills_presized_slot(shm_before):
    from multiprocessing import shared_memory

    labels = np.arange(16, dtype=np.int64)
    slot = shared_memory.SharedMemory(
        create=True, size=labels.nbytes, name="repro-test-slot"
    )
    try:
        ref = shm.write_into("repro-test-slot", labels.nbytes, labels)
        assert ref.kind == shm.SHM
        view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=slot.buf)
        np.testing.assert_array_equal(view, labels)
    finally:
        shm.release(slot)
    assert shm_listing() <= shm_before


def test_write_into_overflow_falls_back_inline(shm_before):
    from multiprocessing import shared_memory

    labels = np.arange(16, dtype=np.int64)
    slot = shared_memory.SharedMemory(
        create=True, size=8, name="repro-test-tiny"
    )
    try:
        # A result that does not fit the pre-sized slot must not corrupt
        # it: the payload travels inline instead.
        ref = shm.write_into("repro-test-tiny", 8, labels)
        assert ref.kind == shm.INLINE
        np.testing.assert_array_equal(shm.read_array(ref), labels)
    finally:
        shm.release(slot)
    assert shm_listing() <= shm_before


def test_release_tolerates_double_unlink():
    arr = np.ones(4)
    __, seg = shm.share_array(arr, "repro-test-dbl", MB)
    shm.release(seg)
    shm.release(seg)  # second release is a no-op, not an error
    shm.release(None)


def test_slot_round_trip_through_kept_attachments(shm_before):
    # One slot carries request after request: the peer maps it once and
    # reads features / writes labels through that one mapping.
    slot = shm.Slot("repro-test-reslot", capacity=1024, generation=1)
    peer = shm.Attachments()
    try:
        for rows in (3, 16, 5):
            features = np.arange(rows * 4, dtype=np.float64).reshape(rows, 4)
            in_ref = slot.write_input(features)
            got = shm.read_array(in_ref, peer.buf(in_ref.segment))
            np.testing.assert_array_equal(got, features)
            labels = np.arange(rows, dtype=np.int64) + rows
            out_ref = shm.write_into(
                slot.name, slot.capacity, labels, slot.capacity, peer.buf(slot.name)
            )
            assert (out_ref.kind, out_ref.offset) == (shm.SHM, slot.capacity)
            np.testing.assert_array_equal(slot.read(out_ref), labels)
            # The label region never overlaps the input region.
            np.testing.assert_array_equal(
                shm.read_array(in_ref, peer.buf(slot.name)), features
            )
        assert peer.buf(None) is None  # EMPTY / INLINE refs name no segment
    finally:
        peer.close()
        slot.release()
    assert shm_listing() <= shm_before
