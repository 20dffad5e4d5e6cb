"""Resident compute blocks in the buffer pool: pages and blocks share one
budget of ``capacity × page size`` bytes (a page costs a page size, a block
its bytes), a pinned block stays, and an invalidated block is never
returned again."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferPoolError
from repro.storage import BufferPool, ClockPolicy, InMemoryDiskManager, LruPolicy, TwoQueuePolicy

PAGE = 4096
POLICIES = {"lru": LruPolicy, "clock": ClockPolicy, "2q": TwoQueuePolicy}


def make_pool(capacity=8, policy="lru"):
    return BufferPool(InMemoryDiskManager(PAGE), capacity_pages=capacity, policy=POLICIES[policy]())


def block(frames, fill=0.0):
    """An array of exactly ``frames`` pages' bytes."""
    return np.full(frames * PAGE // 8, fill)


def test_a_block_is_charged_its_bytes():
    pool = make_pool()
    entry = pool.put_block(("t", 0, 0), np.zeros(PAGE // 8 + 1))
    assert entry.nbytes == PAGE + 8 and pool.resident_bytes == PAGE + 8
    assert pool.resident_pages == 2 and pool.resident_blocks == 1
    assert not entry.array.flags.writeable
    pool.unpin_blocks([entry])
    [again] = pool.get_blocks([("t", 0, 0)])
    assert again is entry
    pool.unpin_blocks([again])


def test_small_blocks_share_a_pages_bytes():
    """Eight 8×8 blocks (512 bytes each) fit in one 4 KiB page's worth, next
    to seven pages, in an eight-page pool: nothing is evicted."""
    pool = make_pool(capacity=8)
    for __ in range(7):
        pool.unpin_page(pool.new_page().page_id)
    small = [pool.put_block(("t", 0, i), np.zeros((8, 8))) for i in range(8)]
    assert None not in small and pool.stats.evictions == 0
    assert pool.resident_bytes == 8 * PAGE and pool.resident_pages == 8
    assert pool.put_block(("t", 0, 8), np.zeros((8, 8))) is None  # the owner's own stay


def test_get_is_all_or_nothing():
    pool = make_pool()
    pool.unpin_blocks([pool.put_block(("t", 0, 0), block(1))])
    assert pool.get_blocks([("t", 0, 0), ("t", 0, 1)]) is None
    # Nothing stayed pinned by the failed lookup: the block can be evicted.
    pool.unpin_blocks([pool.put_block(("u", 0, 0), block(8))])
    assert pool.get_blocks([("t", 0, 0)]) is None


def test_a_block_never_displaces_a_dirty_page():
    """A block is derived data: it takes free frames, clean pages and other
    blocks, and is refused rather than forcing a write-back."""
    pool = make_pool(capacity=4)
    for __ in range(3):
        page = pool.new_page()
        pool.unpin_page(page.page_id, dirty=True)
    assert pool.put_block(("t", 0, 0), block(2)) is None
    assert pool.disk.stats.writes == 0 and pool.resident_pages == 3
    pool.flush_all()  # the pages are clean now
    entry = pool.put_block(("t", 0, 0), block(2))
    assert entry is not None and pool.resident_pages == 4  # two pages, two block frames
    assert pool.stats.evictions == 1 and pool.disk.stats.writes == 3


def test_a_block_larger_than_the_pool_is_refused():
    pool = make_pool(capacity=4)
    assert pool.put_block(("t", 0, 0), block(5)) is None
    assert pool.resident_pages == 0


def test_pages_evict_unpinned_blocks_but_not_pinned_ones():
    pool = make_pool(capacity=4)
    pinned = pool.put_block(("t", 0, 0), block(2))
    pool.unpin_blocks([pool.put_block(("t", 0, 1), block(2))])
    page = pool.new_page()  # evicts the unpinned block
    assert pool.get_blocks([("t", 0, 1)]) is None
    pool.new_page()
    with pytest.raises(BufferPoolError, match="pinned"):
        pool.new_page()
    pool.unpin_page(page.page_id)
    assert pool.get_blocks([("t", 0, 0)]) == [pinned]


def test_release_drops_only_clean_unpinned_pages():
    pool = make_pool()
    dirty, clean, pinned = (pool.new_page() for __ in range(3))
    pool.unpin_page(dirty.page_id, dirty=True)
    pool.flush_page(clean.page_id)
    pool.unpin_page(clean.page_id)
    pool.flush_page(pinned.page_id)
    pool.release_pages([dirty.page_id, clean.page_id, pinned.page_id, 99])
    assert pool.resident_pages == 2
    reads = pool.disk.stats.reads
    pool.unpin_page(pool.fetch_page(clean.page_id).page_id)
    assert pool.disk.stats.reads == reads + 1


def test_dropping_an_owner_invalidates_pinned_blocks_too():
    pool = make_pool()
    entry = pool.put_block(("t", 0, 0), block(1))
    pool.unpin_blocks([pool.put_block(("u", 0, 0), block(1))])
    pool.drop_blocks("t")
    assert pool.get_blocks([("t", 0, 0)]) is None and pool.resident_pages == 1
    pool.unpin_blocks([entry])  # the holder still unpins it safely
    assert pool.get_blocks([("u", 0, 0)]) is not None


# -- the property ------------------------------------------------------------------

#: Block sizes in doubles: a sliver, an 8×8 block, a page, a page and a
#: double, several pages.
SIZES = (1, 64, PAGE // 8, PAGE // 8 + 1, 3 * PAGE // 8, 5 * PAGE // 8)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("new"), st.booleans()),
        st.tuples(st.just("fetch"), st.integers(0, 40)),
        st.tuples(st.just("unpin_page"), st.integers(0, 40)),
        st.tuples(st.just("put"), st.sampled_from("abc"), st.integers(0, 5), st.sampled_from(SIZES)),
        st.tuples(st.just("get"), st.sampled_from("abc"), st.integers(0, 5)),
        st.tuples(st.just("unpin_block"), st.integers(0, 40)),
        st.tuples(st.just("invalidate"), st.sampled_from("abc")),
        st.tuples(st.just("release"), st.integers(0, 40)),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(ops=OPS, capacity=st.integers(2, 10), policy=st.sampled_from(sorted(POLICIES)))
def test_pool_bound_pins_and_invalidation_hold_under_any_interleaving(ops, capacity, policy):
    pool = make_pool(capacity, policy)
    pages: list[int] = []  # every page id ever allocated
    page_pins: list[int] = []  # one item per pin we hold
    block_pins: list = []  # one entry per pin we hold
    generation = {owner: 0 for owner in "abc"}
    live: dict = {}  # key -> the array we last stored under it
    for op, *args in ops:
        try:
            if op == "new":
                page = pool.new_page()
                pages.append(page.page_id)
                pool.unpin_page(page.page_id, dirty=args[0])
            elif op == "fetch" and pages:
                page_id = pages[args[0] % len(pages)]
                pool.fetch_page(page_id)
                page_pins.append(page_id)
            elif op == "unpin_page" and page_pins:
                pool.unpin_page(page_pins.pop(args[0] % len(page_pins)))
            elif op == "put":
                owner, coord, size = args
                key = (owner, generation[owner], coord)
                array = np.full(size, float(len(live)))
                entry = pool.put_block(key, array)
                if entry is not None:
                    block_pins.append(entry)
                    live[key] = entry.array
            elif op == "get":
                owner, coord = args
                key = (owner, generation[owner], coord)
                got = pool.get_blocks([key])
                if got is not None:
                    assert key in live and got[0].array is live[key]
                    block_pins.append(got[0])
            elif op == "unpin_block" and block_pins:
                pool.unpin_blocks([block_pins.pop(args[0] % len(block_pins))])
            elif op == "invalidate":
                (owner,) = args
                pool.drop_blocks(owner)
                generation[owner] += 1
                live = {k: v for k, v in live.items() if k[0] != owner}
            elif op == "release" and pages:
                pool.release_pages([pages[args[0] % len(pages)]])
        except BufferPoolError:
            pass  # every frame pinned: the request fails, nothing changes
        assert pool.resident_bytes <= capacity * PAGE
        # Every block we still pin (and did not invalidate) is resident.
        for entry in block_pins:
            if entry.key in live:
                got = pool.get_blocks([entry.key])
                assert got == [entry]
                pool.unpin_blocks(got)
        # An invalidated key is never served, even under its old generation.
        for owner in "abc":
            for gen in range(generation[owner]):
                for coord in range(6):
                    assert pool.get_blocks([(owner, gen, coord)]) is None
        # The bytes in use cover what is held: a page size per pinned
        # page, and each pinned block's bytes.
        blocks = [e for e in block_pins if e.key in live]
        assert pool.resident_bytes >= len(set(page_pins)) * PAGE + sum(
            e.nbytes for e in {id(e): e for e in blocks}.values()
        )
