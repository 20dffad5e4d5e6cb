"""The compute-block factor: how far the relation-centric engine coarsens
the stored weight blocks for one vector stage."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import mb
from repro.core.cost import compute_block_bytes, compute_block_factor


def test_table3_config_multiplies_on_1024_blocks():
    # Amazon-14k-FC at 1/100 scale: 5975 → 1024, a 1000-row stripe,
    # 128×128 stored blocks and a 24 MiB threshold.
    assert compute_block_factor([(5975, 1024)], 1000, 128, mb(24)) == 8
    assert compute_block_bytes(1024, 1024, 1000) <= mb(24)
    assert compute_block_bytes(2048, 1024, 1000) > mb(24)


def test_a_one_byte_threshold_keeps_the_stored_blocks():
    assert compute_block_factor([(5975, 1024)], 1000, 128, 1) == 1
    assert compute_block_factor([(512, 512), (512, 256)], 256, 128, 1) == 1


def test_a_stage_without_linears_keeps_the_stored_blocks():
    assert compute_block_factor([], 1000, 128, mb(1024)) == 1


def test_side_stops_at_the_widest_dimension():
    # 300 rounds up to 384: side 256 fits, 512 would not.
    assert compute_block_factor([(300, 40), (40, 7)], 64, 128, mb(1024)) == 2
    assert compute_block_factor([(128, 128)], 64, 128, mb(1024)) == 1


_shapes = st.lists(
    st.tuples(st.integers(1, 3000), st.integers(1, 3000)), min_size=1, max_size=4
)


@settings(max_examples=200, deadline=None)
@given(
    shapes=_shapes,
    rows=st.integers(1, 2048),
    floor=st.sampled_from([8, 32, 128]),
    memory=st.integers(0, 1 << 28),
    more=st.integers(0, 1 << 28),
)
def test_factor_is_monotone_and_bounded(shapes, rows, floor, memory, more):
    factor = compute_block_factor(shapes, rows, floor, memory)
    assert factor >= 1 and factor & (factor - 1) == 0  # a power of two
    assert compute_block_factor(shapes, rows, floor, memory + more) >= factor
    widest = max(max(shape) for shape in shapes)
    assert factor * floor <= max(floor, -(-widest // floor) * floor)
    if factor > 1:
        widest_out = max(out for __, out in shapes)
        assert compute_block_bytes(factor * floor, widest_out, rows) <= memory
