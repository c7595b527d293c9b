"""Register lanes: architectural state and propagation delays."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lanes import ArchLanes, LaneGeometry

PES = 16
BUF = 8
ICD = 1


def delay(prod, cons):
    return LaneGeometry(PES, BUF, ICD).delay(*prod, *cons)


class TestArchLanes:
    def test_x0_ignored(self):
        lanes = ArchLanes()
        lanes.write("x", 0, 123)
        assert lanes.read("x", 0) == 0

    def test_separate_files(self):
        lanes = ArchLanes()
        lanes.write("x", 5, 10)
        lanes.write("f", 5, 20)
        assert lanes.read("x", 5) == 10
        assert lanes.read("f", 5) == 20

    def test_masking(self):
        lanes = ArchLanes()
        lanes.write("x", 1, 1 << 40)
        assert lanes.read("x", 1) == 0

    def test_copy_is_independent(self):
        lanes = ArchLanes()
        clone = lanes.copy()
        clone.write("x", 3, 9)
        assert lanes.read("x", 3) == 0

    def test_sp_initialized(self):
        assert ArchLanes().read("x", 2) == ArchLanes.STACK_TOP

    def test_as_dict(self):
        d = ArchLanes().as_dict()
        assert len(d) == 64
        assert d[("x", 2)] == ArchLanes.STACK_TOP


class TestLaneDelay:
    def test_adjacent_same_segment(self):
        assert delay((0, 0), (0, 1)) == 1

    def test_within_segment_constant(self):
        assert delay((0, 0), (0, 7)) == 1

    def test_segment_boundary_adds_cycle(self):
        assert delay((0, 0), (0, 8)) == 2
        assert delay((0, 7), (0, 8)) == 2

    def test_cluster_boundary(self):
        # producer at last PE of activation 0, consumer at first PE of 1
        assert delay((0, 15), (1, 0)) == 1 + ICD

    def test_far_cluster(self):
        base = delay((0, 0), (1, 0))
        farther = delay((0, 0), (3, 0))
        assert farther == base + 2 * ICD

    def test_backwards_rejected(self):
        with pytest.raises(ValueError):
            delay((1, 0), (0, 5))
        with pytest.raises(ValueError):
            delay((0, 5), (0, 5))

    @given(pa=st.integers(0, 10), ia=st.integers(0, 15),
           pb=st.integers(0, 10), ib=st.integers(0, 15))
    def test_positive_and_monotonic(self, pa, ia, pb, ib):
        if (pa, ia) >= (pb, ib):
            return
        d = delay((pa, ia), (pb, ib))
        assert d >= 1
        # moving the consumer one cluster later never reduces delay
        assert delay((pa, ia), (pb + 1, ib)) >= d
