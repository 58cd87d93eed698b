"""Unit tests for the fault-pattern generators."""

import numpy as np
import pytest

from repro.errors import FaultModelError
from repro.faults import (
    clustered,
    rectangle_outage,
    shaped,
    uniform_random,
)
from repro.faults.generators import draw_uniform
from repro.geometry import is_orthoconvex, is_rectangle


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestUniformRandom:
    def test_exact_count(self, rng):
        f = uniform_random((20, 20), 37, rng)
        assert len(f) == 37

    def test_zero_faults(self, rng):
        assert len(uniform_random((10, 10), 0, rng)) == 0

    def test_all_faults(self, rng):
        assert len(uniform_random((4, 4), 16, rng)) == 16

    def test_count_validation(self, rng):
        with pytest.raises(FaultModelError):
            uniform_random((4, 4), 17, rng)
        with pytest.raises(FaultModelError):
            uniform_random((4, 4), -1, rng)

    def test_reproducible_from_seed(self):
        a = uniform_random((20, 20), 15, np.random.default_rng(5))
        b = uniform_random((20, 20), 15, np.random.default_rng(5))
        assert a == b

    @pytest.mark.parametrize("count", [0, 1, 37, 400])
    def test_plane_draw_is_the_same_stream(self, count):
        # Figure-5 trials draw straight into a plane of their stack; the
        # plane must hold the mask uniform_random draws from the same
        # stream, which is the one rng.choice gives.
        stack = np.zeros((3, 20 * 20), dtype=bool)
        draw_uniform(stack[1], count, np.random.default_rng(count))
        want = np.zeros(400, dtype=bool)
        want[np.random.default_rng(count).choice(400, size=count, replace=False)] = True
        assert np.array_equal(stack[1], want)
        assert not stack[0].any() and not stack[2].any()
        mask = uniform_random((20, 20), count, np.random.default_rng(count)).mask
        assert np.array_equal(mask.reshape(-1), want)

    def test_plane_draw_count_validation(self, rng):
        with pytest.raises(FaultModelError):
            draw_uniform(np.zeros(16, dtype=bool), 17, rng)

    def test_roughly_uniform_spread(self):
        # With many draws, each quadrant of the grid gets a fair share.
        rng = np.random.default_rng(7)
        counts = np.zeros(4)
        for _ in range(50):
            f = uniform_random((20, 20), 40, rng)
            for x, y in f:
                counts[(x >= 10) * 2 + (y >= 10)] += 1
        assert counts.min() > 0.7 * counts.max()


class TestClustered:
    def test_exact_count(self, rng):
        f = clustered((30, 30), 50, rng, clusters=3)
        assert len(f) == 50

    def test_tighter_than_uniform(self, rng):
        # Clustered faults produce larger faulty blocks on average: use
        # mean pairwise distance as a proxy for spatial concentration.
        def spread(fault_set):
            pts = np.array(list(fault_set), dtype=float)
            d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1)
            return d.mean()

        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        tight = np.mean([spread(clustered((40, 40), 30, rng1, 2, 1.5)) for _ in range(5)])
        loose = np.mean([spread(uniform_random((40, 40), 30, rng2)) for _ in range(5)])
        assert tight < loose

    def test_parameter_validation(self, rng):
        with pytest.raises(FaultModelError):
            clustered((10, 10), 5, rng, clusters=0)
        with pytest.raises(FaultModelError):
            clustered((10, 10), 5, rng, spread=0.0)
        with pytest.raises(FaultModelError):
            clustered((4, 4), 20, rng)

    def test_dense_request_terminates(self, rng):
        # Nearly the whole grid: the widening retry loop must finish.
        f = clustered((6, 6), 30, rng, clusters=1, spread=0.5)
        assert len(f) == 30


class TestRectangleOutage:
    def test_block_is_rectangle(self, rng):
        f = rectangle_outage((20, 20), rng)
        assert is_rectangle(f.cells)

    def test_explicit_extent(self, rng):
        f = rectangle_outage((20, 20), rng, extent=(3, 5))
        x0, y0, x1, y1 = f.cells.bounding_box()
        assert (x1 - x0 + 1, y1 - y0 + 1) == (3, 5)

    def test_extent_validation(self, rng):
        with pytest.raises(FaultModelError):
            rectangle_outage((5, 5), rng, extent=(6, 2))


class TestShaped:
    @pytest.mark.parametrize("kind", ["rect", "L", "T", "+"])
    def test_orthoconvex_kinds(self, kind):
        f = shaped((16, 16), kind, (2, 2), (6, 5))
        assert is_orthoconvex(f.cells)

    @pytest.mark.parametrize("kind", ["U", "H"])
    def test_non_orthoconvex_kinds(self, kind):
        f = shaped((16, 16), kind, (2, 2), (7, 5))
        assert not is_orthoconvex(f.cells)

    def test_unknown_kind(self):
        with pytest.raises(FaultModelError):
            shaped((16, 16), "Z", (0, 0), (3, 3))
