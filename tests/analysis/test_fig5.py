"""Unit tests for the Figure-5 reproduction driver."""

import math

import pytest

from repro.analysis import fig5, run_fig5
from repro.analysis.fig5 import _curve
from repro.core import SafetyDefinition
from repro.mesh import Mesh2D, Torus2D

from tests.analysis.fig5_reference import fig5_rows_reference, run_fig5_reference


@pytest.fixture(scope="module")
def small_curve():
    # A scaled-down sweep keeps the test fast while exercising the
    # whole pipeline; benchmarks run the paper-sized version.
    return run_fig5(
        SafetyDefinition.DEF_2B,
        topology=Mesh2D(40, 40),
        f_values=[0, 10, 20, 40],
        trials=6,
        seed=99,
    )


class TestFig5Driver:
    def test_points_per_f_value(self, small_curve):
        assert [p.f for p in small_curve.points] == [0, 10, 20, 40]

    def test_zero_faults_zero_rounds(self, small_curve):
        p0 = small_curve.points[0]
        assert p0.rounds_fb.mean == 0.0
        assert p0.rounds_dr.mean == 0.0
        assert p0.num_blocks.mean == 0.0
        assert math.isnan(p0.enabled_ratio.mean)  # no reducible blocks

    def test_rounds_far_below_diameter(self, small_curve):
        # The paper's headline: rounds are much lower than the diameter.
        diameter = 78
        for p in small_curve.points:
            assert p.rounds_fb.mean < diameter / 4
            assert p.rounds_dr.mean < diameter / 4

    def test_enabled_ratio_high_at_low_density(self, small_curve):
        # "The average percentage ... stays very high, especially when
        # the number of faults is relatively low."
        p = small_curve.points[1]  # f=10 on 40x40
        assert p.enabled_ratio.mean > 0.9 or math.isnan(p.enabled_ratio.mean)

    def test_blocks_grow_with_f(self, small_curve):
        counts = [p.num_blocks.mean for p in small_curve.points]
        assert counts == sorted(counts)

    def test_table_rendering(self, small_curve):
        table = small_curve.as_table()
        assert "rounds(FB)" in table and "Definition 2b" in table
        assert str(small_curve.points[-1].f) in table

    def test_reproducible(self):
        kw = dict(
            topology=Mesh2D(20, 20), f_values=[8], trials=3, seed=123
        )
        a = run_fig5(SafetyDefinition.DEF_2A, **kw)
        b = run_fig5(SafetyDefinition.DEF_2A, **kw)
        pa, pb = a.points[0], b.points[0]
        assert pa.rounds_fb.mean == pb.rounds_fb.mean
        assert pa.num_blocks.mean == pb.num_blocks.mean
        ra, rb = pa.enabled_ratio.mean, pb.enabled_ratio.mean
        assert (math.isnan(ra) and math.isnan(rb)) or ra == rb

    def test_torus_supported(self):
        curve = run_fig5(
            SafetyDefinition.DEF_2B,
            topology=Torus2D(20, 20),
            f_values=[6],
            trials=3,
            seed=5,
        )
        assert curve.points[0].num_blocks.mean > 0

    def test_jobs_and_method_invisible(self):
        # Parallel scheduling and the method name must not change a
        # single aggregate: every (f, trial) cell reseeds from its grid
        # position, and "auto" and "dense" name the same kernel.
        def same(a, b):
            # Exact equality, except nan == nan (f=0 has no reducible
            # blocks, so enabled_ratio aggregates zero samples).
            return a == b or (math.isnan(a) and math.isnan(b))

        kw = dict(topology=Mesh2D(20, 20), f_values=[0, 8], trials=3, seed=123)
        base = run_fig5(SafetyDefinition.DEF_2B, **kw)
        fields = ("rounds_fb", "rounds_dr", "enabled_ratio", "num_blocks", "num_regions")
        for variant in (
            run_fig5(SafetyDefinition.DEF_2B, jobs=2, **kw),
            run_fig5(SafetyDefinition.DEF_2B, method="dense", jobs=2, **kw),
        ):
            for pv, pb in zip(variant.points, base.points):
                assert pv.f == pb.f
                for name in fields:
                    sv, sb = getattr(pv, name), getattr(pb, name)
                    assert sv.n == sb.n
                    assert same(sv.mean, sb.mean) and same(sv.std, sb.std)


class TestBatchMatchesPerTrialOracle:
    """The batched ``run_fig5`` reproduces the per-trial ``label_mesh`` path
    (``fig5_reference``) row for row and byte for byte."""

    F_VALUES = (0, 3, 8, 16, 24)

    @pytest.mark.parametrize("topo_cls", [Mesh2D, Torus2D])
    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    @pytest.mark.parametrize("method", ["dense", "auto"])
    def test_tables_identical(self, topo_cls, definition, method):
        topo = topo_cls(24, 24)
        expected = run_fig5_reference(
            definition, topo, self.F_VALUES, trials=6, seed=31
        ).as_table()
        for jobs in (1, 2):
            got = run_fig5(
                definition, topology=topo, f_values=self.F_VALUES, trials=6,
                seed=31, method=method, jobs=jobs,
            )
            assert got.as_table() == expected

    @pytest.mark.parametrize("topo_cls", [Mesh2D, Torus2D])
    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    def test_rows_identical_across_batch_splits(self, monkeypatch, topo_cls, definition):
        # Batches of 1, 3 and all 7 planes: the split never shows in a row.
        topo = topo_cls(17, 13)
        trials, seed, f_values = 7, 5, (0, 3, 6, 12)
        expected = fig5_rows_reference(topo, definition, f_values, trials, seed)
        for planes in (1, 3, trials):
            monkeypatch.setattr(fig5, "_BATCH_CELLS", planes * topo.num_nodes)
            curve = run_fig5(
                definition, topology=topo, f_values=f_values, trials=trials,
                seed=seed,
            )
            assert curve.as_table() == _curve(
                definition, topo, f_values, trials, seed, expected
            ).as_table()
            for fi, f in enumerate(f_values):
                rows = []
                for start in range(0, trials, planes):
                    stop = min(start + planes, trials)
                    rows += fig5._fig5_batch(
                        (topo, definition, f, fi, start, stop, trials, seed)
                    )
                assert rows == expected[fi * trials : (fi + 1) * trials]

    def test_budget_holds_at_least_one_plane(self, monkeypatch):
        monkeypatch.setattr(fig5, "_BATCH_CELLS", 1)
        topo = Mesh2D(9, 9)
        kw = dict(topology=topo, f_values=[10], trials=3, seed=2)
        assert (
            run_fig5(SafetyDefinition.DEF_2A, **kw).as_table()
            == run_fig5_reference(SafetyDefinition.DEF_2A, topo, [10], 3, 2).as_table()
        )

    def test_unwrappable_torus_raises_like_label_mesh(self):
        # Dense faults on a small torus fill every column: the batch
        # raises the ValueError label_mesh raises for that trial.
        topo = Torus2D(6, 6)
        with pytest.raises(ValueError, match="cannot unwrap torus labels"):
            run_fig5_reference(SafetyDefinition.DEF_2A, topo, [30], 2, 0)
        with pytest.raises(ValueError, match="cannot unwrap torus labels"):
            run_fig5(
                SafetyDefinition.DEF_2A, topology=topo, f_values=[30], trials=2, seed=0
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_fig5(topology=Mesh2D(5, 5), f_values=[1], trials=1, method="bogus")

    def test_frontier_method_rejected(self):
        # The sweep has one kernel; "frontier" no longer names one.
        with pytest.raises(ValueError, match="unknown method 'frontier'"):
            run_fig5(topology=Mesh2D(5, 5), f_values=[1], trials=1, method="frontier")
