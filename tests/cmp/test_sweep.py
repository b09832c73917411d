"""Tests for the sweep summary statistics."""

import pytest

from repro.sweep import SweepSummary


class TestSweepSummary:
    def test_basic_stats(self):
        summary = SweepSummary((1.0, 2.0, 3.0))
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.count == 3
        assert summary.stdev == pytest.approx(1.0)

    def test_single_value_degenerate(self):
        summary = SweepSummary((5.0,))
        assert summary.stdev == 0.0
        assert summary.ci95_halfwidth == 0.0

    def test_ci_shrinks_with_samples(self):
        narrow = SweepSummary(tuple([1.0, 2.0] * 8))
        wide = SweepSummary((1.0, 2.0))
        assert narrow.ci95_halfwidth < wide.ci95_halfwidth

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SweepSummary(())

    def test_str_format(self):
        text = str(SweepSummary((1.0, 2.0)))
        assert "±" in text and "n=2" in text

