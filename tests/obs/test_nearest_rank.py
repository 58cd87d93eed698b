"""One nearest-rank percentile rule for engines, summaries and the SLO.

:func:`repro.obs.nearest_rank` replaced three copies: the traffic
engines' (which took a percent and returned ``nan`` when empty), the
trace summaries' and the SLO grader's (which took a fraction and
returned 0.0 when empty).  The copies are kept below, verbatim in
their arithmetic, as the oracle the shared rule must match bit for bit.
"""

import math

import numpy as np
import pytest

from repro.network.batched import _percentile
from repro.obs import evaluate_outcomes, latency_percentiles, nearest_rank
from repro.obs.slo import SLOConfig

QUANTILES = (0.5, 0.9, 0.95, 0.99, 0.999)


def engine_copy(values, q_percent):
    if values.size == 0:
        return float("nan")
    s = np.sort(values)
    idx = max(0, int(np.ceil(q_percent / 100.0 * s.size)) - 1)
    return float(s[idx])


def summary_copy(samples, q):
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0
    return ordered[min(n - 1, max(0, math.ceil(q * n) - 1))]


def slo_copy(oks, q):
    if not oks:
        return 0.0
    oks = sorted(oks)
    return oks[min(len(oks) - 1, max(0, math.ceil(q * len(oks)) - 1))]


def _samples(n):
    # Distinct values in shuffled order: equal values mean equal ranks.
    return np.random.default_rng(n).permutation(n).astype(np.float64) + 0.5


@pytest.mark.parametrize("q", QUANTILES)
def test_shared_rule_matches_the_three_copies(q):
    config = SLOConfig(latency_quantile=q, window=1000)
    for n in range(1, 1001):
        values = _samples(n)
        as_list = values.tolist()
        new = nearest_rank(sorted(as_list), q)
        assert new == summary_copy(as_list, q)
        assert new == slo_copy(as_list, q)
        assert _percentile(values, q) == new
        graded = evaluate_outcomes([(True, v) for v in as_list], config)
        assert graded["latency_quantile_us"] == new
        # The engine copy took a percent; its callers asked for 50, 95
        # and 99.  99.9 / 100 rounds above 0.999, so at 0.999 the
        # percent form reads one rank higher at n = 1000.
        if q != 0.999:
            assert engine_copy(values, q * 100) == new


def test_empty_samples_keep_each_callers_value():
    assert math.isnan(_percentile(np.array([], dtype=np.int64), 0.5))
    assert latency_percentiles([])["p99"] == 0.0
    graded = evaluate_outcomes([(False, 5.0)], SLOConfig(window=4))
    assert graded["latency_quantile_us"] == 0.0
