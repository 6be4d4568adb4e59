"""Throughput, coverage, and energy metrics over Monte-Carlo realizations."""

from __future__ import annotations

import math

import numpy as np

from .channel import MCS_TABLE, from_db

SINR_COVERAGE_THRESHOLD_DB = float(MCS_TABLE.thresholds_db[0])


# The metrics of one realization (see ``bss.realization_stats``), in the order
# of their last axis; probabilities are in [0, 1].
STAT_FIELDS = ("t_alpha_bps", "sinr_coverage", "rate_coverage",
               "energy_saving_pct", "theta_mean", "n_users", "n_outage")


def alpha_fair_throughputs(rates: np.ndarray, counts, alpha: float) -> np.ndarray:
    """Alpha-fair throughput of consecutive positive rate sets.

    ``rates`` concatenates the sets and ``counts`` gives their sizes (each at
    least 1).  Each set is summed over its own slice, so its pairwise
    summation, and hence every bit of the result, matches a lone set.
    """
    x = np.log(rates) if alpha == 1.0 else rates ** (1.0 - alpha)
    counts = np.asarray(counts)
    ends = np.cumsum(counts).tolist()
    means = np.array([np.add.reduce(x[e - c:e]) for c, e in zip(counts.tolist(), ends)])
    means /= counts
    if alpha == 1.0:
        return np.exp(means)
    # numpy scalars take the libm power; an array power may use a SIMD kernel
    # whose last bit differs.
    e = 1.0 / (1.0 - alpha)
    return np.array([m ** e for m in means])


def _fraction(hits: np.ndarray):
    """Share of True along the last axis (0 for an empty set); a float for
    one set of users."""
    n = hits.shape[-1]
    share = np.count_nonzero(hits, axis=-1) / n if n else np.zeros(hits.shape[:-1])
    return float(share) if hits.ndim == 1 else share


def sinr_coverage(gamma_lin):
    """Fraction of users whose best (or joint, for CoMP) SINR clears the MCS floor.

    Users run along the last axis; leading axes are separate user sets.
    """
    floor = from_db(SINR_COVERAGE_THRESHOLD_DB)
    return _fraction(np.asarray(gamma_lin, dtype=float) >= floor)


def rate_coverage(lams, rate_threshold_bps):
    """Fraction of users whose scheduled rate reaches the operator threshold.

    Users run along the last axis; thresholds broadcast against the rates.
    """
    if np.any(np.asarray(rate_threshold_bps) < 0):
        raise ValueError("rate threshold must be >= 0")
    return _fraction(np.asarray(lams, dtype=float) >= rate_threshold_bps)


def _summary_rows(values: np.ndarray):
    """Mean, sample stddev and 95% CI half-width of each row of a C-contiguous
    (M, n) array; a row reduction sums exactly as the 1-D reduction does."""
    n = values.shape[1]
    mean = values.mean(axis=1)
    if n < 2:
        zero = np.zeros_like(mean)
        return mean, zero, zero
    std = values.std(axis=1, ddof=1)
    return mean, std, 1.96 * std / math.sqrt(n)


def aggregate(values: np.ndarray) -> np.ndarray:
    """Aggregate every metric of a realization batch in one reduction.

    ``values`` is an array (..., 7, n) of ``realization_stats`` values in
    STAT_FIELDS order with the n realizations last; its leading axes are
    sweep points that are summarised at once.  Returns the (3, ..., 7)
    array of the mean, the sample stddev and the 95% CI half-width.
    """
    n = values.shape[-1]
    if n == 0:
        raise ValueError("at least one realization required")
    rows = _summary_rows(np.ascontiguousarray(values.reshape(-1, n)))
    return np.stack(rows).reshape((3,) + values.shape[:-1])
