"""Latency statistics shared by the launcher and the workers."""

from __future__ import annotations

import math

import numpy as np

#: Minimum number of samples beyond the reported tail percentile.
TAIL_SAMPLES = 10


def quantile(values: list[float], p: float) -> float:
    """Harrell–Davis estimate of the ``p``-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics
    (Harrell & Davis, Biometrika 1982) rather than one of them: the op
    mixes are multi-modal (distinct kernels), and a single order
    statistic at a gap between two kernels' latencies jumps from one
    kernel to the other from run to run.
    """
    x = np.sort(np.asarray(values, dtype=float))
    if x.size == 1:
        return float(x[0])
    a, b = (x.size + 1) * p, (x.size + 1) * (1 - p)
    t = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.linspace(0.0, 1.0, x.size + 1), np.concatenate(([0.0], t)), cdf)
    return float(np.diff(edges) @ x)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``; with ten samples or
    fewer there is no such percentile and the maximum is reported.
    """
    rank = len(latencies) - TAIL_SAMPLES
    if rank < 1:
        return max(latencies), 100.0, 0
    p = rank / len(latencies)
    return quantile(latencies, p), 100.0 * p, TAIL_SAMPLES


def median_ms(values: list[float]) -> float:
    return quantile(values, 0.5) * 1e3 if values else math.nan
