"""Order statistics shared by the benchmark's report, A/B mode and tests."""

from __future__ import annotations

import statistics


def summarize(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile, and the sample count.

    Quartiles follow ``statistics.quantiles(values, n=4)`` (the exclusive
    method), the same rule the spread of a metric is judged by; with one
    sample every statistic is that sample.
    """
    if not values:
        raise ValueError("summarize() needs at least one value")
    if len(values) == 1:
        (only,) = values
        return {"median": only, "q1": only, "q3": only, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def claim_holds(change: list[float], parent: list[float], wins: int, pairs: int) -> bool:
    """The interleaved A/B claim rule for a lower-is-better metric.

    The change must win at least nine tenths of all pairs run (ties count
    for neither side), and the medians must differ by more than the
    spread of the parent's own runs, taken as the distance between its
    quartiles.
    """
    if pairs == 0 or wins * 10 < 9 * pairs:
        return False
    base = summarize(parent)
    return base["median"] - summarize(change)["median"] > base["q3"] - base["q1"]
