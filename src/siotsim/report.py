"""Aggregation of source runs into reported metric series and their
deterministic CSV / plot-data exports."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add
from pathlib import Path
from typing import Iterable, Sequence

from .trace import write_csv_rows

log = logging.getLogger(__name__)

Z_95 = 1.96


@dataclass(frozen=True)
class MetricSeries:
    label: str
    x: tuple
    y: tuple[float, ...]
    ci_halfwidth: tuple[float | None, ...]

    def __post_init__(self) -> None:
        if not (len(self.x) == len(self.y) == len(self.ci_halfwidth)):
            raise ValueError("series vectors must have equal length")
        if any(c is not None and c < 0 for c in self.ci_halfwidth):
            raise ValueError("ci_halfwidth must be >= 0")


IRN_SERIES_KEYS = ("mode", "kinds")
HOP_SERIES_KEYS = ("mode", "kinds", "sweep_value")


def _series_label(run, series_keys: Sequence[str]) -> str:
    parts = []
    for key in series_keys:
        value = getattr(run, key)
        parts.append(str(value) if value != "" else "-")
    return "|".join(parts)


def _pairwise_sum(xs: Sequence[float]) -> float:
    """The float sum of `xs` in numpy's pairwise order, so that means and
    deviations keep numpy's bits: under 8 items left to right; up to 128
    in 8 interleaved accumulators, combined in pairs, then the tail;
    above that, the two halves split at a multiple of 8."""
    n = len(xs)
    if n < 8:
        return reduce(add, xs, 0.0)
    if n <= 128:
        m = n - n % 8
        r = [reduce(add, xs[j:m:8]) for j in range(8)]
        return reduce(add, xs[m:],
                      ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


def _mean(xs: Sequence[float]) -> float:
    return _pairwise_sum(xs) / len(xs)


def _aggregate(values_by_replicate: dict[int, list[float]]) -> tuple[float, float | None]:
    """Average sources within each replicate, then replicates; the
    confidence half-width is 1.96 sample standard deviations of the
    replicate means over the square root of their number, and is absent
    (not zero) for a single replicate. Every sum is `_pairwise_sum`, so
    the values equal numpy's `mean` and `std(ddof=1)` bit for bit."""
    means = [_mean(vs) for _, vs in sorted(values_by_replicate.items())]
    y = _mean(means)
    if len(means) < 2:
        return y, None
    std = math.sqrt(_pairwise_sum([(m - y) * (m - y) for m in means]) / (len(means) - 1))
    return y, Z_95 * std / math.sqrt(len(means))


def mean_irn_pct(runs: Iterable) -> list[MetricSeries]:
    """Mean percentage of interested nodes reached, grouped into one series
    per `IRN_SERIES_KEYS` with one point per sweep value, in the order the
    values first appear. Sources are averaged within each replicate before
    replicates are averaged."""
    table: dict[str, dict] = {}  # label -> x -> replicate -> irn values
    for run in runs:
        series = table.setdefault(_series_label(run, IRN_SERIES_KEYS), {})
        by_rep = series.setdefault(run.sweep_value, {})
        by_rep.setdefault(run.replicate, []).append(run.irn_pct)
    out = []
    for label in sorted(table):
        points = [_aggregate(by_rep) for by_rep in table[label].values()]
        out.append(MetricSeries(label, tuple(table[label]), tuple(y for y, _ in points),
                                tuple(ci for _, ci in points)))
    return out


def _irn_pct_within(run, last_hop: int) -> list[float]:
    """Percentage of interested nodes reached within 1, 2, ..., `last_hop`
    hops, from one hop histogram of the run."""
    if run.denominator == 0:
        return [0.0] * last_hop
    counts = [0] * (last_hop + 1)
    for hop in run.hops.values():
        counts[hop] += 1
    return [100.0 * within / run.denominator for within in accumulate(counts)][1:]


def irn_by_hop(runs: Iterable) -> list[MetricSeries]:
    """Cumulative reach curves, one per `HOP_SERIES_KEYS`: one point per
    hop from 1 to the largest hop any run reached (at least 1), counting
    only nodes first reached within that many hops. Non-decreasing in the
    hop index by construction, and the last point of each curve is its
    group's mean IRN percentage."""
    groups: dict[str, list] = {}
    for run in runs:
        groups.setdefault(_series_label(run, HOP_SERIES_KEYS), []).append(run)
    last_hop = max((hop for group in groups.values() for run in group
                    for hop in run.hops.values()), default=1)
    out = []
    for label in sorted(groups):
        curves = [(run.replicate, _irn_pct_within(run, last_hop))
                  for run in groups[label]]
        xs, ys, cis = [], [], []
        for hop in range(1, last_hop + 1):
            by_rep: dict[int, list[float]] = {}
            for replicate, curve in curves:
                by_rep.setdefault(replicate, []).append(curve[hop - 1])
            y, ci = _aggregate(by_rep)
            xs.append(hop)
            ys.append(y)
            cis.append(ci)
        out.append(MetricSeries(label, tuple(xs), tuple(ys), tuple(cis)))
    return out


@dataclass(frozen=True)
class HopComparison:
    """Paired per-source mean hop counts over nodes reached in both
    conditions, plus the ratio of their with and without means."""

    pairs: tuple[tuple[str, float, float], ...]  # (source, with, without)
    ratio: float | None


def mean_hops_comparison(runs_with: Iterable, runs_without: Iterable) -> HopComparison:
    """Compare hop counts with and without co-interest links.

    Runs are matched on (source, replicate, sweep_value); for each match
    only nodes reached in both conditions contribute. Matches with no
    common reached node are skipped with a warning.
    """
    def index(runs):
        return {(r.source, r.replicate, r.sweep_value): r for r in runs}

    with_idx = index(runs_with)
    without_idx = index(runs_without)
    per_source: dict[str, list[tuple[float, float]]] = {}
    for key in sorted(with_idx.keys() & without_idx.keys()):
        rw, ro = with_idx[key], without_idx[key]
        common = rw.reached & ro.reached
        if not common:
            log.warning("mean_hops_comparison: no common reached nodes for %s", key)
            continue
        w = sum(rw.hops[n] for n in common) / len(common)
        o = sum(ro.hops[n] for n in common) / len(common)
        per_source.setdefault(key[0], []).append((w, o))
    pairs = []
    for source in sorted(per_source):
        ws, os_ = zip(*per_source[source])
        pairs.append((source, _mean(ws), _mean(os_)))
    if not pairs:
        return HopComparison((), None)
    total_with = _mean([p[1] for p in pairs])
    total_without = _mean([p[2] for p in pairs])
    ratio = total_with / total_without if total_without > 0 else None
    return HopComparison(tuple(pairs), ratio)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return f"{value:.6g}"


def emit_csv(series: Sequence[MetricSeries], path: str | Path) -> None:
    write_csv_rows(path, ["label", "x", "y", "ci_halfwidth"], (
        [s.label, _fmt(x), _fmt(y), "" if ci is None else _fmt(ci)]
        for s in series for x, y, ci in zip(s.x, s.y, s.ci_halfwidth)))


def plot_data_text(series: Sequence[MetricSeries]) -> str:
    """Whitespace-separated x/y/err blocks, one labeled block per series,
    consumable by generic plotting tools."""
    blocks = []
    for s in series:
        lines = [f"# {s.label}"]
        for x, y, ci in zip(s.x, s.y, s.ci_halfwidth):
            if ci is None:
                lines.append(f"{_fmt(x)} {_fmt(y)}")
            else:
                lines.append(f"{_fmt(x)} {_fmt(y)} {_fmt(ci)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def emit_plot_data(series: Sequence[MetricSeries], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(plot_data_text(series))
