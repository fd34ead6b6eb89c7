from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import pytest

from siotsim.report import (Z_95, MetricSeries, _aggregate, emit_csv, emit_plot_data,
                            irn_by_hop, mean_hops_comparison, mean_irn_pct,
                            plot_data_text)


@dataclass(frozen=True)
class Run:
    """Minimal stand-in for a source run in aggregation tests."""

    mode: str = "friendships"
    kinds: str = ""
    sweep_var: str = "none"
    sweep_value: str = ""
    replicate: int = 0
    source: str = "s"
    reached: frozenset = frozenset()
    hops: dict = field(default_factory=dict)
    denominator: int = 1

    @property
    def irn_pct(self) -> float:
        if self.denominator == 0:
            return 0.0
        return 100.0 * len(self.reached) / self.denominator


def reach(nodes_with_hops, denominator, **kw) -> Run:
    return Run(reached=frozenset(nodes_with_hops), hops=dict(nodes_with_hops),
               denominator=denominator, **kw)


def test_single_run_fraction():
    series = mean_irn_pct([reach({"a": 1, "b": 2}, 4)])
    assert len(series) == 1
    assert series[0].y == (50.0,)
    assert series[0].ci_halfwidth == (None,)  # one replicate: absent, not zero


def test_full_reach_has_zero_ci_across_replicates():
    runs = [reach({"a": 1}, 1, replicate=r) for r in range(3)]
    series = mean_irn_pct(runs)
    assert series[0].y == (100.0,)
    assert series[0].ci_halfwidth == (0.0,)


def test_two_replicates_average():
    runs = [reach({"a": 1, "b": 1}, 5, replicate=0),  # 40%
            reach({"a": 1, "b": 1, "c": 2}, 5, replicate=1)]  # 60%
    series = mean_irn_pct(runs)
    assert series[0].y == (50.0,)
    ci = series[0].ci_halfwidth[0]
    assert ci is not None and ci > 0


def test_sources_average_within_replicate_first():
    # replicate 0: sources at 0% and 100% -> 50; replicate 1: 50 -> mean 50
    runs = [reach({}, 2, source="a", replicate=0),
            reach({"x": 1, "y": 1}, 2, source="b", replicate=0),
            reach({"x": 1}, 2, source="a", replicate=1)]
    series = mean_irn_pct(runs)
    assert series[0].y == (50.0,)
    lopsided = runs + [reach({"x": 1, "y": 1}, 2, source="b", replicate=1)]
    assert mean_irn_pct(lopsided)[0].y == (62.5,)
    unbalanced = runs[:2] + [reach({}, 2, source="a", replicate=1)]
    assert mean_irn_pct(unbalanced)[0].y == (25.0,)       # 50, 0 -> 25


def test_aggregation_permutation_invariant():
    rnd = random.Random(3)
    runs = [reach({f"n{i}": 1 for i in range(rnd.randrange(4))}, 5,
                  source=f"s{rnd.randrange(3)}", replicate=rnd.randrange(3),
                  sweep_value=str(rnd.choice([0.1, 0.5])))
            for _ in range(30)]
    shuffled = list(runs)
    rnd.shuffle(shuffled)
    assert mean_irn_pct(runs) == mean_irn_pct(shuffled)


def _random_floats(rnd: random.Random, n: int) -> list[float]:
    scale = 10.0 ** rnd.randint(-6, 6)
    return [rnd.uniform(0.0, 100.0) if rnd.random() < 0.5 else rnd.expovariate(1.0) * scale
            for _ in range(n)]


def test_aggregate_matches_numpy_bitwise():
    # 1-300 items run all three branches of the pairwise sum: under 8,
    # up to 128 and split in halves
    np = pytest.importorskip("numpy")
    rnd = random.Random(8128)
    for _ in range(100):
        by_rep = {r: _random_floats(rnd, rnd.randint(1, 300))
                  for r in range(rnd.choice((1, 2, 7, 8, 9, 129, 300)))}
        y, ci = _aggregate(by_rep)
        means = [float(np.mean(by_rep[r])) for r in sorted(by_rep)]
        assert y == float(np.mean(means))
        if len(means) < 2:
            assert ci is None
        else:
            assert ci == Z_95 * float(np.std(means, ddof=1)) / math.sqrt(len(means))

    # the per-source pairs (1-12 replicates) and their means (1-150 sources)
    for _ in range(20):
        with_runs, without_runs = [], []
        for s in range(rnd.randint(1, 150)):
            for r in range(rnd.randint(1, 12)):
                nodes = [f"n{k}" for k in range(rnd.randint(1, 20))]
                with_runs.append(reach({n: rnd.randint(1, 6) for n in nodes}, 20,
                                       source=f"s{s:03d}", replicate=r))
                without_runs.append(reach({n: rnd.randint(1, 9) for n in nodes}, 20,
                                          source=f"s{s:03d}", replicate=r))
        cmpres = mean_hops_comparison(with_runs, without_runs)
        expected = []
        for run_w, run_o in zip(with_runs, without_runs):
            w = sum(run_w.hops.values()) / len(run_w.hops)
            o = sum(run_o.hops.values()) / len(run_o.hops)
            if expected and expected[-1][0] == run_w.source:
                expected[-1][1].append(w)
                expected[-1][2].append(o)
            else:
                expected.append((run_w.source, [w], [o]))
        pairs = tuple((s, float(np.mean(ws)), float(np.mean(os_))) for s, ws, os_ in expected)
        assert cmpres.pairs == pairs
        assert cmpres.ratio == (float(np.mean([p[1] for p in pairs]))
                                / float(np.mean([p[2] for p in pairs])))


def test_groups_split_by_series_keys():
    runs = [reach({"a": 1}, 2, mode="friendships", sweep_value="0.1"),
            reach({"a": 1, "b": 1}, 2, mode="enhanced", kinds="POR",
                  sweep_value="0.1")]
    series = {s.label: s for s in mean_irn_pct(runs)}
    assert set(series) == {"friendships|-", "enhanced|POR"}
    assert series["enhanced|POR"].y == (100.0,)


def test_irn_at_hop_zero_is_zero():
    # nothing is reached within zero hops, so the curve starts at hop 1
    series = irn_by_hop([reach({"a": 1, "b": 3}, 4)])[0]
    assert series.x == (1, 2, 3)
    assert series.y == (25.0, 25.0, 50.0)


def test_irn_by_hop_flat_when_everything_at_hop_one():
    runs = [reach({"a": 1, "b": 1}, 2)]
    series = irn_by_hop(runs)
    assert series[0].x == (1,)
    assert series[0].y == (100.0,)
    # a curve that another group extends runs flat to the last hop
    runs.append(reach({"a": 1, "b": 3}, 2, mode="enhanced"))
    by_label = {s.label: s for s in irn_by_hop(runs)}
    assert by_label["friendships|-|-"].y == (100.0, 100.0, 100.0)
    assert by_label["enhanced|-|-"].y == (50.0, 50.0, 100.0)


def test_irn_by_hop_runs_to_the_largest_hop_reached():
    assert irn_by_hop([reach({}, 3)])[0].x == (1,)
    runs = [reach({"a": 2}, 4), reach({"a": 1, "b": 9}, 4, replicate=1)]
    series = irn_by_hop(runs)[0]
    assert series.x == tuple(range(1, 10))
    assert series.y[-1] == mean_irn_pct(runs)[0].y[0]


def test_irn_by_hop_increases_along_chain():
    runs = [reach({"a": 1, "b": 2, "c": 3, "d": 4}, 4)]
    series = irn_by_hop(runs)
    assert series[0].y == (25.0, 50.0, 75.0, 100.0)
    assert all(series[0].y[i] <= series[0].y[i + 1]
               for i in range(len(series[0].y) - 1))


def test_irn_by_hop_monotone_on_random_runs():
    rnd = random.Random(8)
    runs = [reach({f"n{i}": rnd.randrange(1, 6) for i in range(rnd.randrange(6))},
                  rnd.randrange(0, 9), replicate=rnd.randrange(3),
                  mode=rnd.choice(["friendships", "enhanced"]))
            for _ in range(40)]
    series_list = irn_by_hop(runs)
    assert {s.label for s in series_list} == {"friendships|-|-", "enhanced|-|-"}
    for series in series_list:
        assert all(series.y[i] <= series.y[i + 1]
                   for i in range(len(series.y) - 1))
        # brute force: count each run's nodes within the hop, then average
        # sources within a replicate and replicates
        group = [r for r in runs if series.label == f"{r.mode}|-|-"]
        for hop, y in zip(series.x, series.y):
            by_rep: dict[int, list[float]] = {}
            for r in group:
                within = sum(1 for n in r.reached if r.hops[n] <= hop)
                pct = 100.0 * within / r.denominator if r.denominator else 0.0
                by_rep.setdefault(r.replicate, []).append(pct)
            means = [sum(v) / len(v) for v in by_rep.values()]
            assert y == pytest.approx(sum(means) / len(means))


def test_hop_comparison_identical_runs_give_ratio_one():
    runs = [reach({"a": 2, "b": 4}, 2, source="s")]
    cmpres = mean_hops_comparison(runs, runs)
    assert cmpres.ratio == 1.0
    assert cmpres.pairs == (("s", 3.0, 3.0),)


def test_hop_comparison_star_fixture():
    with_link = [reach({"a": 1, "b": 1, "c": 1}, 3, source="s")]
    without = [reach({"a": 2, "b": 3, "c": 4}, 3, source="s")]
    cmpres = mean_hops_comparison(with_link, without)
    assert cmpres.pairs[0][1] == 1.0
    assert cmpres.ratio == pytest.approx(1.0 / 3.0)


def test_hop_comparison_only_counts_common_nodes():
    with_link = [reach({"a": 1, "z": 1}, 3, source="s")]
    without = [reach({"a": 3, "q": 1}, 3, source="s")]
    cmpres = mean_hops_comparison(with_link, without)
    assert cmpres.pairs == (("s", 1.0, 3.0),)


def test_hop_comparison_skips_disjoint_pairs():
    with_link = [reach({"a": 1}, 3, source="s")]
    without = [reach({"b": 1}, 3, source="s")]
    cmpres = mean_hops_comparison(with_link, without)
    assert cmpres.pairs == ()
    assert cmpres.ratio is None


def test_series_validation():
    with pytest.raises(ValueError):
        MetricSeries("x", (1, 2), (1.0,), (None, None))
    with pytest.raises(ValueError):
        MetricSeries("x", (1,), (1.0,), (-0.5,))


def test_emit_csv_deterministic(tmp_path):
    series = [MetricSeries("a", (1, 2), (10.0, 20.123456789), (0.5, None)),
              MetricSeries("b", ("0.1",), (3.14159265,), (0.0,))]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    emit_csv(series, p1)
    emit_csv(series, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text(encoding="utf-8")
    assert "20.1235" in text           # six significant digits
    assert "a,2,20.1235,\n" in text    # absent ci is an empty field
    assert "\r" not in text


def test_emit_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text(encoding="utf-8") == "label,x,y,ci_halfwidth\n"


def test_plot_data_blocks():
    series = [MetricSeries("first", (1,), (1.0,), (0.1,)),
              MetricSeries("second", (1, 2), (3.0, 4.0), (None, None))]
    text = plot_data_text(series)
    blocks = text.strip().split("\n\n")
    assert blocks[0].splitlines() == ["# first", "1 1 0.1"]
    assert blocks[1].splitlines() == ["# second", "1 3", "2 4"]
    assert plot_data_text([]) == ""


def test_emit_plot_data_matches_text(tmp_path):
    series = [MetricSeries("s", (1,), (2.0,), (0.0,))]
    path = tmp_path / "s.dat"
    emit_plot_data(series, path)
    assert path.read_text(encoding="utf-8") == plot_data_text(series)
