from __future__ import annotations

import importlib
import math
import random
from pathlib import Path

import pytest

from conftest import checkin, corpus_of, scatter_points
from oracles import oracle_colocations
from siotsim.geo import GeoPoint, haversine_m
from siotsim.trace import (TraceCorpus, compute_home_points, detect_colocations,
                           filter_active_users, parse_checkins,
                           parse_friendships, read_colocations_csv,
                           write_colocations_csv)

GOOD_LINE = "u1\t2010-10-17T01:48:53Z\t39.7\t-104.9\tp1\n"


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    corpus = parse_checkins(path)
    assert corpus.users == frozenset()
    assert corpus.checkins == ()
    assert corpus.malformed_lines == 0


def test_parse_single_record(tmp_path):
    path = tmp_path / "one.tsv"
    path.write_text(GOOD_LINE, encoding="utf-8")
    corpus = parse_checkins(path)
    assert corpus.users == {"u1"}
    assert len(corpus.checkins) == 1
    c = corpus.checkins[0]
    assert c.place_id == "p1"
    assert (c.location.lat, c.location.lon) == (39.7, -104.9)
    # 2010-10-17T01:48:53Z
    assert c.timestamp == 1287280133.0


def test_parse_missing_column_counts_as_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("u1\t2010-10-17T01:48:53Z\t39.7\t-104.9\n", encoding="utf-8")
    corpus = parse_checkins(path)
    assert corpus.checkins == ()
    assert corpus.malformed_lines == 1


def test_parse_malformed_minority_is_skipped(tmp_path):
    path = tmp_path / "mixed.tsv"
    path.write_text(GOOD_LINE + GOOD_LINE.replace("u1", "u2")
                    + "u3\tnot-a-time\t1\t2\tp9\n", encoding="utf-8")
    corpus = parse_checkins(path)
    assert corpus.users == {"u1", "u2"}
    assert corpus.malformed_lines == 1


def test_parse_majority_malformed_is_fatal(tmp_path):
    path = tmp_path / "corrupt.tsv"
    path.write_text(GOOD_LINE + "x\n" + "y\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_checkins(path)


def test_parse_unreadable_file_is_fatal(tmp_path):
    with pytest.raises(OSError):
        parse_checkins(tmp_path / "missing.tsv")


def test_parse_unknown_format_rejected(tmp_path):
    path = tmp_path / "one.tsv"
    path.write_text(GOOD_LINE, encoding="utf-8")
    with pytest.raises(ValueError):
        parse_checkins(path, fmt="gowalla")


def test_checkins_sorted_by_user_then_time(tmp_path):
    lines = [
        "b\t2010-01-02T00:00:00Z\t1\t1\tp1",
        "a\t2010-01-03T00:00:00Z\t1\t1\tp2",
        "a\t2010-01-01T00:00:00Z\t1\t1\tp3",
    ]
    path = tmp_path / "t.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = parse_checkins(path)
    keys = [(c.user_id, c.timestamp) for c in corpus.checkins]
    assert keys == sorted(keys)


def test_parse_keeps_one_string_per_user_and_place_id(tmp_path):
    """Every check-in of a user holds the same `user_id` object, and every
    check-in at a place the same `place_id` object, whatever the order of
    the lines."""
    rnd = random.Random(3)
    lines = [f"user_{rnd.randrange(4)}\t2010-01-0{day}T0{hour}:00:00Z\t1\t1\t"
             f"venue_{rnd.randrange(5)}" for day in range(1, 8) for hour in range(10)]
    path = tmp_path / "t.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    checkins = parse_checkins(path).checkins
    for field in ("user_id", "place_id"):
        objects: dict[str, set[int]] = {}
        for c in checkins:
            value = getattr(c, field)
            objects.setdefault(value, set()).add(id(value))
        assert len(objects) > 1
        assert all(len(ids) == 1 for ids in objects.values()), field


def test_parse_friendships_drops_bad_pairs(tmp_path):
    cpath = tmp_path / "c.tsv"
    cpath.write_text(GOOD_LINE + GOOD_LINE.replace("u1", "u2"), encoding="utf-8")
    corpus = parse_checkins(cpath)
    fpath = tmp_path / "f.tsv"
    fpath.write_text("u1\tu2\nu2\tu1\nu1\tu1\nu1\tunknown\n", encoding="utf-8")
    corpus = parse_friendships(fpath, corpus)
    assert corpus.friendships == {("u1", "u2")}


def _user_block(user, n_checkins, n_places, t0=0.0):
    return [checkin(user, t0 + 3600.0 * i, 1.0, 1.0, place=f"{user}-pl{i % n_places}")
            for i in range(n_checkins)]


def test_filter_boundaries():
    below = corpus_of(_user_block("u9", 9, 9))
    assert filter_active_users(below).users == frozenset()
    at = corpus_of(_user_block("u10", 10, 10))
    assert filter_active_users(at).users == {"u10"}


def test_filter_noop_thresholds():
    corpus = corpus_of(_user_block("a", 3, 1) + _user_block("b", 1, 1))
    assert filter_active_users(corpus, 1, 1) == corpus


def test_filter_is_idempotent_and_restricts_friendships():
    checkins = _user_block("a", 12, 12) + _user_block("b", 12, 12) + _user_block("c", 2, 2)
    corpus = corpus_of(checkins, [("a", "b"), ("b", "c")])
    once = filter_active_users(corpus)
    twice = filter_active_users(once)
    assert once == twice
    assert once.users == {"a", "b"}
    assert once.friendships == {("a", "b")}


def test_filter_rejects_zero_thresholds():
    with pytest.raises(ValueError):
        filter_active_users(corpus_of([]), 0, 1)


# --- co-locations ------------------------------------------------------------

def test_pair_inside_both_bounds():
    corpus = corpus_of([checkin("a", 0.0, 0.0, 0.0),
                        checkin("b", 600.0, 0.0, 0.0009)])  # ~100 m
    out = detect_colocations(corpus)
    assert len(out) == 1
    c = out[0]
    assert (c.user_a, c.user_b) == ("a", "b")
    assert c.dt_s == 600.0
    assert c.time == 300.0
    assert c.distance_m == pytest.approx(100.0, abs=1.0)


def test_pair_beyond_radius_excluded():
    # just over 250 m apart at the same instant
    lon = math.degrees(251.0 / 6371000.0)
    corpus = corpus_of([checkin("a", 0.0, 0.0, 0.0), checkin("b", 0.0, 0.0, lon)])
    assert detect_colocations(corpus) == []


def test_same_user_never_colocates():
    corpus = corpus_of([checkin("a", 0.0, 0.0, 0.0), checkin("a", 0.0, 0.0, 0.0)])
    assert detect_colocations(corpus) == []


def test_time_bound_inclusive_at_exactly_1800_s():
    base = [checkin("a", 0.0, 0.0, 0.0)]
    assert len(detect_colocations(corpus_of(base + [checkin("b", 1800.0, 0.0, 0.0)]))) == 1
    assert detect_colocations(corpus_of(base + [checkin("b", 1801.0, 0.0, 0.0)])) == []


def test_distance_bound_inclusive_at_boundary():
    # exactly 250.0 is not attainable as a haversine output here, so pin the
    # inclusive comparison by using the computed distance itself as radius
    lon = math.degrees(250.0 / 6371000.0)
    a, b = checkin("a", 0.0, 0.0, 0.0), checkin("b", 0.0, 0.0, lon)
    d = haversine_m(a.location, b.location)
    assert abs(d - 250.0) < 1e-6
    corpus = corpus_of([a, b])
    assert len(detect_colocations(corpus, radius_m=d)) == 1
    assert detect_colocations(corpus, radius_m=math.nextafter(d, 0.0)) == []


def test_colocation_symmetric_under_role_swap():
    x = checkin("b", 0.0, 10.0, 10.0)
    y = checkin("a", 100.0, 10.0, 10.001)
    first = detect_colocations(corpus_of([x, y]))
    second = detect_colocations(corpus_of([y, x]))
    assert first == second
    assert first[0].user_a == "a"


def _random_corpus(rnd: random.Random, n: int) -> TraceCorpus:
    checkins = []
    for i in range(n):
        user = f"u{rnd.randrange(max(2, n // 10))}"
        lat = 10.0 + rnd.choice([0.0, 0.001, 0.002, 0.5]) + rnd.uniform(0, 0.0005)
        lon = 20.0 + rnd.choice([0.0, 0.001, 0.003]) + rnd.uniform(0, 0.0005)
        ts = rnd.uniform(0, 20000)
        checkins.append(checkin(user, ts, lat, lon, place=f"p{i}"))
    return corpus_of(checkins)


def test_detect_matches_all_pairs_oracle_on_random_corpora():
    rnd = random.Random(7101)
    for n in (10, 60, 200):
        corpus = _random_corpus(rnd, n)
        assert detect_colocations(corpus) == oracle_colocations(corpus, 250.0, 1800.0)


def _edge_corpus(rnd: random.Random, n: int, radius_m: float,
                 window_s: float) -> TraceCorpus:
    """Check-ins at `scatter_points` places and times over a few windows;
    some repeat an earlier check-in's time exactly, others come exactly
    `window_s` after it."""
    checkins = []
    for i, p in enumerate(scatter_points(rnd, n, radius_m)):
        pick = rnd.random()
        if checkins and pick < 0.3:
            earlier = rnd.choice(checkins).timestamp
            ts = earlier if pick < 0.1 else earlier + window_s
        else:
            ts = rnd.uniform(0.0, 3.0 * window_s)
        checkins.append(checkin(f"u{rnd.randrange(max(2, n // 8))}", ts,
                                p.lat, p.lon, place=f"p{i}"))
    return corpus_of(checkins)


@pytest.mark.parametrize("radius_m, window_s", [
    (250.0, 1800.0), (10.0, 60.0), (5000.0, 7200.0), (1.0, 1.0), (900_000.0, 600.0)])
def test_detect_matches_all_pairs_oracle_at_the_edges_of_the_map(radius_m, window_s):
    rnd = random.Random(f"{radius_m}/{window_s}")
    for n in (20, 150, 300):
        corpus = _edge_corpus(rnd, n, radius_m, window_s)
        expected = oracle_colocations(corpus, radius_m, window_s)
        assert expected
        assert detect_colocations(corpus, radius_m, window_s) == expected


def test_time_bound_inclusive_at_exactly_window_s_across_the_antimeridian():
    a = checkin("a", 1000.0, 12.0, 179.9999)
    b = checkin("b", 1060.0, 12.0, -179.9999)
    assert len(detect_colocations(corpus_of([a, b]), 30.0, 60.0)) == 1
    assert detect_colocations(corpus_of([a, b]), 30.0, math.nextafter(60.0, 0.0)) == []


def test_detect_matches_the_oracle_on_a_generated_trace(tmp_path, monkeypatch):
    # bench/gen_trace.py puts many same-slot check-ins at shared haunts
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    gen_trace = importlib.import_module("gen_trace")
    gen_trace.generate(gen_trace.TraceSpec(users=30, pois=20, days=3), 0, tmp_path)
    corpus = filter_active_users(parse_checkins(tmp_path / gen_trace.CHECKINS_FILE))
    found = detect_colocations(corpus)
    assert len(found) > 100
    assert found == oracle_colocations(corpus, 250.0, 1800.0)


def test_detect_invariant_under_permutation():
    rnd = random.Random(99)
    corpus = _random_corpus(rnd, 80)
    shuffled = list(corpus.checkins)
    rnd.shuffle(shuffled)
    assert detect_colocations(corpus_of(shuffled)) == detect_colocations(corpus)


# --- home points -------------------------------------------------------------

def test_home_point_single_location():
    corpus = corpus_of([checkin("a", float(i), 10.0, 10.0) for i in range(3)])
    homes = compute_home_points(corpus)
    assert homes["a"] == GeoPoint(10.0, 10.0)


def test_home_point_prefers_densest_cell():
    cell_a = [checkin("a", float(i), 10.01 + i * 0.001, 10.0) for i in range(3)]
    cell_b = [checkin("a", 100.0, 50.0, 50.0)]
    homes = compute_home_points(corpus_of(cell_a + cell_b))
    assert homes["a"].lat == pytest.approx((10.01 + 10.011 + 10.012) / 3)
    assert homes["a"].lon == pytest.approx(10.0)


def test_home_point_tie_breaks_on_earliest_checkin():
    early = [checkin("a", 5.0, 50.0, 50.0), checkin("a", 50.0, 50.0, 50.0)]
    late = [checkin("a", 10.0, 10.0, 10.0), checkin("a", 11.0, 10.0, 10.0)]
    homes = compute_home_points(corpus_of(early + late))
    assert homes["a"] == GeoPoint(50.0, 50.0)


# --- artifact round-trips ------------------------------------------------------

def test_colocation_csv_roundtrip(tmp_path):
    corpus = _random_corpus(random.Random(5), 40)
    colocs = detect_colocations(corpus)
    assert colocs
    path = tmp_path / "colocs.csv"
    write_colocations_csv(colocs, path)
    assert list(read_colocations_csv(path)) == colocs
