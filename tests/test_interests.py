from __future__ import annotations

import importlib
import math
import random
import re
from pathlib import Path

import pytest

from conftest import checkin, corpus_of, profile, scatter_points
from oracles import oracle_nearest_poi
from siotsim.geo import GeoPoint, haversine_m
from siotsim.interests import (InterestDescriptor, PoI, PoiCatalog,
                               assign_colocation_interests, build_profiles,
                               cosine_similarity, default_macro_categories,
                               keyword_index,
                               load_macro_categories, load_poi_catalog,
                               read_profiles_csv, write_profiles_csv)
from siotsim.trace import detect_colocations, filter_active_users, parse_checkins

SWEET_FOOD = {"Pastelaria", "Ice Cream", "Yogurt", "Donut", "Dessert"}
ITALIAN_FOOD = {"Meatball", "Wine", "Pizza", "Ice Cream"}
CAFE_BAR = {"Bistro", "Breakfast", "Cafe", "Tea Room", "Donut", "Dive Bar",
            "Cupcake", "Coffee", "Bar"}


def test_default_macro_categories_ship_the_known_sets():
    macros = default_macro_categories()
    assert macros[3].keywords == frozenset(SWEET_FOOD)
    assert macros[4].keywords == frozenset(ITALIAN_FOOD)
    assert macros[6].keywords == frozenset(CAFE_BAR)


def test_keywords_may_belong_to_several_categories():
    index = keyword_index(default_macro_categories())
    assert index["Donut"] == {3, 6}
    assert index["Ice Cream"] == {3, 4}


def test_load_macro_categories_rejects_conflicting_redefinition(tmp_path):
    path = tmp_path / "macros.csv"
    path.write_text("macro_id,name,keyword\n1,Alpha,x\n1,Beta,y\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_macro_categories(path)


def test_load_poi_catalog_rejects_invalid_rows(tmp_path):
    path = tmp_path / "poi.csv"
    path.write_text("poi_id,lat,lon,keyword\np1,10,10,Donut\np2,999,10,Donut\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: bad PoI row"):
        load_poi_catalog(path)


def test_empty_poi_catalog_assigns_nothing(tmp_path):
    path = tmp_path / "poi.csv"
    path.write_text("poi_id,lat,lon,keyword\n", encoding="utf-8")
    catalog = load_poi_catalog(path)
    colocs = detect_colocations(corpus_of(
        [checkin("a", 0.0, 10.0, 10.0), checkin("b", 0.0, 10.0, 10.0)]))
    assert assign_colocation_interests(colocs, catalog, default_macro_categories()) == []


def _coloc_at(lat, lon):
    colocs = detect_colocations(corpus_of(
        [checkin("a", 0.0, lat, lon), checkin("b", 0.0, lat, lon)]))
    assert len(colocs) == 1
    return colocs


def test_donut_poi_credits_both_containing_categories():
    colocs = _coloc_at(10.0, 10.0)
    catalog = PoiCatalog([PoI("p1", GeoPoint(10.0, 10.0001), "Donut")])  # ~10 m
    out = assign_colocation_interests(colocs, catalog, default_macro_categories())
    assert len(out) == 1
    assert out[0].macro_ids == {3, 6}
    assert out[0].poi_id == "p1"
    assert out[0].match_distance_m <= 250.0


def test_poi_out_of_range_yields_no_assignment():
    colocs = _coloc_at(10.0, 10.0)
    catalog = PoiCatalog([PoI("p1", GeoPoint(10.0, 10.0027), "Donut")])  # ~300 m
    assert assign_colocation_interests(colocs, catalog,
                                       default_macro_categories(),
                                       poi_radius_m=250.0) == []


def test_equidistant_pois_tie_break_on_smaller_id():
    colocs = _coloc_at(0.0, 10.0)
    # mirrored in longitude around the co-location: bitwise-equal distances
    catalog = PoiCatalog([PoI("p2", GeoPoint(0.0, 10.0005), "Pizza"),
                          PoI("p1", GeoPoint(0.0, 9.9995), "Donut")])
    out = assign_colocation_interests(colocs, catalog, default_macro_categories())
    assert out[0].poi_id == "p1"


def _matches_oracle(catalog, queries, radius_m) -> int:
    """Check every query against the all-pairs oracle; return the hits."""
    hits = 0
    for q in queries:
        expected = oracle_nearest_poi(catalog.pois, q, radius_m)
        got = catalog.nearest_in_range(q, radius_m)
        assert (None if got is None else (got[1], got[0].poi_id)) == expected, q
        hits += expected is not None
    return hits


@pytest.mark.parametrize("radius_m", [0.0, 10.0, 250.0, 5000.0])
def test_nearest_in_range_matches_the_oracle(radius_m):
    # PoIs at the antimeridian, at and beside both poles, repeated exactly
    # (ties go to the smaller poi_id) or one radius apart; ids are dealt
    # out of order so that catalog order is not insertion order
    rnd = random.Random(f"poi/{radius_m}")
    points = scatter_points(rnd, 300, radius_m)
    ids = [f"p{i:03d}" for i in range(200)]
    rnd.shuffle(ids)
    catalog = PoiCatalog(PoI(pid, loc, "Donut") for pid, loc in zip(ids, points))
    hits = _matches_oracle(catalog, points, radius_m)
    assert len(points) // 2 < hits < len(points)


def test_nearest_in_range_is_inclusive_at_exactly_the_distance():
    # across the antimeridian, beside a pole and on mid-latitude ground
    for a, b in (((12.0, 179.9999), (12.0, -179.9998)), ((89.999, 10.0), (89.999, -170.0)),
                 ((38.7, -9.14), (38.7012, -9.1391))):
        point, poi = GeoPoint(*a), PoI("p1", GeoPoint(*b), "Donut")
        catalog = PoiCatalog([poi, PoI("p0", GeoPoint(-a[0], 0.0), "Donut")])
        d = haversine_m(point, poi.location)
        assert catalog.nearest_in_range(point, d) == (poi, d)
        assert catalog.nearest_in_range(point, math.nextafter(d, 0.0)) is None
        assert catalog.nearest_in_range(point, 2.0 * d) == (poi, d)


def test_nearest_in_range_matches_the_oracle_on_a_generated_trace(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    gen_trace = importlib.import_module("gen_trace")
    gen_trace.generate(gen_trace.TraceSpec(users=30, pois=20, days=3), 0, tmp_path)
    corpus = filter_active_users(parse_checkins(tmp_path / gen_trace.CHECKINS_FILE))
    colocs = detect_colocations(corpus)
    catalog = load_poi_catalog(tmp_path / gen_trace.POI_FILE)
    assert _matches_oracle(catalog, [c.location for c in colocs], 250.0) > 100


def test_unmatched_keyword_yields_no_assignment():
    colocs = _coloc_at(10.0, 10.0)
    catalog = PoiCatalog([PoI("p1", GeoPoint(10.0, 10.0001), "Spaceport")])
    assert assign_colocation_interests(colocs, catalog, default_macro_categories()) == []


def _repeat_colocs(n, lat=10.0, lon=10.0):
    checkins = []
    for i in range(n):
        t = 10000.0 * i
        checkins += [checkin("a", t, lat, lon, place=f"pa{i}"),
                     checkin("b", t, lat, lon, place=f"pb{i}")]
    return detect_colocations(corpus_of(checkins))


def test_profile_threshold_boundary():
    catalog = PoiCatalog([PoI("p1", GeoPoint(10.0, 10.0001), "Yogurt")])
    macros = default_macro_categories()

    colocs = _repeat_colocs(10)
    held = build_profiles(assign_colocation_interests(colocs, catalog, macros),
                          colocs, interest_threshold=10)
    assert 3 in held["a"].held and 3 in held["b"].held

    colocs = _repeat_colocs(9)
    not_held = build_profiles(assign_colocation_interests(colocs, catalog, macros),
                              colocs, interest_threshold=10)
    assert 3 not in not_held["a"].held
    assert not_held["a"].weights[3] == 9


def test_profile_threshold_one_holds_on_single_meeting():
    catalog = PoiCatalog([PoI("p1", GeoPoint(10.0, 10.0001), "Yogurt")])
    colocs = _repeat_colocs(1)
    profiles = build_profiles(
        assign_colocation_interests(colocs, catalog, default_macro_categories()),
        colocs, interest_threshold=1)
    assert 3 in profiles["a"].held


def test_raising_threshold_never_adds_categories():
    rnd = random.Random(4242)
    catalog = PoiCatalog([PoI("p1", GeoPoint(10.0, 10.0001), "Donut"),
                          PoI("p2", GeoPoint(10.002, 10.0), "Pizza")])
    macros = default_macro_categories()
    checkins = []
    for i in range(120):
        lat = rnd.choice([10.0, 10.002])
        t = 5000.0 * i
        u, v = rnd.sample(["a", "b", "c", "d"], 2)
        checkins += [checkin(u, t, lat, 10.0, place=f"x{i}"),
                     checkin(v, t, lat, 10.0, place=f"y{i}")]
    colocs = detect_colocations(corpus_of(checkins))
    assignments = assign_colocation_interests(colocs, catalog, macros)
    for a in assignments:
        assert a.match_distance_m <= 250.0
    previous = None
    for threshold in (1, 3, 7, 15, 40):
        profiles = build_profiles(assignments, colocs, threshold)
        held = {u: p.held for u, p in profiles.items()}
        if previous is not None:
            for u in held:
                assert held[u] <= previous[u]
        previous = held


def test_cosine_identity_disjoint_and_two_thirds():
    a = profile("a", {3, 4, 6})
    assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-12)
    assert cosine_similarity(profile("a", {3}), profile("b", {6})) == 0.0
    sim = cosine_similarity(a, profile("b", {4, 6, 7}))
    assert sim == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_cosine_handles_empty_profiles():
    empty = InterestDescriptor.empty()
    assert cosine_similarity(empty, empty) == 0.0
    assert cosine_similarity(empty, profile("b", {1})) == 0.0


def test_cosine_exactly_half_is_exact():
    sim = cosine_similarity(profile("a", {1, 2}), profile("b", {2, 3}))
    assert sim == 0.5


def test_cosine_symmetric_and_bounded_on_random_profiles():
    rnd = random.Random(88)
    for _ in range(200):
        a = profile("a", {rnd.randrange(10) for _ in range(rnd.randrange(6))})
        b = profile("b", {rnd.randrange(10) for _ in range(rnd.randrange(6))})
        sab = cosine_similarity(a, b)
        assert sab == cosine_similarity(b, a)
        assert 0.0 <= sab <= 1.0


def test_anonymized_strips_owner_only():
    d = profile("a", {3, 4})
    anon = d.anonymized()
    assert anon.owner is None
    assert anon.held == d.held
    assert anon.weights == d.weights


def test_profiles_csv_roundtrip(tmp_path):
    profiles = {"a": InterestDescriptor.from_counts("a", {3: 12, 6: 4}, 10),
                "b": InterestDescriptor.from_counts("b", {4: 10}, 10)}
    path = tmp_path / "profiles.csv"
    write_profiles_csv(profiles, path)
    loaded = read_profiles_csv(path)
    assert loaded.keys() == profiles.keys()
    for owner in profiles:
        assert loaded[owner].held == profiles[owner].held
        assert loaded[owner].weights == profiles[owner].weights


@pytest.mark.parametrize("rows, line", [
    (["a,3,1,1", "a,4,2,0"], 3),
    (["a,4,2,0", "a,3,1,1"], 3),
    (["a,3,2,1", "b,4,2,0"], 3),
    (["a,3,0,1"], 2),
    (["a,3,5,1", "b,4,2,0", "b,5,1,1"], 4),
], ids=["unheld-above-held", "held-below-unheld", "across-owners", "held-at-zero",
        "held-below-an-earlier-unheld"])
def test_profiles_csv_with_flags_no_threshold_gives_is_an_error(tmp_path, rows, line):
    """A category is held iff its count reaches one interest threshold >= 1,
    so every held count is at least 1 and above every count not held. A
    file that breaks this is an error naming the file and the line of the
    row that breaks it."""
    path = tmp_path / "profiles.csv"
    path.write_text("\n".join(["owner,macro_id,count,held", *rows]) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}:")):
        read_profiles_csv(path)


def test_profiles_csv_from_any_threshold_loads(tmp_path):
    path = tmp_path / "profiles.csv"
    for threshold in (1, 2, 5):
        counts = {3: 1, 4: 2, 5: 5, 6: 0}
        profiles = {"a": InterestDescriptor.from_counts("a", counts, threshold),
                    "b": InterestDescriptor.from_counts("b", {4: threshold}, threshold)}
        write_profiles_csv(profiles, path)
        assert read_profiles_csv(path) == profiles
