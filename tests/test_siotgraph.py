from __future__ import annotations

import itertools
import math
import random
import re
import sys

import pytest

from conftest import (checkin, clique_device_graph, corpus_of, fixed, make_devices,
                      mobile, scatter_points, traced_peak, with_edges)
from oracles import (oracle_clor, oracle_components, oracle_device_view,
                     oracle_por_count, siot_edges)
from siotsim import siotgraph
from siotsim.geo import EARTH_RADIUS_M, GeoPoint, haversine_m
from siotsim.siotgraph import (BASE_KINDS, FIXED, MOBILE, Device,
                               RelationshipKind, SIoTGraph, build_siot_graph,
                               default_model_catalog, establish_clor,
                               establish_oor, establish_por, establish_sor,
                               instantiate_devices, load_model_catalog,
                               parse_kind, read_devices_csv, read_siot_graph,
                               write_devices_csv, write_siot_graph)
from siotsim.trace import (CoLocation, detect_colocations, read_colocations_csv,
                           write_colocations_csv)


def homes_for(users):
    return {u: GeoPoint(10.0, 10.0 + 0.001 * i) for i, u in enumerate(users)}


def test_instantiate_two_devices_per_user():
    users = ["a", "b", "c"]
    devices = instantiate_devices(users, homes_for(users), default_model_catalog(), 0)
    assert len(devices) == 6
    kinds = sorted(d.kind for d in devices.values())
    assert kinds.count(MOBILE) == 3 and kinds.count(FIXED) == 3
    for d in devices.values():
        assert (d.location is not None) == (d.kind == FIXED)


def test_instantiate_single_model_catalog():
    users = ["a", "b"]
    devices = instantiate_devices(users, homes_for(users), [("only", 1.0)], 0)
    assert {d.model for d in devices.values()} == {"only"}


def test_instantiate_deterministic_per_seed():
    users = [f"u{i}" for i in range(20)]
    first = instantiate_devices(users, homes_for(users), default_model_catalog(), 5)
    second = instantiate_devices(users, homes_for(users), default_model_catalog(), 5)
    third = instantiate_devices(users, homes_for(users), default_model_catalog(), 6)
    assert first == second
    assert first != third


def test_instantiate_requires_home_points():
    with pytest.raises(ValueError):
        instantiate_devices(["a"], {}, default_model_catalog(), 0)


def test_instantiate_rejects_unnormalized_catalog():
    with pytest.raises(ValueError):
        instantiate_devices(["a"], homes_for(["a"]), [("m", 0.6)], 0)


def test_por_same_and_different_models():
    devices = {
        "d1": Device("d1", "a", MOBILE, "m1", None),
        "d2": Device("d2", "b", MOBILE, "m1", None),
        "d3": Device("d3", "c", MOBILE, "m2", None),
    }
    assert establish_por(devices) == [("d1", "d2")]


def test_por_count_matches_combinatorial_oracle():
    rnd = random.Random(2)
    for _ in range(20):
        models = [f"m{rnd.randrange(4)}" for _ in range(rnd.randrange(1, 25))]
        devices = {f"d{i}": Device(f"d{i}", f"u{i}", MOBILE, m, None)
                   for i, m in enumerate(models)}
        assert len(establish_por(devices)) == oracle_por_count(models)


def test_clor_by_distance_and_kind():
    devices = {
        "a:fixed": Device("a:fixed", "a", FIXED, "m", GeoPoint(10.0, 10.0)),
        "b:fixed": Device("b:fixed", "b", FIXED, "m", GeoPoint(10.0, 10.0001)),
        "c:fixed": Device("c:fixed", "c", FIXED, "m", GeoPoint(10.0, 10.1)),
        "d:mobile": Device("d:mobile", "d", MOBILE, "m", None),
    }
    pairs = establish_clor(devices, radius_m=250.0)
    assert pairs == [("a:fixed", "b:fixed")]
    assert not any("d:mobile" in p for p in pairs)


def _fixed_devices(points) -> dict[str, Device]:
    devices = {}
    for i, p in enumerate(points):
        for kind in (FIXED, MOBILE):
            did = f"u{i:03d}:{kind}"
            devices[did] = Device(did, f"u{i:03d}", kind, "m",
                                  p if kind == FIXED else None)
    return devices


# half the Earth's circumference is about 20,015 km
CLOR_RADII = (0.0, 10.0, 250.0, 5000.0, 800_000.0, 21_000_000.0)


def test_clor_matches_all_pairs_oracle_on_random_layouts():
    rnd = random.Random(6201)
    for radius in CLOR_RADII:
        for n in (5, 40, 120):
            devices = _fixed_devices(scatter_points(rnd, n, radius))
            assert establish_clor(devices, radius) == oracle_clor(devices, radius), \
                (radius, n)


def test_clor_radius_zero_pairs_only_identical_points():
    here, there = GeoPoint(-89.995, 179.9999), GeoPoint(-89.995, -179.9999)
    devices = _fixed_devices([here, there, here, GeoPoint(0.0, 0.0), here])
    pairs = establish_clor(devices, 0.0)
    assert pairs == [("u000:fixed", "u002:fixed"), ("u000:fixed", "u004:fixed"),
                     ("u002:fixed", "u004:fixed")]
    assert pairs == oracle_clor(devices, 0.0)


@pytest.mark.parametrize("a, b", [
    (GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.00225)),
    (GeoPoint(10.0, 179.9999), GeoPoint(10.0, -179.9990)),
    (GeoPoint(89.995, 0.0), GeoPoint(89.995, 90.0)),
    (GeoPoint(-89.999, -45.0), GeoPoint(-89.99, 135.0)),
    (GeoPoint(45.0, 180.0), GeoPoint(45.002, -180.0)),
], ids=["equator", "antimeridian", "north-pole", "across-south-pole", "at-180"])
def test_clor_boundary_inclusive_at_the_computed_distance(a, b):
    devices = _fixed_devices([a, b])
    d = haversine_m(a, b)
    assert 0.0 < d < 2000.0
    assert establish_clor(devices, d) == [("u000:fixed", "u001:fixed")]
    assert establish_clor(devices, math.nextafter(d, 0.0)) == []


def test_clor_radius_beyond_half_the_circumference_pairs_everything():
    points = [GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0), GeoPoint(0.0, 180.0),
              GeoPoint(0.0, 0.0), GeoPoint(-45.0, -90.0)]
    devices = _fixed_devices(points)
    radius = math.pi * EARTH_RADIUS_M * 1.05
    pairs = establish_clor(devices, radius)
    assert len(pairs) == 10
    assert pairs == oracle_clor(devices, radius)


def test_oor_one_edge_per_owner():
    devices = make_devices(["a", "b", "c"])
    pairs = establish_oor(devices)
    assert len(pairs) == 3
    for a, b in pairs:
        assert devices[a].owner == devices[b].owner


def test_sor_threshold_boundary():
    devices = make_devices(["a", "b"])
    meetings = []
    for i in range(3):
        meetings += [checkin("a", 10000.0 * i, 10.0, 10.0, place=f"x{i}"),
                     checkin("b", 10000.0 * i, 10.0, 10.0, place=f"y{i}")]
    colocs = detect_colocations(corpus_of(meetings))
    assert len(colocs) == 3
    assert establish_sor(devices, colocs, 3) == [(mobile("a"), mobile("b"))]
    assert establish_sor(devices, colocs[:2], 3) == []
    assert establish_sor(devices, colocs[:1], 1) == [(mobile("a"), mobile("b"))]


def view_pairs(view) -> list[tuple[str, str]]:
    """The view's device pairs, in endpoint order, read from its neighbours."""
    return sorted((d, n) for d in view.graph.devices for n in view.neighbors(d) if d < n)


def test_select_kinds_filtering():
    g = SIoTGraph(make_devices(["a", "b"]), [
        (mobile("a"), mobile("b"), RelationshipKind.POR),
        (mobile("a"), mobile("b"), RelationshipKind.SOR),
        (fixed("a"), fixed("b"), RelationshipKind.SOR)])

    por_only = g.select_kinds({RelationshipKind.POR})
    assert [a for a, _ in view_pairs(por_only)] == [mobile("a")]
    # multi-kind edge stays visible through either of its kinds
    sor_only = g.select_kinds({RelationshipKind.SOR})
    assert len(view_pairs(sor_only)) == 2
    everything = g.select_kinds(set(RelationshipKind))
    assert view_pairs(everything) == [(e.device_a, e.device_b) for e in siot_edges(g)]
    with pytest.raises(ValueError):
        g.select_kinds(set())


def test_cior_is_never_stored_and_never_keys_a_view():
    devices = make_devices(["a", "b"])
    with pytest.raises(ValueError):
        SIoTGraph(devices, [(mobile("a"), mobile("b"), RelationshipKind.CIOR)])
    g = SIoTGraph(devices, [(mobile("a"), mobile("b"), RelationshipKind.SOR)])
    view = g.select_kinds({RelationshipKind.SOR})
    assert g.select_kinds({RelationshipKind.SOR, RelationshipKind.CIOR}) is view
    assert view.kinds == {RelationshipKind.SOR}
    assert g.kind_counts()[RelationshipKind.CIOR] == 0
    with pytest.raises(ValueError):
        g.select_kinds({RelationshipKind.CIOR})


def test_kind_monotonicity_of_views():
    rnd = random.Random(55)
    devices = make_devices([f"u{i}" for i in range(8)])
    ids = sorted(devices)
    edges = []
    for _ in range(30):
        a, b = rnd.sample(ids, 2)
        if devices[a].owner == devices[b].owner:
            continue
        edges.append((a, b, rnd.choice(list(RelationshipKind)[:4])))
    g = SIoTGraph(devices, edges)
    subsets = [{RelationshipKind.POR},
               {RelationshipKind.POR, RelationshipKind.SOR},
               {RelationshipKind.POR, RelationshipKind.SOR, RelationshipKind.OOR},
               set(RelationshipKind)]
    previous = None
    for kinds in subsets:
        edges = set(view_pairs(g.select_kinds(kinds)))
        if previous is not None:
            assert previous <= edges
        previous = edges


def test_owner_contacts_projection_skips_same_owner():
    g = SIoTGraph(make_devices(["a", "b"]), [(mobile("a"), fixed("a"), RelationshipKind.OOR),
                                             (mobile("a"), mobile("b"), RelationshipKind.SOR)])
    contacts = g.select_kinds(set(RelationshipKind)).owner_contacts(frozenset({"a", "b"}))
    assert contacts == {"a": ("b",), "b": ("a",)}


def owners_by_device(view) -> dict:
    """Each device of a component with at least two owners mapped to the
    owners of its `component` record, as `oracle_components` gives them."""
    records = {d: view.component(d) for d in view.graph.devices}
    return {d: c.owners for d, c in records.items() if c and len(c.owners) > 1}


def test_components_follow_added_edges():
    # a-b and c-d are two-owner components, f is one owner's OOR pair and
    # e has no edge at all
    g = SIoTGraph(make_devices(["a", "b", "c", "d", "e", "f"]), [
        *((mobile(user), fixed(user), RelationshipKind.OOR) for user in "abcdf"),
        (mobile("a"), mobile("b"), RelationshipKind.SOR),
        (mobile("c"), mobile("d"), RelationshipKind.SOR)])
    view = g.select_kinds(BASE_KINDS)
    before = owners_by_device(view)
    assert before == oracle_components(view)
    assert before[fixed("a")] == {"a", "b"} and before[fixed("c")] == {"c", "d"}
    ab = sorted([mobile("a"), fixed("a"), mobile("b"), fixed("b")])
    record = view.component(fixed("a"))
    assert all(view.component(d) is record for d in ab)
    assert record.ids == ab and record.bit_of == {d: ab.index(d) for d in ab}
    assert [{d for d in ab if mask >> record.bit_of[d] & 1} for mask in record.masks] \
        == [set(view.neighbors(d)) for d in ab]
    assert view.component(mobile("e")) is None and view.component(fixed("e")) is None
    assert view.component(mobile("f")).owners == {"f"}
    assert not {mobile("e"), fixed("e"), mobile("f"), fixed("f")} & before.keys()

    # the same graph built with one more edge
    g = with_edges(g, [(fixed("b"), fixed("c"), RelationshipKind.CLOR)])
    view = g.select_kinds(BASE_KINDS)
    after = owners_by_device(view)
    assert after == oracle_components(view)
    merged = {device for user in "abcd" for device in (mobile(user), fixed(user))}
    assert after.keys() == merged
    assert {id(view.component(d)) for d in merged} == {id(view.component(fixed("b")))}
    assert after[fixed("b")] == {"a", "b", "c", "d"}

    # read from a random graph built with each of its edges in turn added
    rnd = random.Random(77)
    devices = make_devices([f"u{i}" for i in range(12)])
    ids = sorted(devices)
    edges = []
    for _ in range(30):
        a, b = rnd.sample(ids, 2)
        edges.append((a, b, rnd.choice(sorted(BASE_KINDS, key=lambda k: k.value))))
        g = SIoTGraph(devices, edges)
        for kinds in ({RelationshipKind.SOR}, BASE_KINDS):
            view = g.select_kinds(kinds)
            assert owners_by_device(view) == oracle_components(view)


def test_build_siot_graph_composes_all_rules():
    users = ["a", "b"]
    homes = {u: GeoPoint(10.0, 10.0) for u in users}
    devices = instantiate_devices(users, homes, [("m", 1.0)], 0)
    meetings = []
    for i in range(3):
        meetings += [checkin("a", 10000.0 * i, 10.0, 10.0, place=f"x{i}"),
                     checkin("b", 10000.0 * i, 10.0, 10.0, place=f"y{i}")]
    colocs = detect_colocations(corpus_of(meetings))
    g = build_siot_graph(devices, colocs)
    counts = g.kind_counts()
    assert counts[RelationshipKind.POR] == 6  # C(4,2), single model
    assert counts[RelationshipKind.CLOR] == 1
    assert counts[RelationshipKind.OOR] == 2
    assert counts[RelationshipKind.SOR] == 1
    assert counts[RelationshipKind.CIOR] == 0  # never from trace rules


def test_build_siot_graph_from_a_stream_equals_the_graph_from_a_list():
    users = ["a", "b", "c", "d"]
    homes = {u: GeoPoint(10.0, 10.0 + i) for i, u in enumerate(users)}
    catalog = [(f"model_{i:02d}", 1.0 / 3) for i in range(3)]
    devices = instantiate_devices(users, homes, catalog, 4)
    meetings = []
    for i, pair in enumerate(["ab", "ab", "ab", "bc", "bc", "cd", "ab", "da"]):
        meetings += [checkin(user, 10000.0 * i, 20.0, 20.0, place=f"{user}{i}")
                     for user in pair]
    colocs = detect_colocations(corpus_of(meetings))
    for threshold in (1, 2, 3, 5):
        from_list = build_siot_graph(devices, colocs, threshold)
        assert siot_edges(build_siot_graph(devices, iter(colocs), threshold)) == \
            siot_edges(from_list)
    assert from_list.kind_counts()[RelationshipKind.SOR] == 0
    assert build_siot_graph(devices, iter(colocs), 2).kind_counts()[
        RelationshipKind.SOR] == 2


def test_build_siot_graph_holds_no_list_of_read_colocations(tmp_path):
    """`read_colocations_csv` yields one record at a time and the build reads
    it once, so the peak memory of the build does not grow with the number
    of co-location rows."""
    devices = make_devices(["a", "b", "c"])
    place = GeoPoint(0.0, 0.0)

    def build(rows: int):
        path = tmp_path / f"colocations{rows}.csv"
        write_colocations_csv([CoLocation("a", "b", float(t), place, 1.0, 0.0)
                               for t in range(rows)], path)
        return traced_peak(lambda: build_siot_graph(devices, read_colocations_csv(path)))

    small, small_peak = build(500)
    large, large_peak = build(5000)
    assert siot_edges(large) == siot_edges(small)
    assert large.kind_counts()[RelationshipKind.SOR] == 1
    assert large_peak < small_peak + 64 * 1024, (small_peak, large_peak)


def test_build_siot_graph_holds_each_por_pair_once(monkeypatch):
    """After the build, each entry of the list `establish_por` returned is
    released or is the graph's own key object: no POR pair is held as a
    second tuple beside its key."""
    returned = []

    def keeping_por(devices):
        returned.append(establish_por(devices))
        return returned[-1]

    monkeypatch.setattr(siotgraph, "establish_por", keeping_por)
    graph = build_siot_graph(make_devices([f"u{i:02d}" for i in range(40)]), [])
    keys = {id(pair) for pair in graph._edges}
    assert len(returned[0]) == 80 * 79 // 2 == graph.kind_counts()[RelationshipKind.POR]
    assert all(pair is None or id(pair) in keys for pair in returned[0])


def test_owner_contacts_peak_is_a_small_multiple_of_its_result():
    """Building the owner contacts of a POR view holds no hash set per
    owner: its traced peak stays below 4 times the size of the result."""
    view = clique_device_graph(random.Random(7), 150, models=5).select_kinds(
        {RelationshipKind.POR})
    owners = frozenset(dev.owner for dev in view.graph.devices.values())
    contacts, peak = traced_peak(lambda: view.owner_contacts(owners))
    size = sys.getsizeof(contacts) + sum(map(sys.getsizeof, contacts.values()))
    assert len(contacts) == 150
    assert peak < 4 * size, (peak, size)


@pytest.mark.parametrize("rows, line", [
    ("m1,nan\nm2,0.5\nm3,0.5", 2),
    ("m1,1.5\nm2,-0.5", 2),
    ("m1,0.5\nm2,-0.0001\nm3,0.5", 3),
    ("m1,inf", 2),
    ("m1,0.5\nm2,0.25\nm1,0.25", 4),
], ids=["nan", "above-one", "negative", "infinite", "repeated-model"])
def test_load_model_catalog_rejects_bad_probabilities_and_repeated_models(
        tmp_path, rows, line):
    path = tmp_path / "models.csv"
    path.write_text(f"model_id,probability\n{rows}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: "):
        load_model_catalog(path)


def test_load_model_catalog_accepts_probabilities_zero_and_one(tmp_path):
    path = tmp_path / "models.csv"
    path.write_text("model_id,probability\nm1,0\nm2,1.0\n", encoding="utf-8")
    assert load_model_catalog(path) == [("m1", 0.0), ("m2", 1.0)]


def test_graph_export_roundtrip(tmp_path):
    devices = make_devices(["a", "b", "c"])
    g = SIoTGraph(devices, [(mobile("a"), mobile("b"), RelationshipKind.POR),
                            (mobile("a"), mobile("b"), RelationshipKind.SOR),
                            (fixed("b"), fixed("c"), RelationshipKind.CLOR)])
    dev_path, graph_path = tmp_path / "devices.csv", tmp_path / "graph.csv"
    write_devices_csv(devices, dev_path)
    write_siot_graph(g, graph_path)
    devices2 = read_devices_csv(dev_path)
    g2 = read_siot_graph(graph_path, devices2)
    assert devices2 == devices
    assert siot_edges(g2) == siot_edges(g)


BASE_KIND_SETS = [frozenset(kinds) for r in range(1, 5) for kinds in
                  itertools.combinations(sorted(BASE_KINDS, key=lambda k: k.value), r)]


def _random_edge_lines(rnd, ids) -> list[str]:
    """Raw graph lines over `ids`: pairs carrying 1 to 4 kinds, some lines
    repeated and about half with their endpoints reversed, shuffled."""
    texts = sorted(kind.value for kind in BASE_KINDS)
    lines = []
    for _ in range(rnd.randrange(3, 30)):
        a, b = rnd.sample(ids, 2)
        for kind in rnd.sample(texts, rnd.choice((1, 1, 2, 3, 4))):
            lines.append((a, b, kind) if rnd.random() < 0.5 else (b, a, kind))
    lines += rnd.choices(lines, k=len(lines) // 3)
    rnd.shuffle(lines)
    return [",".join(line) for line in lines]


def test_views_of_a_read_graph_match_the_raw_line_oracle(tmp_path):
    """Each view's neighbours and owner contacts equal the raw-line oracle's;
    the contacts cut to a random owner subset equal the oracle's contacts
    with every owner outside the subset left out."""
    pick = random.Random(2626)

    def check(graph, lines):
        owners = sorted({dev.owner for dev in graph.devices.values()})
        for kinds in BASE_KIND_SETS:
            neighbours, contacts, counts = oracle_device_view(lines, graph.devices, kinds)
            view = graph.select_kinds(kinds)
            assert {d: view.neighbors(d) for d in graph.devices} == neighbours, kinds
            assert view.owner_contacts(frozenset(owners)) == contacts, kinds
            some = frozenset(pick.sample(owners, pick.randrange(len(owners) + 1)))
            cut = {u: tuple(v for v in vs if v in some)
                   for u, vs in contacts.items() if u in some}
            assert view.owner_contacts(some) == {u: vs for u, vs in cut.items() if vs}
            assert graph.kind_counts() == counts

    assert len(set(BASE_KIND_SETS)) == 15
    rnd = random.Random(1313)
    path = tmp_path / "graph.csv"
    for _ in range(25):
        devices = make_devices([f"u{i}" for i in range(rnd.randrange(2, 9))])
        ids = sorted(devices)
        lines = _random_edge_lines(rnd, ids)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        graph = read_siot_graph(path, devices)
        check(graph, lines)
        # the same graph built with one more edge
        a, b = rnd.sample(ids, 2)
        kind = rnd.choice(sorted(BASE_KINDS, key=lambda k: k.value))
        check(with_edges(graph, [(a, b, kind)]), lines + [f"{a},{b},{kind.value}"])


def test_a_read_graph_shares_its_kind_sets_and_device_ids(tmp_path):
    """Edges with equal kinds hold one kind-set object, and all the edges of
    a device hold one id string: the store keeps no object per edge."""
    devices = make_devices([f"u{i}" for i in range(8)])
    write_devices_csv(devices, tmp_path / "devices.csv")
    rnd = random.Random(4)
    lines = [line for _ in range(4) for line in _random_edge_lines(rnd, sorted(devices))]
    path = tmp_path / "graph.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    edges = siot_edges(read_siot_graph(path, read_devices_csv(tmp_path / "devices.csv")))
    kind_sets: dict = {}
    for e in edges:
        kind_sets.setdefault(e.kinds, set()).add(id(e.kinds))
    assert len(kind_sets) > 4
    assert all(len(ids) == 1 for ids in kind_sets.values())
    endpoints = [d for e in edges for d in (e.device_a, e.device_b)]
    assert len(edges) > len(set(endpoints))
    assert len({id(d) for d in endpoints}) == len(set(endpoints))


@pytest.mark.parametrize("bad_line, reason", [pytest.param(*case, id=case[0]) for case in [
    ("a:mobile,b:mobile,C-IOR", "C-IOR links are not stored in the device graph"),
    ("a:mobile,b:mobile,C-IOR,3", None),
    ("a:mobile,b:mobile,POR,3", None),
    ("a:mobile,ghost:mobile,POR", "unknown device in edge ('a:mobile', 'ghost:mobile')"),
    ("a:mobile,a:mobile,POR", "self-edge on device 'a:mobile'"),
    ("a:mobile,b:mobile,C-WOR", "unknown relationship kind: 'C-WOR'"),
]])
def test_read_siot_graph_names_the_file_and_line_of_bad_input(tmp_path, bad_line, reason):
    """The file, the line and the line's text; and the exact reason where it
    is not Python's own unpacking message."""
    devices = make_devices(["a", "b"])
    path = tmp_path / "graph.csv"
    path.write_text(f"a:mobile,b:mobile,POR\n\n{bad_line}\n", encoding="utf-8")
    expected = f"^{re.escape(f'{path}:3: bad edge line {bad_line!r} (')}"
    if reason is not None:
        expected += f"{re.escape(reason)}\\)$"
    with pytest.raises(ValueError, match=expected):
        read_siot_graph(path, devices)


def test_parse_kind_roundtrip():
    for kind in RelationshipKind:
        assert parse_kind(kind.value) is kind
    with pytest.raises(ValueError):
        parse_kind("C-WOR")  # deliberately absent kind


def test_graph_constructor_rejects_cior_self_edges_and_unknown_devices():
    devices = make_devices(["a", "b"])
    for edge, reason in [
        ((mobile("a"), mobile("b"), RelationshipKind.CIOR),
         "C-IOR links are not stored in the device graph"),
        ((mobile("a"), mobile("a"), RelationshipKind.POR), "self-edge on device 'a:mobile'"),
        ((mobile("a"), "ghost", RelationshipKind.POR),
         "unknown device in edge ('a:mobile', 'ghost')"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            SIoTGraph(devices, [(mobile("a"), fixed("a"), RelationshipKind.OOR), edge])
