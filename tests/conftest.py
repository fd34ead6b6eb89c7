from __future__ import annotations

import functools
import importlib
import math
import random
import sys
import tempfile
import tracemalloc
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from siotsim import cli
from siotsim.experiment import write_result_csv
from siotsim.geo import EARTH_RADIUS_M, GeoPoint
from siotsim.humangraph import UNBOUNDED, FriendshipGraph
from siotsim.interests import InterestDescriptor
from siotsim.protocol import VuipToken
from siotsim.rng import DrawTable
from siotsim.scenario import Scenario, read_scenario_dir
from siotsim.siotgraph import FIXED, MOBILE, Device, SIoTGraph, device_id
from siotsim.trace import CheckIn, TraceCorpus


def fixed_horizon(forward=True) -> defaultdict:
    """Forwarding horizons where every device forwards at every hop, or
    none does."""
    return defaultdict(lambda: UNBOUNDED if forward else 0)


def bool_horizons(decide: dict, entities) -> dict:
    """Hop horizons of hop-independent decisions: unbounded where `decide`
    says yes, 0 (no hop) for every other entity."""
    return defaultdict(int, {e: UNBOUNDED if decide.get(e, False) else 0
                             for e in entities})


def token_for(owner_profile: InterestDescriptor, device: str, ttl: int = 6,
              seed: int = 0, replicate: int = 0) -> VuipToken:
    """The token a round of (seed, replicate) sends from `device`."""
    return VuipToken(DrawTable(seed, replicate).tokens[device],
                     owner_profile.anonymized(), ttl)


def traced_peak(call):
    """`call()` and the peak size in bytes of the memory traced while it
    ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def result_csv_text(runs) -> str:
    """The `results.csv` text of a campaign's runs, as `write_result_csv`
    writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        write_result_csv(runs, path)
        return path.read_text(encoding="utf-8")


@functools.cache
def trace_scenario(seed: int = 0) -> Scenario:
    """30 users of the bench's trace generator at `seed`, through `ingest`
    and `build-graph`. Same-model POR cliques and repeated meetings join
    almost every holder, so a round over all kinds gives each holder a
    partner set of most other holders."""
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        gen_trace = importlib.import_module("gen_trace")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        inputs = out / "inputs"
        gen_trace.generate(gen_trace.TraceSpec(users=30, pois=20, days=3), seed, inputs)
        for stage in (
                ["ingest", "--checkins", inputs / gen_trace.CHECKINS_FILE,
                 "--friendships", inputs / gen_trace.FRIENDSHIPS_FILE,
                 "--poi", inputs / gen_trace.POI_FILE, "--out", out / "ingest"],
                ["build-graph", "--ingest", out / "ingest",
                 "--models", inputs / gen_trace.MODELS_FILE, "--out", out / "scenario"]):
            assert cli.main([str(a) for a in stage]) == 0, stage
        return read_scenario_dir(out / "scenario")


def make_devices(users, model="m0", lat=0.0) -> dict:
    devices = {}
    for i, user in enumerate(users):
        home = GeoPoint(lat, 0.001 * i)
        for kind in (MOBILE, FIXED):
            did = device_id(user, kind)
            devices[did] = Device(did, user, kind, model,
                                  home if kind == FIXED else None)
    return devices


def mobile(user: str) -> str:
    return device_id(user, MOBILE)


def fixed(user: str) -> str:
    return device_id(user, FIXED)


def profile(owner: str, held) -> InterestDescriptor:
    return InterestDescriptor.from_counts(owner, {m: 1 for m in held}, 1)


def checkin(user: str, ts: float, lat: float, lon: float, place="p") -> CheckIn:
    return CheckIn(user, ts, GeoPoint(lat, lon), place)


def corpus_of(checkins, friendships=()) -> TraceCorpus:
    """A corpus of the check-ins with the friend pairs between two of their
    users, each pair in sorted order and self-loops dropped."""
    corpus = TraceCorpus.build(checkins)
    users = corpus.users
    pairs = frozenset((a, b) if a < b else (b, a) for a, b in friendships
                      if a != b and a in users and b in users)
    return TraceCorpus(corpus.checkins, users, pairs)


# Where a fixed-radius search on the sphere goes wrong first: both sides of
# the antimeridian (at +-179.9999 and at exactly +-180), beside and at each
# pole, and plain mid-latitude ground for contrast.
EDGE_ANCHORS = ((0.0, 0.0), (0.0, 179.9999), (0.0, -179.9999), (45.0, 180.0),
                (-30.0, -180.0), (89.995, 0.0), (-89.995, 135.0), (90.0, 0.0),
                (-90.0, -60.0), (60.0, 10.0))


def _wrap_lon(lon: float) -> float:
    return lon if -180.0 <= lon <= 180.0 else (lon + 180.0) % 360.0 - 180.0


def scatter_points(rnd: random.Random, n: int, radius_m: float) -> list[GeoPoint]:
    """`n` points around the edge anchors, spread over a few `radius_m`, so
    that pairs straddle the rows and cells of any grid sized by the radius.
    Some points repeat an earlier one exactly, and some lie one radius due
    north or due east of an earlier one, where rounding decides."""
    deg = math.degrees(max(radius_m, 1.0) / EARTH_RADIUS_M)
    points: list[GeoPoint] = []
    while len(points) < n:
        pick = rnd.random()
        if points and pick < 0.15:
            points.append(rnd.choice(points))
            continue
        if points and pick < 0.3:
            p = rnd.choice(points)
            if rnd.random() < 0.5 and abs(p.lat + deg) <= 90.0:
                points.append(GeoPoint(p.lat + deg, p.lon))
            elif abs(p.lat) < 89.0:
                points.append(GeoPoint(p.lat, _wrap_lon(
                    p.lon + deg / math.cos(math.radians(p.lat)))))
            continue
        lat0, lon0 = rnd.choice(EDGE_ANCHORS)
        if pick < 0.4:
            points.append(GeoPoint(lat0, lon0))
            continue
        lat = min(90.0, max(-90.0, lat0 + rnd.uniform(-3.0, 3.0) * deg))
        stretch = max(math.cos(math.radians(lat)), 1e-3)
        points.append(GeoPoint(lat, _wrap_lon(lon0 + rnd.uniform(-3.0, 3.0) * deg / stretch)))
    return points


def random_friend_graph(rnd: random.Random, n: int, p: float) -> FriendshipGraph:
    users = [f"u{i:03d}" for i in range(n)]
    return FriendshipGraph(users, [(users[i], users[j]) for i in range(n)
                                   for j in range(i + 1, n) if rnd.random() < p])


def random_nonincreasing(rnd: random.Random, length: int) -> tuple[float, ...]:
    return tuple(sorted((rnd.random() for _ in range(length)), reverse=True))


def random_device_graph(rnd: random.Random, n_users: int,
                        edge_prob: float) -> SIoTGraph:
    from siotsim.siotgraph import RelationshipKind
    users = [f"u{i:03d}" for i in range(n_users)]
    graph = SIoTGraph(make_devices(users))
    for u in users:
        graph.add_edge(mobile(u), fixed(u), RelationshipKind.OOR)
    ids = sorted(graph.devices)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if graph.devices[ids[i]].owner == graph.devices[ids[j]].owner:
                continue
            if rnd.random() < edge_prob:
                kind = rnd.choice([RelationshipKind.POR, RelationshipKind.SOR,
                                   RelationshipKind.CLOR])
                graph.add_edge(ids[i], ids[j], kind)
    return graph


def clique_device_graph(rnd: random.Random, n_users: int, models: int = 3) -> SIoTGraph:
    """Devices of `n_users` owners, each with a model out of `models`, so
    that same-model (POR) cliques are dense; most owners have an OOR edge,
    and a few random SOR and C-LOR edges join devices of other owners."""
    from siotsim.siotgraph import RelationshipKind, establish_por
    devices = {}
    for i in range(n_users):
        user = f"u{i:03d}"
        for kind in (MOBILE, FIXED):
            did = device_id(user, kind)
            devices[did] = Device(did, user, kind, f"m{rnd.randrange(models)}",
                                  GeoPoint(0.0, 0.001 * i) if kind == FIXED else None)
    graph = SIoTGraph(devices)
    for a, b in establish_por(devices):
        graph.add_edge(a, b, RelationshipKind.POR)
    for user, owned in graph.owner_devices.items():
        if rnd.random() < 0.8:
            graph.add_edge(owned[0], owned[1], RelationshipKind.OOR)
    ids = sorted(devices)
    for _ in range(rnd.randrange(0, n_users)):
        a, b = rnd.sample(ids, 2)
        if devices[a].owner != devices[b].owner:
            graph.add_edge(a, b, rnd.choice([RelationshipKind.SOR, RelationshipKind.CLOR]))
    return graph
