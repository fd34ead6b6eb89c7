"""Synthetic scenario generator for desk-scale experiments.

Builds a configurable number of friendship communities plus a device layer
whose only links across communities are the requested typed edges, which
makes cross-community reach attributable to the device layer by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import rng
from .geo import GeoPoint
from .humangraph import FriendshipGraph
from .interests import InterestDescriptor
from .scenario import Scenario
from .siotgraph import (FIXED, MOBILE, Device, RelationshipKind, SIoTGraph,
                        device_id)

CROSSABLE_KINDS = (RelationshipKind.POR, RelationshipKind.CLOR, RelationshipKind.SOR)

NOISE_CATEGORY_BASE = 100
NOISE_CATEGORY_POOL = 8


@dataclass(frozen=True)
class SyntheticScenarioSpec:
    communities: int = 2
    nodes_per_community: int = 10
    intra_friend_prob: float = 0.5
    cross_edges: dict = field(default_factory=dict)  # RelationshipKind -> count
    interest: int = 3
    interest_prob: float = 1.0
    noise_interests: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.communities < 1 or self.nodes_per_community < 1:
            raise ValueError("communities and nodes_per_community must be >= 1")
        if not 0.0 <= self.intra_friend_prob <= 1.0:
            raise ValueError("intra_friend_prob must be in [0, 1]")
        if not 0.0 <= self.interest_prob <= 1.0:
            raise ValueError("interest_prob must be in [0, 1]")
        if self.noise_interests < 0:
            raise ValueError(f"noise_interests must be >= 0, got {self.noise_interests}")
        users, n = self.communities * self.nodes_per_community, self.nodes_per_community
        cross_pairs = users * (users - 1) // 2 - self.communities * n * (n - 1) // 2
        for kind, count in self.cross_edges.items():
            if kind not in CROSSABLE_KINDS:
                raise ValueError(f"cross edges of kind {kind} are not supported")
            if count < 0:
                raise ValueError("cross edge counts must be >= 0")
            if count > cross_pairs:
                raise ValueError(f"{count} {kind.value} cross edges, but only "
                                 f"{cross_pairs} distinct cross pairs")
        if self.communities < 2 and any(self.cross_edges.values()):
            raise ValueError("cross edges need at least two communities")


def community_of_user(user: str) -> int:
    return int(user.split("n")[0][1:])


def generate_scenario(spec: SyntheticScenarioSpec) -> Scenario:
    users = [f"c{ci:02d}n{ni:03d}"
             for ci in range(spec.communities)
             for ni in range(spec.nodes_per_community)]

    pairs = []
    friend_stream = rng.stream(spec.seed, "friends")
    for ci in range(spec.communities):
        members = [u for u in users if community_of_user(u) == ci]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if friend_stream.random() < spec.intra_friend_prob:
                    pairs.append((members[i], members[j]))
    friendships = FriendshipGraph(users, pairs)

    devices: dict[str, Device] = {}
    model_stream = rng.stream(spec.seed, "models")
    for u in users:
        ci = community_of_user(u)
        ni = int(u.split("n")[1])
        home = GeoPoint(min(89.0, ci * 0.5), (ni % 1000) * 0.001)
        model = f"model_{model_stream.randrange(4):02d}"
        for kind in (MOBILE, FIXED):
            did = device_id(u, kind)
            devices[did] = Device(did, u, kind, model,
                                  home if kind == FIXED else None)

    edges = [(device_id(u, MOBILE), device_id(u, FIXED), RelationshipKind.OOR)
             for u in users]
    cross_stream = rng.stream(spec.seed, "cross")
    for kind in CROSSABLE_KINDS:
        count = spec.cross_edges.get(kind, 0)
        placed: set[tuple[str, str]] = set()
        while len(placed) < count:  # ends: the spec bounds count by the cross pairs
            ca, cb = cross_stream.sample(range(spec.communities), 2)
            ua = f"c{ca:02d}n{cross_stream.randrange(spec.nodes_per_community):03d}"
            ub = f"c{cb:02d}n{cross_stream.randrange(spec.nodes_per_community):03d}"
            da = device_id(ua, FIXED if kind is RelationshipKind.CLOR else MOBILE)
            db = device_id(ub, FIXED if kind is RelationshipKind.CLOR else MOBILE)
            pair = (da, db) if da < db else (db, da)
            if pair in placed:
                continue
            placed.add(pair)
            edges.append((*pair, kind))

    profiles: dict[str, InterestDescriptor] = {}
    interest_stream = rng.stream(spec.seed, "interests")
    for u in users:
        counts: dict[int, int] = {}
        if interest_stream.random() < spec.interest_prob:
            counts[spec.interest] = 1
        for _ in range(spec.noise_interests):
            counts[NOISE_CATEGORY_BASE + interest_stream.randrange(NOISE_CATEGORY_POOL)] = 1
        profiles[u] = InterestDescriptor.from_counts(u, counts, 1)

    return Scenario(friendships, SIoTGraph(devices, edges), profiles)
