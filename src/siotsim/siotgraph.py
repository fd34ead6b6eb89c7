"""Device layer: device instantiation from users and typed social-object
relationship edges (POR, C-LOR, OOR, SOR). Protocol-established C-IOR links
are never stored here; a round returns them as each owner's partners.
"""

from __future__ import annotations

import collections
import enum
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import rng
from .geo import CellIndex, GeoPoint, haversine_m
from .humangraph import component_members, sorted_adjacency
from .trace import CoLocation, read_csv_rows, write_csv_rows

MOBILE = "mobile"
FIXED = "fixed"

DEFAULT_SOR_THRESHOLD = 3
DEFAULT_CLOR_RADIUS_M = 250.0
DEFAULT_MODEL_COUNT = 10


class RelationshipKind(enum.Enum):
    """Typed device relationships. The co-work kind is deliberately absent."""

    POR = "POR"
    CLOR = "C-LOR"
    OOR = "OOR"
    SOR = "SOR"
    CIOR = "C-IOR"


BASE_KINDS = frozenset({RelationshipKind.POR, RelationshipKind.CLOR,
                        RelationshipKind.OOR, RelationshipKind.SOR})


_KIND_OF_TEXT = {kind.value: kind for kind in RelationshipKind}

# One shared object per combination of base kinds: the graph stores each
# edge's kinds as the entry here, so equal kind sets are one object.
_KIND_SETS = {s: s for s in (frozenset(c) for r in range(1, len(BASE_KINDS) + 1)
                             for c in itertools.combinations(BASE_KINDS, r))}
# kind -> (kind set, or None for no edge yet) -> the kind set with it added
_ADDED = {k: {s: _KIND_SETS[(s or frozenset()) | {k}] for s in (None, *_KIND_SETS)}
          for k in BASE_KINDS}
# kind set -> its `write_siot_graph` line endings, one per kind
_LINE_ENDS = {s: [f",{k.value}\n" for k in sorted(s, key=lambda k: k.value)]
              for s in _KIND_SETS}


def parse_kind(text: str) -> RelationshipKind:
    try:
        return _KIND_OF_TEXT[text]
    except KeyError:
        raise ValueError(f"unknown relationship kind: {text!r}") from None


@dataclass(frozen=True, slots=True)
class Device:
    device_id: str
    owner: str
    kind: str  # MOBILE or FIXED
    model: str
    location: GeoPoint | None  # home point for fixed devices, None for mobile

    def __post_init__(self) -> None:
        if self.kind not in (MOBILE, FIXED):
            raise ValueError(f"bad device kind: {self.kind!r}")
        if self.kind == FIXED and self.location is None:
            raise ValueError(f"fixed device {self.device_id} needs a location")


def device_id(owner: str, kind: str) -> str:
    return f"{owner}:{kind}"


def default_model_catalog() -> list[tuple[str, float]]:
    return [(f"model_{i:02d}", 1.0 / DEFAULT_MODEL_COUNT) for i in range(DEFAULT_MODEL_COUNT)]


def load_model_catalog(path: str | Path) -> list[tuple[str, float]]:
    """Load a model catalog from CSV `model_id,probability`. A malformed row,
    a probability outside [0, 1] (NaN included) or a second row for a model
    id is an error naming the file and line."""
    seen: set[str] = set()

    def parse(row: list[str]) -> tuple[str, float]:
        model_id, prob = row
        p = float(prob)
        if not 0.0 <= p <= 1.0:
            raise ValueError("probability outside [0, 1]")
        if model_id in seen:
            raise ValueError(f"second row for model {model_id!r}")
        seen.add(model_id)
        return model_id, p

    return list(read_csv_rows(path, ["model_id", "probability"], "model catalog", parse))


def instantiate_devices(users: Iterable[str], home_points: Mapping[str, GeoPoint],
                        catalog: Sequence[tuple[str, float]], seed: int,
                        ) -> dict[str, Device]:
    """Create one mobile and one fixed device per user, with models drawn
    from the catalog. The fixed device sits at the owner's home point."""
    total = sum(p for _, p in catalog)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"model catalog probabilities sum to {total}, expected 1")
    devices: dict[str, Device] = {}
    for user in sorted(set(users)):
        home = home_points.get(user)
        if home is None:
            raise ValueError(f"user {user!r} has no home point")
        for kind in (MOBILE, FIXED):
            did = device_id(user, kind)
            draw = rng.unit_draw(seed, "model", user, kind)
            model = _pick_model(catalog, draw)
            devices[did] = Device(did, user, kind, model,
                                  home if kind == FIXED else None)
    return devices


def _pick_model(catalog: Sequence[tuple[str, float]], draw: float) -> str:
    acc = 0.0
    for model, prob in catalog:
        acc += prob
        if draw < acc:
            return model
    return catalog[-1][0]


def establish_por(devices: Mapping[str, Device]) -> list[tuple[str, str]]:
    """Pair every two devices sharing a model identifier (model is the
    production-batch proxy)."""
    by_model: dict[str, list[str]] = {}
    for d in devices.values():
        by_model.setdefault(d.model, []).append(d.device_id)
    pairs: list[tuple[str, str]] = []
    for ids in by_model.values():
        ids.sort()
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                pairs.append((ids[i], ids[j]))
    return sorted(pairs)


def establish_clor(devices: Mapping[str, Device],
                   radius_m: float = DEFAULT_CLOR_RADIUS_M) -> list[tuple[str, str]]:
    """Pair fixed devices whose home points lie within `radius_m` meters,
    in device id order. Mobile devices never receive this kind. Candidates
    come from the cells of a `CellIndex`, so a radius of 0 pairs devices
    at identical points."""
    fixed = sorted((d for d in devices.values() if d.kind == FIXED),
                   key=lambda d: d.device_id)
    grid = CellIndex(radius_m)
    members = grid.bucket(d.location for d in fixed)
    pairs: list[tuple[str, str]] = []
    for i, x in enumerate(fixed):
        near = sorted(j for key in grid.near(x.location)
                      for j in members.get(key, ()) if j > i)
        for j in near:
            if haversine_m(x.location, fixed[j].location) <= radius_m:
                pairs.append((x.device_id, fixed[j].device_id))
    return pairs


def establish_oor(devices: Mapping[str, Device]) -> list[tuple[str, str]]:
    """Pair the mobile and fixed device of each owner."""
    by_owner: dict[str, list[str]] = {}
    for d in devices.values():
        by_owner.setdefault(d.owner, []).append(d.device_id)
    pairs = []
    for ids in by_owner.values():
        if len(ids) == 2:
            a, b = sorted(ids)
            pairs.append((a, b))
    return sorted(pairs)


def establish_sor(devices: Mapping[str, Device], colocations: Iterable[CoLocation],
                  meet_threshold: int = DEFAULT_SOR_THRESHOLD) -> list[tuple[str, str]]:
    """Pair the mobile devices of two users who co-located at least
    `meet_threshold` times. The co-locations are read once, and only their
    count per user pair is kept."""
    if meet_threshold < 1:
        raise ValueError("meet_threshold must be >= 1")
    meetings: dict[tuple[str, str], int] = {}
    for c in colocations:
        key = (c.user_a, c.user_b)
        meetings[key] = meetings.get(key, 0) + 1
    pairs = []
    for (ua, ub), n in sorted(meetings.items()):
        if n < meet_threshold:
            continue
        da, db = device_id(ua, MOBILE), device_id(ub, MOBILE)
        if da in devices and db in devices:
            pairs.append((da, db) if da < db else (db, da))
    return sorted(pairs)


class SIoTGraph:
    """Typed-edge device graph with owner indexing and kind-filtered views,
    built whole from typed pairs `(device_a, device_b, kind)`, never changed.

    Each device pair with an edge is stored once: its endpoints in sorted
    order, as the device records' own id strings, map to the shared kind
    set of `_KIND_SETS`."""

    def __init__(self, devices: Mapping[str, Device],
                 edges: Iterable[tuple[str, str, RelationshipKind]]):
        self.devices = dict(devices)
        self._edges: dict[tuple[str, str], frozenset[RelationshipKind]] = {}
        self._views: dict[frozenset[RelationshipKind], SIoTView] = {}
        self.owner_devices: dict[str, list[str]] = {}
        for d in sorted(self.devices.values(), key=lambda d: d.device_id):
            self.owner_devices.setdefault(d.owner, []).append(d.device_id)
        for a, b, kind in edges:
            if kind is RelationshipKind.CIOR:
                raise ValueError("C-IOR links are not stored in the device graph")
            if a == b:
                raise ValueError(f"self-edge on device {a!r}")
            dev_a, dev_b = self.devices.get(a), self.devices.get(b)
            if dev_a is None or dev_b is None:
                raise ValueError(f"unknown device in edge ({a!r}, {b!r})")
            pair = ((dev_a.device_id, dev_b.device_id) if a < b
                    else (dev_b.device_id, dev_a.device_id))
            self._edges[pair] = _ADDED[kind][self._edges.get(pair)]

    def edge_count(self) -> int:
        """The number of device pairs with an edge."""
        return len(self._edges)

    def kind_counts(self) -> dict[RelationshipKind, int]:
        counts = {kind: 0 for kind in RelationshipKind}
        for kinds, n in collections.Counter(self._edges.values()).items():
            for kind in kinds:
                counts[kind] += n
        return counts

    def copy(self) -> "SIoTGraph":
        return SIoTGraph(self.devices, ((a, b, kind) for (a, b), kinds in self._edges.items()
                                        for kind in kinds))

    def select_kinds(self, kinds: Iterable[RelationshipKind]) -> "SIoTView":
        """The view of the given kinds, one per kind set and kept until the
        graph is discarded. C-IOR is dropped from the set, since the graph
        holds no C-IOR edge."""
        kinds = frozenset(kinds) - {RelationshipKind.CIOR}
        view = self._views.get(kinds)
        if view is None:
            view = self._views[kinds] = SIoTView(self, kinds)
        return view


class Component(NamedTuple):
    """A connected component of a view: the owners of its devices, the bit
    of each device, the device at each bit and the neighbour mask of each
    bit. Bits follow the sorted ids of the component's devices."""

    owners: frozenset[str]
    bit_of: dict[str, int]
    ids: list[str]
    masks: list[int]


class SIoTView:
    """Read-only view of a SIoTGraph exposing only edges carrying at least
    one selected kind.

    The sorted neighbour tuples, the owner projection and each component
    are built on first use and shared by every caller; they must not be
    mutated. The graph never changes, so they never go stale."""

    def __init__(self, graph: SIoTGraph, kinds: Iterable[RelationshipKind]):
        self.graph = graph
        self.kinds = frozenset(kinds)
        if not self.kinds:
            raise ValueError("kind selection must name a base kind")
        self._neighbors: dict[str, tuple[str, ...]] | None = None
        self._contacts: dict[str, tuple[str, ...]] | None = None
        self._components: dict[str, Component] = {}

    def _pairs(self) -> Iterable[tuple[str, str]]:
        """The stored device pairs that carry a selected kind."""
        return (pair for pair, carried in self.graph._edges.items()
                if not self.kinds.isdisjoint(carried))

    def neighbors(self, device: str) -> tuple[str, ...]:
        return self._adjacency().get(device, ())

    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        if self._neighbors is None:
            self._neighbors = sorted_adjacency(self._pairs())
        return self._neighbors

    def component(self, device: str) -> Component | None:
        """The device's connected component in the view, or None for a
        device without a neighbour. Built by one walk on the first lookup
        of any of its devices, which all share the record."""
        found = self._components.get(device)
        if found is None:
            adjacency = self._adjacency()
            if device not in adjacency:
                return None
            ids = sorted(component_members(adjacency, device))
            bit_of = {d: i for i, d in enumerate(ids)}
            masks = [sum(1 << bit_of[n] for n in adjacency[d]) for d in ids]
            devices = self.graph.devices
            found = Component(frozenset(devices[d].owner for d in ids), bit_of, ids, masks)
            self._components.update(dict.fromkeys(ids, found))
        return found

    def owner_contacts(self) -> dict[str, tuple[str, ...]]:
        """Owner-level projection: for each user, the owners of devices
        linked to any of that user's devices (self excluded)."""
        if self._contacts is None:
            owner = {d: dev.owner for d, dev in self.graph.devices.items()}
            self._contacts = sorted_adjacency(
                (owner[a], owner[b]) for a, b in self._pairs() if owner[a] != owner[b])
        return self._contacts


def build_siot_graph(devices: Mapping[str, Device], colocations: Iterable[CoLocation],
                     sor_threshold: int = DEFAULT_SOR_THRESHOLD,
                     clor_radius_m: float = DEFAULT_CLOR_RADIUS_M) -> SIoTGraph:
    """Assemble the device graph from the trace-derived relationship rules.
    The co-locations are read once, by `establish_sor`, so a stream such as
    `trace.read_colocations_csv`'s is never held whole. A POR pair is
    released once yielded, so it is held only as the graph's key."""
    def typed_pairs() -> Iterable[tuple[str, str, RelationshipKind]]:
        por = establish_por(devices)
        for i, (a, b) in enumerate(por):
            yield a, b, RelationshipKind.POR
            por[i] = None
        for a, b in establish_clor(devices, clor_radius_m):
            yield a, b, RelationshipKind.CLOR
        for a, b in establish_oor(devices):
            yield a, b, RelationshipKind.OOR
        for a, b in establish_sor(devices, colocations, sor_threshold):
            yield a, b, RelationshipKind.SOR

    return SIoTGraph(devices, typed_pairs())


# --- exports -----------------------------------------------------------------

DEVICE_HEADER = ["device_id", "owner", "kind", "model", "lat", "lon"]


def write_devices_csv(devices: Mapping[str, Device], path: str | Path) -> None:
    write_csv_rows(path, DEVICE_HEADER, (
        [d.device_id, d.owner, d.kind, d.model,
         *((repr(d.location.lat), repr(d.location.lon)) if d.location else ("", ""))]
        for d in (devices[did] for did in sorted(devices))))


def read_devices_csv(path: str | Path) -> dict[str, Device]:
    """Load a `write_devices_csv` file. A malformed row or a second row for
    a device id is an error naming the file and line."""
    devices: dict[str, Device] = {}

    def parse(row: list[str]) -> Device:
        did, owner, kind, model, lat, lon = row
        if did in devices:
            raise ValueError(f"second row for device {did!r}")
        loc = GeoPoint(float(lat), float(lon)) if lat else None
        return Device(did, owner, kind, model, loc)

    for device in read_csv_rows(path, DEVICE_HEADER, "device", parse):
        devices[device.device_id] = device
    return devices


def write_siot_graph(graph: SIoTGraph, path: str | Path) -> None:
    """Line-oriented export `device_a,device_b,kind`, one line per edge
    kind."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        edges = graph._edges
        for a, b in sorted(edges):
            for end in _LINE_ENDS[edges[a, b]]:
                fh.write(f"{a},{b}{end}")


def read_siot_graph(path: str | Path, devices: Mapping[str, Device]) -> SIoTGraph:
    """Load a `write_siot_graph` export. A malformed line, a C-IOR line or
    an unknown device is an error naming the file and line."""
    lineno, line = 0, ""

    def typed_pairs(fh) -> Iterable[tuple[str, str, RelationshipKind]]:
        nonlocal lineno, line
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line:
                a, b, kind_text = line.split(",")
                yield a, b, parse_kind(kind_text)

    with open(path, encoding="utf-8") as fh:
        try:
            return SIoTGraph(devices, typed_pairs(fh))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad edge line {line!r} "
                             f"({exc})") from exc
