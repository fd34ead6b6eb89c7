"""Independent brute-force oracles the implementation is checked against.

These deliberately re-derive results with the dumbest possible method:
all-pairs scans, fixed-point sweeps that rerun until nothing changes, and
plain BFS component counting. They share no code paths with the package
internals they verify.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque

from siotsim import rng
from siotsim.geo import GeoPoint, haversine_m
from siotsim.siotgraph import FIXED, MOBILE, RelationshipKind
from siotsim.trace import CoLocation, TraceCorpus

BIG = 1 << 30


def oracle_colocations(corpus: TraceCorpus, radius_m: float,
                       window_s: float) -> list[CoLocation]:
    """All-pairs co-location scan."""
    checkins = list(corpus.checkins)
    out: list[CoLocation] = []
    for i in range(len(checkins)):
        for j in range(i + 1, len(checkins)):
            x, y = checkins[i], checkins[j]
            if x.user_id == y.user_id:
                continue
            if abs(x.timestamp - y.timestamp) > window_s:
                continue
            d = haversine_m(x.location, y.location)
            if d > radius_m:
                continue
            if x.user_id > y.user_id:
                x, y = y, x
            out.append(CoLocation(
                user_a=x.user_id,
                user_b=y.user_id,
                time=(x.timestamp + y.timestamp) / 2.0,
                location=GeoPoint((x.location.lat + y.location.lat) / 2.0,
                                  _short_way_mean_lon(x.location.lon, y.location.lon)),
                distance_m=d,
                dt_s=abs(x.timestamp - y.timestamp),
            ))
    out.sort(key=CoLocation.sort_key)
    return out


def _short_way_mean_lon(lon_a: float, lon_b: float) -> float:
    """Mean of two longitudes: the copy of `lon_b` (as is, or 360 degrees
    either way) nearest to `lon_a`, averaged with it and put back into
    [-180, 180]."""
    nearest = min((lon_b, lon_b - 360.0, lon_b + 360.0), key=lambda x: abs(x - lon_a))
    mean = (lon_a + nearest) / 2.0
    if mean > 180.0:
        return mean - 360.0
    if mean < -180.0:
        return mean + 360.0
    return mean


def oracle_clor(devices, radius_m: float) -> list[tuple[str, str]]:
    """All-pairs scan of the fixed devices: the sorted pairs of device ids
    whose locations lie within `radius_m` meters, boundary inclusive."""
    fixed = [d for d in devices.values() if d.kind == FIXED]
    pairs = []
    for x in fixed:
        for y in fixed:
            if x.device_id < y.device_id and haversine_m(x.location, y.location) <= radius_m:
                pairs.append((x.device_id, y.device_id))
    return sorted(pairs)


def oracle_nearest_poi(pois, point: GeoPoint, radius_m: float):
    """All-pairs scan of the PoIs: the smallest (distance, poi_id) within
    `radius_m` meters of `point`, boundary inclusive, or None."""
    hits = [(haversine_m(point, p.location), p.poi_id) for p in pois]
    return min((h for h in hits if h[0] <= radius_m), default=None)


def oracle_discover(start, adjacency, authorizes, max_hops, holders, extra=None):
    """Single discovery pass by per-hop frontier sweeps."""
    hops = {start: 0}
    for hop in range(max_hops):
        additions = {}
        for u, h in hops.items():
            if h != hop:
                continue
            if u != start and not authorizes(u, h):
                continue
            for v in adjacency.get(u, ()):
                if v not in hops and v not in additions:
                    additions[v] = hop + 1
        hops.update(additions)
    found = {n: h for n, h in hops.items() if n != start and n in holders}
    if extra is not None:
        for v in extra.get(start, ()):
            if v != start and v in holders and found.get(v, BIG) > 1:
                found[v] = 1
    return found


def oracle_reach(source, adjacency, authorizes, max_hops, holders, extra=None):
    """Fixed point of the relaunch process via repeated full sweeps.

    Returns (direct, best) where best maps every reached interested node to
    its minimum cumulative hop count.
    """
    cache = {}

    def discover(start):
        if start not in cache:
            cache[start] = oracle_discover(start, adjacency, authorizes,
                                           max_hops, holders, extra)
        return cache[start]

    direct = dict(discover(source))
    best = dict(direct)
    changed = True
    while changed:
        changed = False
        for r in sorted(best):
            if r not in holders:
                continue
            base = best[r]
            for n, k in discover(r).items():
                if n == source:
                    continue
                if base + k < best.get(n, BIG):
                    best[n] = base + k
                    changed = True
    return direct, best


def oracle_giant_pct(nodes, edges) -> float:
    """Largest-component percentage by plain BFS."""
    node_set = set(nodes)
    adjacency: dict = {n: set() for n in node_set}
    for a, b in edges:
        if a in node_set and b in node_set and a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    unseen = set(node_set)
    largest = 0
    while unseen:
        root = unseen.pop()
        component = {root}
        queue = [root]
        while queue:
            u = queue.pop()
            for v in adjacency[u]:
                if v not in component:
                    component.add(v)
                    queue.append(v)
        unseen -= component
        largest = max(largest, len(component))
    return 100.0 * largest / len(node_set)


def oracle_por_count(models: list[str]) -> int:
    """Expected same-model pair count."""
    total = 0
    for model in set(models):
        k = models.count(model)
        total += k * (k - 1) // 2
    return total


def oracle_device_view(lines, devices, kinds) -> tuple[dict, dict, dict]:
    """A device view straight from raw `device_a,device_b,kind` lines.

    Returns each device's sorted tuple of neighbours over the pairs that
    carry one of `kinds` (empty for a device without one); each owner's
    sorted tuple of the other owners whose devices are linked to its own
    (an owner without one is left out); and, for every kind, the number of
    distinct device pairs that carry it over all lines. A line and its
    reversed form name one pair, and a repeated line counts once."""
    wanted = {kind.value for kind in kinds}
    pair_kinds: dict = {}
    for line in lines:
        a, b, kind = line.split(",")
        pair_kinds.setdefault(frozenset((a, b)), set()).add(kind)
    linked = [tuple(pair) for pair, texts in pair_kinds.items() if texts & wanted]
    neighbours = {d: tuple(sorted({y for x, y in linked if x == d}
                                  | {x for x, y in linked if y == d}))
                  for d in devices}
    owner = {d: dev.owner for d, dev in devices.items()}
    contacts = {}
    for user in sorted(set(owner.values())):
        others = {owner[n] for d in devices if owner[d] == user
                  for n in neighbours[d]} - {user}
        if others:
            contacts[user] = tuple(sorted(others))
    counts = {kind: sum(kind.value in texts for texts in pair_kinds.values())
              for kind in RelationshipKind}
    return neighbours, contacts, counts


def oracle_flood(graph, kinds, source_device, decisions, ttl) -> dict:
    """Receivers of a token flood and their hop counts, by per-level sweeps
    over the raw edge list (never a kind-filtered view).

    An edge carries the token iff it has one of `kinds`; the device graph
    holds no C-IOR edge, so naming C-IOR in `kinds` changes nothing. The
    source always sends; any other device forwards at hop h < ttl iff its
    decision `forwards(device, h)` holds."""
    return _flood_levels(_kind_adjacency(graph, kinds), source_device, decisions, ttl)


def _kind_adjacency(graph, kinds) -> dict:
    """Each device's set of neighbours over the raw edges that carry one of
    `kinds`."""
    kinds = set(kinds)
    adjacency: dict = {}
    for e in graph.edges():
        if e.kinds & kinds:
            adjacency.setdefault(e.device_a, set()).add(e.device_b)
            adjacency.setdefault(e.device_b, set()).add(e.device_a)
    return adjacency


def _flood_levels(adjacency, source_device, decisions, ttl) -> dict:
    level = {source_device}
    hops = {source_device: 0}
    for hop in range(ttl):
        nxt = set()
        for dev in level:
            if dev != source_device and not decisions.forwards(dev, hop):
                continue
            nxt |= {v for v in adjacency.get(dev, ()) if v not in hops}
        for v in nxt:
            hops[v] = hop + 1
        level = nxt
    del hops[source_device]
    return hops


def oracle_components(view) -> dict:
    """Each device's connected component in `view`, as the frozenset of
    its devices' owners, for components with at least two owners. Plain BFS
    over the graph's edge list, filtered by the view's kinds."""
    adjacency: dict = {}
    for e in view.graph.edges():
        if not e.kinds & view.kinds:
            continue
        adjacency.setdefault(e.device_a, set()).add(e.device_b)
        adjacency.setdefault(e.device_b, set()).add(e.device_a)
    out = {}
    unseen = set(adjacency)
    while unseen:
        root = unseen.pop()
        component = {root}
        queue = [root]
        while queue:
            u = queue.pop()
            for v in adjacency[u]:
                if v not in component:
                    component.add(v)
                    queue.append(v)
        unseen -= component
        owners = frozenset(view.graph.devices[d].owner for d in component)
        if len(owners) > 1:
            out.update(dict.fromkeys(component, owners))
    return out


def oracle_relay_table(graph, kinds, source_device, horizon, ttl) -> list:
    """(receiver, previous hop, hop) of a token flood, in the order the
    receivers are recorded: a FIFO breadth-first search over sorted
    neighbour tuples built from the raw edge list.

    The source always sends; any other holder at hop h forwards iff
    0 < h < ttl and h <= horizon[holder]. Each neighbour is taken in
    sorted order and recorded once, from the first holder that reaches it."""
    kinds = set(kinds)
    neighbours: dict = {}
    for e in graph.edges():
        if e.kinds & kinds:
            neighbours.setdefault(e.device_a, set()).add(e.device_b)
            neighbours.setdefault(e.device_b, set()).add(e.device_a)
    neighbours = {d: tuple(sorted(vs)) for d, vs in neighbours.items()}
    table: dict = {}
    queue = deque([(source_device, 0)])
    while queue:
        holder, hop = queue.popleft()
        if hop >= ttl or (hop and hop > horizon[holder]):
            continue
        for n in neighbours.get(holder, ()):
            if n != source_device and n not in table:
                table[n] = (holder, hop + 1)
                queue.append((n, hop + 1))
    return [(n, prev, hop) for n, (prev, hop) in table.items()]


def _held_cosine(a: frozenset, b: frozenset) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / math.sqrt(len(a) * len(b))


def oracle_cior_pairs(sources, graph, kinds, profiles, decisions, interest, ttl,
                      sim_threshold=0.5, origin_device="mobile") -> set:
    """Owner pairs (a, b), a < b, that a C-IOR round links: each origin
    device of each source with a non-empty profile floods (`oracle_flood`),
    and a receiver's owner links to the source iff it is another owner who
    holds `interest` and whose profile has cosine similarity at least
    `sim_threshold` to the source's. The similarity gate is a table over
    all pairs of profiles."""
    gate = {(u, v): _held_cosine(p.held, q.held) >= sim_threshold
            for u, p in profiles.items() for v, q in profiles.items()}
    adjacency = _kind_adjacency(graph, kinds)
    pairs = set()
    for user in set(sources):
        if user not in profiles or not profiles[user].held:
            continue
        for dev in graph.devices.values():
            if dev.owner != user or (origin_device != "both" and dev.kind != MOBILE):
                continue
            for receiver in _flood_levels(adjacency, dev.device_id, decisions, ttl):
                owner = graph.devices[receiver].owner
                if (owner != user and owner in profiles
                        and interest in profiles[owner].held and gate[(owner, user)]):
                    pairs.add((min(user, owner), max(user, owner)))
    return pairs


def partner_sets(pairs) -> dict:
    """The symmetric partner map of owner pairs, as a C-IOR round returns
    it: each owner in a pair mapped to the set of owners paired with it."""
    partners: dict = {}
    for a, b in pairs:
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    return partners


class _Decisions:
    """One replicate's cooperation under one probability vector per draw
    kind: each decision hashes its own key with `rng.unit_draw` and compares
    the draw with the vector's entry for the hop (the last entry past its
    end)."""

    def __init__(self, seed, replicate, auth_vec, spread_vec):
        self.seed, self.replicate = seed, replicate
        self.vectors = {"auth": auth_vec, "spread": spread_vec}

    def _cooperates(self, kind, entity, hop):
        vec = self.vectors[kind]
        draw = rng.unit_draw(self.seed, self.replicate, kind, entity)
        return draw < vec[min(hop, len(vec)) - 1]

    def authorizes(self, node, hop):
        return self._cooperates("auth", node, hop)

    def forwards(self, device, hop):
        return self._cooperates("spread", device, hop)


def _owner_contacts(graph, kinds) -> dict:
    """Each owner's set of other owners whose devices share an edge of one
    of `kinds` with its own, from the raw edge list."""
    owner = {d: dev.owner for d, dev in graph.devices.items()}
    contacts: dict = {}
    for e in graph.edges():
        a, b = owner[e.device_a], owner[e.device_b]
        if e.kinds & set(kinds) and a != b:
            contacts.setdefault(a, set()).add(b)
            contacts.setdefault(b, set()).add(a)
    return contacts


def oracle_campaign(scenario, config) -> str:
    """The `results.csv` text of a campaign, every run from first
    principles: no memo, group, relabelling or worker pool.

    The sweep points and their labels come from `config.sweep_points()`.
    For each replicate, point, mode and source, in that order, decisions
    are `rng.unit_draw(seed, replicate, kind, entity)` compared hop by hop
    with the point's vectors; an enhanced mode adds the kind view's owner
    contacts and, with `cior`, the owner pairs of `oracle_cior_pairs`; reach
    is `oracle_reach`."""
    friends = {u: set() for u in scenario.friendships.nodes}
    for a, b in scenario.friendships.edges():
        friends[a].add(b)
        friends[b].add(a)
    holders = {u for u, p in scenario.profiles.items()
               if config.interest in p.held and u in friends}
    connected = {u for u, vs in friends.items() if vs}
    connected |= set(_owner_contacts(scenario.siot, set(RelationshipKind)))
    isolated = set(friends) - connected
    sources = sorted(holders)
    if config.sources != "all" and int(config.sources) < len(sources):
        sources = sorted(rng.stream(config.seed, "sources", config.interest)
                         .sample(sources, int(config.sources)))
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["campaign", "interest", "mode", "kinds", "sweep_var",
                  "sweep_value", "replicate", "source", "reached",
                  "denominator", "irn_pct", "mean_hops"])
    for r in range(config.replicates):
        for point in config.sweep_points():
            decisions = _Decisions(config.seed, r, point.policy.auth_prob_per_hop,
                                   point.policy.spread_prob_per_hop)
            for mode in config.modes:
                extra, label = None, ""
                if mode == "enhanced":
                    kinds = point.kinds - {RelationshipKind.CIOR}
                    extra = _owner_contacts(scenario.siot, kinds)
                    labels = sorted(k.value for k in kinds)
                    if config.cior:
                        labels.append(RelationshipKind.CIOR.value)
                        for a, b in oracle_cior_pairs(
                                sources=holders, graph=scenario.siot, kinds=kinds,
                                profiles=scenario.profiles, decisions=decisions,
                                interest=config.interest, ttl=point.ttl,
                                sim_threshold=config.sim_threshold,
                                origin_device=config.origin_device):
                            extra.setdefault(a, set()).add(b)
                            extra.setdefault(b, set()).add(a)
                    label = "+".join(labels)
                for source in sources:
                    _, best = oracle_reach(source, friends, decisions.authorizes,
                                           point.max_hops, holders, extra)
                    eligible = holders - {source}
                    if not config.include_isolated:
                        eligible -= isolated
                    pct = 100.0 * len(best) / len(eligible) if eligible else 0.0
                    mean = sum(best.values()) / len(best) if best else None
                    out.writerow([config.campaign, config.interest, mode, label,
                                  point.var, point.value, r, source, len(best),
                                  len(eligible), f"{pct:.6g}",
                                  "" if mean is None else f"{mean:.6g}"])
    return buf.getvalue()
