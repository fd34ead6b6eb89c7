"""Human social layer: friendships, per-hop authorization decisions and
interest-community reachability.

Discovery follows the contacts-of-contacts rule: a search expands through a
node's contact list only if that node authorizes access to it. Interested
nodes that were reached relaunch the search as sources of their own, and
the community of an interest is the fixed point of that relaunch process.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Mapping

from . import rng

DEFAULT_MAX_HOPS = 4


def sorted_adjacency(pairs: Iterable[tuple[str, str]]) -> dict[str, tuple[str, ...]]:
    """Undirected adjacency of the pairs, each neighbour listed once, in
    sorted order. Lists gather the neighbours; a node's are deduplicated
    only as its tuple is built, so no hash set per node is held."""
    adj: dict[str, list[str]] = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return {u: tuple(sorted(set(vs))) for u, vs in adj.items()}


def component_members(adjacency: Mapping[str, Iterable[str]], start: str) -> set[str]:
    """The nodes connected to `start` in `adjacency`, `start` included,
    found by one walk."""
    members = {start}
    stack = [start]
    while stack:
        for neighbor in adjacency[stack.pop()]:
            if neighbor not in members:
                members.add(neighbor)
                stack.append(neighbor)
    return members


class FriendshipGraph:
    """Undirected friendship graph without self-loops, built once from its
    users and friend pairs and never changed.

    `adjacency` maps every node, the pairs' endpoints included, to its
    sorted neighbour tuple, `()` for a node without a friend. It is shared
    by every caller and must not be mutated."""

    def __init__(self, users: Iterable[str], pairs: Iterable[tuple[str, str]]) -> None:
        pairs = list(pairs)
        for a, b in pairs:
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
        self.adjacency: dict[str, tuple[str, ...]] = dict.fromkeys(users, ())
        self.adjacency.update(sorted_adjacency(pairs))

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.adjacency)

    def edges(self) -> list[tuple[str, str]]:
        return sorted((a, b) for a, nbrs in self.adjacency.items() for b in nbrs if a < b)

    def degree(self, u: str) -> int:
        return len(self.adjacency.get(u, ()))


def _validate_probs(name: str, probs: tuple[float, ...]) -> None:
    if not probs:
        raise ValueError(f"{name} must be non-empty")
    if any(not 0.0 <= p <= 1.0 for p in probs):
        raise ValueError(f"{name} values must be in [0, 1]: {probs}")
    if any(probs[i] < probs[i + 1] for i in range(len(probs) - 1)):
        # cooperation must not grow with social distance, otherwise the
        # coupled-randomness dominance guarantees break sample-wise
        raise ValueError(f"{name} must be non-increasing per hop: {probs}")


@dataclass(frozen=True)
class AuthorizationPolicy:
    """Per-hop cooperation probabilities, indexed by hop distance 1..H.

    `auth_prob_per_hop` governs access to a node's contact list during
    discovery; `spread_prob_per_hop` governs forwarding of interest
    profiles during protocol propagation. Hops beyond the end of a list
    use its last entry. Both vectors must be non-increasing.
    """

    auth_prob_per_hop: tuple[float, ...] = (1.0,)
    spread_prob_per_hop: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "auth_prob_per_hop", tuple(self.auth_prob_per_hop))
        object.__setattr__(self, "spread_prob_per_hop", tuple(self.spread_prob_per_hop))
        _validate_probs("auth_prob_per_hop", self.auth_prob_per_hop)
        _validate_probs("spread_prob_per_hop", self.spread_prob_per_hop)

    def auth_at(self, hop: int) -> float:
        if hop < 1:
            raise ValueError(f"hop index must be >= 1, got {hop}")
        return self.auth_prob_per_hop[min(hop, len(self.auth_prob_per_hop)) - 1]

    def spread_at(self, hop: int) -> float:
        if hop < 1:
            raise ValueError(f"hop index must be >= 1, got {hop}")
        return self.spread_prob_per_hop[min(hop, len(self.spread_prob_per_hop)) - 1]


def cooperates(draw: float, prob: float) -> bool:
    """A draw in [0, 1) cooperates at probability `prob` iff draw < prob,
    so raising the probability never un-cooperates an entity."""
    return draw < prob


# hop horizon of an entity that cooperates at every hop
UNBOUNDED = sys.maxsize


def _horizon(cooperates_at: Callable[[str, int], bool], entity: str,
             hops: int) -> int:
    """The hop horizon K of `entity` under a non-increasing vector of `hops`
    probabilities: it cooperates at hops 1..K and at no later hop. K is
    UNBOUNDED when it cooperates at the last hop, tested first: every later
    hop reuses its probability and no earlier one is lower. Otherwise K is
    the number of leading hops at which it cooperates."""
    if cooperates_at(entity, hops):
        return UNBOUNDED
    for hop in range(1, hops):
        if not cooperates_at(entity, hop):
            return hop - 1
    return hops - 1


@dataclass(frozen=True)
class AuthorizationMap:
    """One replicate's cooperation decisions under one policy: the
    replicate's draw table paired with the policy.

    The decision at hop k compares an entity's draw with the policy's hop-k
    probability (`authorizes`, `forwards`). Because each vector is
    non-increasing, the hops at which an entity cooperates are a prefix
    1..K of all hops, so the searches read the horizon K from a mapping
    made by `auth_horizons` or `spread_horizons` and compare `hop <= K`.
    The draws are shared by every mode and sweep point of the replicate,
    so the same entity never flip-flops within it.
    """

    draws: rng.DrawTable
    policy: AuthorizationPolicy

    def authorizes(self, node: str, hop: int) -> bool:
        return cooperates(self.draws.auth[node], self.policy.auth_at(hop))

    def forwards(self, entity: str, hop: int) -> bool:
        return cooperates(self.draws.spread[entity], self.policy.spread_at(hop))

    def auth_horizons(self) -> Mapping[str, int]:
        """Node -> authorization horizon, each computed from `authorizes`
        on its first lookup."""
        hops = len(self.policy.auth_prob_per_hop)
        return rng.LazyDict(lambda node: _horizon(self.authorizes, node, hops))

    def spread_horizons(self) -> Mapping[str, int]:
        """Entity -> forwarding horizon, each computed from `forwards` on
        its first lookup."""
        hops = len(self.policy.spread_prob_per_hop)
        return rng.LazyDict(lambda entity: _horizon(self.forwards, entity, hops))


# A pass's holders by hop: layer k - 1 holds those first seen at hop k.
Layers = tuple[frozenset[str], ...]
# Friendship passes by (launcher, expand_holders); see `ReachContext`.
PassMemo = dict[tuple[str, bool], Layers]


@dataclass
class ReachContext:
    """Shared state for reachability runs over one fixed configuration.

    `adjacency` maps node -> sorted contact tuple, `holders` is the set of
    nodes holding the interest and `horizon` maps each node to its hop
    horizon K: it authorizes access to its contacts at hops 1..K only (see
    `AuthorizationMap`).
    `extra_contacts` adds each node's own device-layer contacts (one hop,
    no authorization needed); it is empty where there are none.

    A relaunch pass of a launcher holds, by hop, the nodes its discovery
    pass sees when the pass stops at each holder instead of expanding it
    (`interest_reach` says why that loses nothing): its `extra_contacts`
    entry itself at hop 1, non-holders included, and its friendship
    layers. It copies neither. The friendship layers do not depend on the
    original source, so they are memoized in `passes` under (launcher,
    False), beside each source's full friendship pass under (source,
    True). Contexts with the same adjacency, holders, horizons and
    `max_hops` may share `passes`. A context adds each pass it computes
    and never takes one out: the owner of the dict decides how long the
    passes live.
    """

    adjacency: Mapping[str, tuple[str, ...]]
    holders: frozenset[str]
    horizon: Mapping[str, int]
    max_hops: int = DEFAULT_MAX_HOPS
    extra_contacts: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    passes: PassMemo = field(default_factory=dict)

    @staticmethod
    def for_graph(graph: FriendshipGraph, holders: Iterable[str],
                  auth: AuthorizationMap, max_hops: int = DEFAULT_MAX_HOPS,
                  extra_contacts: Mapping[str, tuple[str, ...]] = MappingProxyType({}),
                  passes: PassMemo | None = None) -> "ReachContext":
        return ReachContext(graph.adjacency, frozenset(holders),
                            auth.auth_horizons(), max_hops, extra_contacts,
                            {} if passes is None else passes)


def _hop_layers(ctx: ReachContext, start: str, expand_holders: bool) -> Layers:
    """The holders a friendship search launched by `start` sees, by hop.

    The launcher always uses its own contact list; any other node reached
    at hop k expands only if k is within its authorization horizon and,
    unless `expand_holders` is set, it does not hold the interest."""
    adjacency, horizon, holders = ctx.adjacency, ctx.horizon, ctx.holders
    seen = {start}
    expanding = [start]
    layers = []
    for hop in range(1, ctx.max_hops + 1):
        reached: set[str] = set()
        for u in expanding:
            reached.update(adjacency.get(u, ()))
        reached -= seen
        if not reached:
            break
        seen |= reached
        found = holders.intersection(reached)
        layers.append(found)
        if hop < ctx.max_hops:
            if not expand_holders:
                reached -= found
            expanding = [u for u in reached if hop <= horizon[u]]
    return tuple(layers)


def _friendship_pass(ctx: ReachContext, start: str) -> Layers:
    """The friendship part of `start`'s relaunch pass: its hop layers,
    stopping at holders."""
    return _hop_layers(ctx, start, expand_holders=False)


def _device_contacts(ctx: ReachContext, start: str) -> frozenset[str]:
    """The holders among the launcher's device-layer contacts."""
    return ctx.holders.intersection(ctx.extra_contacts.get(start, ())) - {start}


def _discover_from(ctx: ReachContext, start: str) -> tuple[Collection[str], Layers]:
    """The relaunch pass of `start`: its `extra_contacts` entry, sent at hop
    1, and its friendship layers, memoized in `passes`. Neither is a copy."""
    layers = ctx.passes.get((start, False))
    if layers is None:
        layers = ctx.passes[start, False] = _friendship_pass(ctx, start)
    return ctx.extra_contacts.get(start, ()), layers


def interest_reach(source: str, ctx: ReachContext) -> tuple[dict[str, int], dict[str, int]]:
    """Full reach of `source` for the context's interest.

    Returns (direct, best): `direct` maps the interested nodes found by the
    source's own discovery pass to their hop distance; `best` maps every
    interested node reached after relaunches to its minimum cumulative hop
    distance, the fixed point of the relaunch process.

    The search relaunches each reached holder through its relaunch pass,
    which stops at every holder it reaches. That loses nothing: a holder h
    seen at hop k relaunches with hop 1 again and a fresh budget of
    `max_hops`, so a node its launcher would see through h at hop k + j is
    reached through h's relaunch within j more hops. h's pass sees each
    node on that way k hops sooner than the launcher's did, a horizon that
    admits a hop admits every earlier one, and a holder further on the way
    relaunches in turn. So the fixed point over relaunch passes is the
    fixed point over full discovery passes.

    Every hop count is a small integer, so the search settles one level of
    cumulative hops at a time (Dial's bucket search). It starts from the
    source's own full pass, and a holder settled at level d then sends
    each layer of its relaunch pass at hop k to level d + k. A level's
    bucket is the union of the layers sent to it, cut to the holders not
    settled yet (a contact layer loses its non-holders and settled
    launchers); once none is left, the search ends. The bucket's nodes
    enter `best` in sorted order, so `best` does not depend on the order
    of set iteration.
    """
    if source not in ctx.adjacency and source not in ctx.extra_contacts:
        raise ValueError(f"unknown source node: {source!r}")
    full = ctx.passes.get((source, True))
    if full is None:
        full = ctx.passes[source, True] = _hop_layers(ctx, source, expand_holders=True)
    contacts = _device_contacts(ctx, source)
    direct = {n: hop for hop, layer in enumerate(full, 1) for n in sorted(layer)}
    direct.update(dict.fromkeys(sorted(contacts), 1))
    remaining = set(ctx.holders)  # not settled yet
    remaining.discard(source)
    best: dict[str, int] = {}
    # level -> the layers sent to it, first those of the source's own pass
    incoming = {hop: [layer] for hop, layer in enumerate(full, 1) if layer}
    if contacts:
        incoming.setdefault(1, []).append(contacts)
    while incoming and remaining:
        level = min(incoming)
        bucket: set[str] = set()
        for layer in incoming.pop(level):
            if not remaining.isdisjoint(layer):
                found = remaining.intersection(layer)
                remaining -= found
                bucket |= found
                if not remaining:
                    break
        if not bucket:
            continue
        settled = sorted(bucket)
        best.update(dict.fromkeys(settled, level))
        if remaining:
            for r in settled:
                contacts, layers = _discover_from(ctx, r)
                if contacts:
                    incoming.setdefault(level + 1, []).append(contacts)
                for hop, layer in enumerate(layers, level + 1):
                    if layer:
                        incoming.setdefault(hop, []).append(layer)
    return direct, best


# --- connected components ----------------------------------------------------

def giant_component_pct(nodes: Iterable[str],
                        edges: Iterable[tuple[str, str]]) -> float:
    """Percentage of `nodes` inside the largest connected component of the
    graph restricted to `nodes`. Edges with endpoints outside the node set
    are ignored."""
    node_set = set(nodes)
    if not node_set:
        raise ValueError("giant_component_pct: empty node set")
    adjacency = sorted_adjacency((a, b) for a, b in edges
                                 if a in node_set and b in node_set)
    largest, seen = 1, set()
    for u in adjacency:
        if u not in seen:
            members = component_members(adjacency, u)
            seen |= members
            largest = max(largest, len(members))
    return 100.0 * largest / len(node_set)
