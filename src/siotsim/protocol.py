"""Anonymous co-interest link establishment between devices.

A source device floods an anonymized copy of its owner's interest profile
over the device graph with a bounded time-to-live. Receivers that find the
profile similar enough, and that hold the target interest, send an
establishment request backwards along the relay chain; each intermediary
knows only the previous hop, so the source stays anonymous until the
request arrives and the direct co-interest edge is created.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .humangraph import AuthorizationMap
from .interests import (DEFAULT_SIMILARITY_THRESHOLD, InterestDescriptor,
                        cosine_similarity)
from .siotgraph import MOBILE, RelationshipKind, SIoTGraph, SIoTView

DEFAULT_TTL = 6

# profile of an owner with no recorded interests
_NO_PROFILE = InterestDescriptor.empty()

ORIGIN_MOBILE = "mobile"
ORIGIN_BOTH = "both"


@dataclass(frozen=True)
class VuipToken:
    """An in-flight interest profile. The payload carries no owner
    identifier; receivers can correlate deliveries only via token_id."""

    token_id: str
    payload: InterestDescriptor
    ttl: int

    def __post_init__(self) -> None:
        if self.payload.owner is not None:
            raise ValueError("token payload must be anonymized")
        if self.ttl < 0:
            raise ValueError("ttl must be >= 0")


@dataclass
class PropagationTrace:
    token_id: str
    source_device: str
    # receiver -> previous hop
    records: dict[str, str] = field(default_factory=dict, init=False)
    hops: dict[str, int] = field(default_factory=dict, init=False)


class Walk(NamedTuple):
    """A request walked back to the source: the owner pair it links, in
    sorted order, and the length of the walk."""

    owners: tuple[str, str]
    walk_length: int


# What the C-IOR rounds of one campaign share: each kind set's plan, the
# floods its view can start as (source owner, origin devices, anonymised
# payload, candidate owners) in source order; sources of one class share
# a candidate set, which holds them. It holds no draw, so the campaign's
# replicates and sweep points can share it.
RoundMemo = dict[frozenset[RelationshipKind],
                 list[tuple[str, tuple[str, ...], InterestDescriptor, frozenset[str]]]]


def propagate_vuip(source_device: str, view: SIoTView, token: VuipToken,
                   horizon: Mapping[str, int]) -> PropagationTrace:
    """Flood the token breadth-first from the source device.

    The source always sends to all its first social neighbors. Any other
    device forwards only while the token has remaining hops and the hop
    where it received the token is within its forwarding horizon, read
    from `horizon` (see `AuthorizationMap.spread_horizons`). Each device
    receives and evaluates a token at most once.

    The search runs level by level over the neighbour bitmasks of the
    source's `SIoTView.component`, whose bits follow sorted device ids: a
    holder records its new neighbours in sorted order, as a breadth-first
    search over sorted neighbour lists does.
    """
    if token.ttl < 1:
        raise ValueError("propagation needs ttl >= 1")
    if source_device not in view.graph.devices:
        raise ValueError(f"unknown source device: {source_device!r}")
    trace = PropagationTrace(token.token_id, source_device)
    component = view.component(source_device)
    if component is None:
        return trace
    _, bit_of, ids, masks = component
    records, hops = trace.records, trace.hops
    frontier = [bit_of[source_device]]
    seen = 1 << frontier[0]
    for hop in range(token.ttl):
        reached = []
        for bit in frontier:
            holder = ids[bit]
            if hop and hop > horizon[holder]:  # hop 0 is the source
                continue
            fresh = masks[bit] & ~seen
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                receiver = low.bit_length() - 1
                records[ids[receiver]] = holder
                hops[ids[receiver]] = hop + 1
                reached.append(receiver)
        if not reached:
            break
        frontier = reached
    return trace


def candidate_owners(payload: InterestDescriptor,
                     profiles: Mapping[str, InterestDescriptor], interest: int,
                     sim_threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
                     ) -> frozenset[str]:
    """The similarity gate of `payload`'s held set: every owner who holds
    `interest` and whose profile's cosine similarity to the payload
    reaches `sim_threshold` (inclusive), a source of that set included."""
    return frozenset(owner for owner, own in profiles.items()
                     if interest in own.held
                     and cosine_similarity(own, payload) >= sim_threshold)


def evaluate_candidates(trace: PropagationTrace, graph: SIoTGraph,
                        candidates: Iterable[str]) -> list[str]:
    """Return the ids of the receiving devices that request a co-interest
    link, in receiver (sorted id) order: those whose owner is one of the
    distinct `candidates` (see `candidate_owners`). Only the candidates'
    devices are looked up in the relay table, not every receiver."""
    records, owned = trace.records, graph.owner_devices
    return sorted(d for o in candidates for d in owned.get(o, ()) if d in records)


def backpropagate(requester: str, trace: PropagationTrace,
                  graph: SIoTGraph) -> Walk:
    """Walk a request back along the relay chain to the source and return
    the owner pair it links.

    The flood is breadth-first, so every relay entry points one hop closer
    to the source and the walk back takes as many steps as the requester's
    hop."""
    if requester not in trace.records:
        raise RuntimeError(f"no relay chain for {requester!r}")
    a = graph.devices[trace.source_device].owner
    b = graph.devices[requester].owner
    return Walk((a, b) if a < b else (b, a), trace.hops[requester])


def _plan(sources: Iterable[str], graph: SIoTGraph, view: SIoTView,
          profiles: Mapping[str, InterestDescriptor], interest: int,
          sim_threshold: float, origin_device: str,
          ) -> list[tuple[str, tuple[str, ...], InterestDescriptor, frozenset[str]]]:
    """The floods of a round over `view` that can request, as a
    `RoundMemo` entry holds them.

    A device floods only if its component in the view
    (`SIoTView.component`) holds an owner, other than the source owner,
    who holds `interest`; the holders of each component are listed once.
    A source's candidates are its held set's gate (`candidate_owners`)
    among the holders of its flooding devices' components, one set per
    (held set, holders) and shared. Neither narrowing changes a pair: a
    flood never leaves its component, and only the interest's holders request."""
    component_holders: dict[frozenset[str], frozenset[str]] = {}
    gates: dict[frozenset[int], frozenset[str]] = {}
    shared: dict[tuple[frozenset[int], frozenset[str]], frozenset[str]] = {}
    plan = []
    for user in sorted(set(sources)):
        own = profiles.get(user)
        if own is None or not own.held:
            continue
        origins = []
        reachable: set[str] = set()
        for dev in graph.owner_devices.get(user, ()):
            if origin_device == ORIGIN_MOBILE and graph.devices[dev].kind != MOBILE:
                continue
            component = view.component(dev)
            if component is None:
                continue
            owners = component.owners
            held = component_holders.get(owners)
            if held is None:
                held = component_holders[owners] = frozenset(
                    o for o in owners if interest in profiles.get(o, _NO_PROFILE).held)
            if held - {user}:
                origins.append(dev)
                reachable |= held
        if origins:
            key = (own.held, frozenset(reachable))
            if key not in shared:
                if own.held not in gates:
                    gates[own.held] = candidate_owners(own, profiles, interest, sim_threshold)
                shared[key] = gates[own.held] & key[1]
            plan.append((user, tuple(origins), own.anonymized(), shared[key]))
    return plan


def run_cior_round(sources: Iterable[str], graph: SIoTGraph,
                   kinds: Iterable[RelationshipKind],
                   profiles: Mapping[str, InterestDescriptor],
                   decisions: AuthorizationMap, interest: int,
                   ttl: int = DEFAULT_TTL,
                   sim_threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
                   origin_device: str = ORIGIN_MOBILE,
                   memo: RoundMemo | None = None) -> dict[str, set[str]]:
    """Run one full establishment round and return its partner map: each
    owner its requests link, mapped to the owners linked to it (symmetric).

    Every source user's origin device(s) propagate in turn over the
    selected-kind view of the base graph, which the round leaves unchanged.
    Only the floods that can request start (see `_plan`); token ids and
    forwarding horizons are keyed draws, so a skipped flood changes no
    other. A receiver requests iff its owner is a candidate of the source
    owner (`candidate_owners`), not the source owner nor yet paired with
    it in this round, and only the first requesting device of each owner,
    in receiver order, is walked back: a skipped request could only link a
    pair the round holds. `memo` shares each kind set's plan with the
    other rounds of one campaign, whose graph, sources, profiles,
    interest, threshold and origin setting are fixed. Deterministic for a
    fixed decision map. A TTL below 1 or a threshold outside [0, 1] fails.
    """
    if origin_device not in (ORIGIN_MOBILE, ORIGIN_BOTH):
        raise ValueError(f"bad origin_device: {origin_device!r}")
    if ttl < 1 or not 0.0 <= sim_threshold <= 1.0:  # NaN fails the second test
        raise ValueError(f"need ttl >= 1 and sim_threshold in [0, 1]: {ttl}, {sim_threshold}")
    if memo is None:
        memo = {}
    view = graph.select_kinds(kinds)
    plan = memo.get(view.kinds)
    if plan is None:
        plan = memo[view.kinds] = _plan(sources, graph, view, profiles, interest,
                                        sim_threshold, origin_device)
    horizon = decisions.spread_horizons()
    linked: dict[str, set[str]] = {}  # owner -> owners paired with it so far
    for user, origins, payload, candidates in plan:
        done = linked.setdefault(user, set())
        for dev in origins:
            token = VuipToken(decisions.draws.tokens[dev], payload, ttl)
            trace = propagate_vuip(dev, view, token, horizon)
            for requester in evaluate_candidates(trace, graph,
                                                 candidates.difference(done, (user,))):
                if graph.devices[requester].owner not in done:
                    a, b = backpropagate(requester, trace, graph).owners
                    linked.setdefault(a, set()).add(b)
                    linked.setdefault(b, set()).add(a)
    return {owner: partners for owner, partners in linked.items() if partners}
