"""Anonymous co-interest link establishment between devices.

A source device floods an anonymized copy of its owner's interest profile
over the device graph with a bounded time-to-live. Receivers that find the
profile similar enough, and that hold the target interest, send an
establishment request backwards along the relay chain; each intermediary
knows only the previous hop, so the source stays anonymous until the
request arrives and the direct co-interest edge is created.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

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
    records: dict[str, str] = field(default_factory=dict)  # receiver -> previous hop
    hops: dict[str, int] = field(default_factory=dict)

    def receivers(self) -> list[str]:
        return sorted(self.records)


@dataclass(frozen=True)
class CiorEdge:
    source_device: str
    requester_device: str
    interests: frozenset[int]
    walk_length: int


def propagate_vuip(source_device: str, view: SIoTView, token: VuipToken,
                   horizon: Mapping[str, int]) -> PropagationTrace:
    """Flood the token breadth-first from the source device.

    The source always sends to all its first social neighbors. Any other
    device forwards only while the token has remaining hops and the hop
    where it received the token is within its forwarding horizon, read
    from `horizon` (see `AuthorizationMap.spread_horizons`). Each device
    receives and evaluates a token at most once.
    """
    if token.ttl < 1:
        raise ValueError("propagation needs ttl >= 1")
    if source_device not in view.graph.devices:
        raise ValueError(f"unknown source device: {source_device!r}")
    trace = PropagationTrace(token.token_id, source_device)
    queue: deque[tuple[str, int]] = deque([(source_device, 0)])
    while queue:
        holder, hop = queue.popleft()
        if hop >= token.ttl:
            continue
        if hop and hop > horizon[holder]:  # hop 0 is the source
            continue
        for neighbor in view.neighbors(holder):
            if neighbor in trace.records or neighbor == source_device:
                continue
            trace.records[neighbor] = holder
            trace.hops[neighbor] = hop + 1
            queue.append((neighbor, hop + 1))
    return trace


def evaluate_candidates(trace: PropagationTrace, graph: SIoTGraph,
                        profiles: Mapping[str, InterestDescriptor],
                        token: VuipToken, interest: int,
                        sim_threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
                        ) -> list[str]:
    """Return the ids of the receiving devices that request a co-interest
    link, in receiver order.

    A receiver requests iff the cosine similarity between its owner's
    profile and the token payload reaches `sim_threshold` (inclusive) and
    its owner holds `interest`. The source owner's own devices never
    request.
    """
    source_owner = graph.devices[trace.source_device].owner
    requests: list[str] = []
    for holder in trace.receivers():
        owner = graph.devices[holder].owner
        if owner == source_owner:
            continue
        own = profiles.get(owner, _NO_PROFILE)
        if cosine_similarity(own, token.payload) < sim_threshold:
            continue
        if interest not in own.held:
            continue
        requests.append(holder)
    return requests


def backpropagate(requester: str, trace: PropagationTrace,
                  graph: SIoTGraph,
                  profiles: Mapping[str, InterestDescriptor]) -> CiorEdge:
    """Return the edge a request establishes back along the relay chain to
    the source, annotated with the shared interests of the two owners.

    The flood is breadth-first, so every relay entry points one hop closer
    to the source and the walk back takes as many steps as the requester's
    hop."""
    if requester not in trace.records:
        raise RuntimeError(f"no relay chain for {requester!r}")
    source_owner = graph.devices[trace.source_device].owner
    requester_owner = graph.devices[requester].owner
    shared = (profiles.get(source_owner, _NO_PROFILE).held
              & profiles.get(requester_owner, _NO_PROFILE).held)
    return CiorEdge(trace.source_device, requester, frozenset(shared),
                    trace.hops[requester])


def run_cior_round(sources: Iterable[str], graph: SIoTGraph,
                   kinds: Iterable[RelationshipKind],
                   profiles: Mapping[str, InterestDescriptor],
                   decisions: AuthorizationMap, interest: int,
                   ttl: int = DEFAULT_TTL,
                   sim_threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
                   origin_device: str = ORIGIN_MOBILE) -> list[CiorEdge]:
    """Run one full establishment round and return the established
    co-interest edges, one per request, in source order.

    Every source user's origin device(s) propagate in turn over the
    selected-kind view of the base graph, which the round leaves unchanged.
    A device floods only if its component in the view (`SIoTView.components`)
    holds an owner, other than the source owner, who holds `interest`; the
    holders of each component are listed once per round. Skipping the
    other floods changes no edge: a flood never leaves its component, and
    `evaluate_candidates` turns away the source owner's devices and every
    owner without the interest. Token ids and forwarding horizons are
    keyed draws, so a skipped flood changes no other. A token id is drawn,
    and each owner's anonymised payload built once, only for floods that
    start. Deterministic for a fixed decision map.
    """
    if origin_device not in (ORIGIN_MOBILE, ORIGIN_BOTH):
        raise ValueError(f"bad origin_device: {origin_device!r}")
    view = graph.select_kinds(kinds)
    components = view.components()
    component_holders: dict[frozenset[str], frozenset[str]] = {}
    horizon = decisions.spread_horizons()
    established: list[CiorEdge] = []
    for user in sorted(set(sources)):
        own = profiles.get(user)
        if own is None or not own.held:
            continue
        origins = []
        for dev in graph.owner_devices.get(user, ()):
            owners = components.get(dev)
            if owners is None or (origin_device == ORIGIN_MOBILE
                                  and graph.devices[dev].kind != MOBILE):
                continue
            held = component_holders.get(owners)
            if held is None:
                held = component_holders[owners] = frozenset(
                    o for o in owners if interest in profiles.get(o, _NO_PROFILE).held)
            if held - {user}:
                origins.append(dev)
        if not origins:
            continue
        payload = own.anonymized()
        for dev in origins:
            token = VuipToken(decisions.draws.tokens[dev], payload, ttl)
            trace = propagate_vuip(dev, view, token, horizon)
            for requester in evaluate_candidates(trace, graph, profiles, token,
                                                 interest, sim_threshold):
                established.append(backpropagate(requester, trace, graph, profiles))
    return established
