from __future__ import annotations

import itertools
import math
import random

import pytest

from conftest import (clique_device_graph, fixed, fixed_horizon, make_devices,
                      mobile, profile, random_device_graph, random_nonincreasing,
                      token_for, trace_scenario)
from oracles import (oracle_cior_pairs, oracle_components, oracle_flood,
                     oracle_relay_table, partner_sets, siot_edges)
from siotsim import protocol
from siotsim.humangraph import AuthorizationMap, AuthorizationPolicy
from siotsim.protocol import (PropagationTrace, VuipToken, backpropagate,
                              candidate_owners, evaluate_candidates, propagate_vuip,
                              run_cior_round)
from siotsim.interests import InterestDescriptor, cosine_similarity
from siotsim.rng import DrawTable
from siotsim.siotgraph import BASE_KINDS, MOBILE, RelationshipKind, SIoTGraph


def chain_graph(n: int) -> SIoTGraph:
    users = [f"u{i}" for i in range(n)]
    g = SIoTGraph(make_devices(users))
    for u in users:
        g.add_edge(mobile(u), f"{u}:fixed", RelationshipKind.OOR)
    for i in range(n - 1):
        g.add_edge(mobile(users[i]), mobile(users[i + 1]), RelationshipKind.SOR)
    return g


def full_view(g: SIoTGraph):
    return g.select_kinds(BASE_KINDS)


def anon_token(ttl=6, held=(3,)) -> VuipToken:
    return token_for(profile("src", set(held)), "src-dev", ttl)


def test_token_payload_must_be_anonymous():
    with pytest.raises(ValueError):
        VuipToken("t", profile("named", {3}), 6)
    token = anon_token()
    assert token.payload.owner is None


def test_chain_respects_ttl_of_six():
    g = chain_graph(8)
    trace = propagate_vuip(mobile("u0"), full_view(g), anon_token(ttl=6),
                           fixed_horizon())
    mobile_hops = {h: trace.hops[h] for h in trace.hops if ":mobile" in h}
    assert mobile_hops == {mobile(f"u{i}"): i for i in range(1, 7)}
    assert mobile("u7") not in trace.hops
    assert max(trace.hops.values()) <= 6


def test_ttl_one_reaches_only_first_neighbors():
    g = chain_graph(4)
    trace = propagate_vuip(mobile("u0"), full_view(g), anon_token(ttl=1),
                           fixed_horizon())
    assert set(trace.records) == {mobile("u1"), "u0:fixed"}


def test_source_always_sends_even_when_nobody_forwards():
    g = chain_graph(4)
    trace = propagate_vuip(mobile("u0"), full_view(g), anon_token(ttl=6),
                           fixed_horizon(False))
    assert set(trace.records) == {mobile("u1"), "u0:fixed"}


def test_isolated_source_produces_empty_trace():
    g = SIoTGraph(make_devices(["solo"]))
    trace = propagate_vuip(mobile("solo"), full_view(g), anon_token(),
                           fixed_horizon())
    assert trace.records == {}


def test_each_device_receives_once():
    # diamond: u0 - u1/u2 - u3 plus a cycle edge
    users = [f"u{i}" for i in range(4)]
    g = SIoTGraph(make_devices(users))
    for a, b in [("u0", "u1"), ("u0", "u2"), ("u1", "u3"), ("u2", "u3")]:
        g.add_edge(mobile(a), mobile(b), RelationshipKind.SOR)
    trace = propagate_vuip(mobile("u0"), full_view(g), anon_token(),
                           fixed_horizon())
    assert len(trace.records) == len(set(trace.records))
    assert trace.hops[mobile("u3")] == 2
    # the previous hop of u3 is deterministic: the smaller neighbor id
    assert trace.records[mobile("u3")] == mobile("u1")


def round_candidates(source_owner, payload, profiles, interest):
    """The owners whose devices a round's flood from `source_owner`
    evaluates, before any is paired: its gate less the source owner."""
    return candidate_owners(payload, profiles, interest) - {source_owner}


def test_evaluate_similarity_and_interest_gate():
    g = chain_graph(3)
    profiles = {"u0": profile("u0", {3, 4, 6}),
                "u1": profile("u1", {4, 6, 7}),   # sim 2/3, holds nothing target
                "u2": profile("u2", {9})}         # disjoint
    token = token_for(profiles["u0"], mobile("u0"))
    trace = propagate_vuip(mobile("u0"), full_view(g), token, fixed_horizon())

    # u1 holds 4, so interest 4 passes and interest 3 fails; the source
    # owner passes its own gate, and a round leaves it out
    assert candidate_owners(token.payload, profiles, 4) == {"u0", "u1"}
    assert round_candidates("u0", token.payload, profiles, 4) == {"u1"}
    assert evaluate_candidates(trace, g, round_candidates(
        "u0", token.payload, profiles, interest=4)) == ["u1:fixed", mobile("u1")]
    assert evaluate_candidates(trace, g, round_candidates(
        "u0", token.payload, profiles, interest=3)) == []


def test_evaluate_identical_profile_requests():
    g = chain_graph(2)
    profiles = {"u0": profile("u0", {3}), "u1": profile("u1", {3})}
    token = token_for(profiles["u0"], mobile("u0"))
    trace = propagate_vuip(mobile("u0"), full_view(g), token, fixed_horizon())
    assert evaluate_candidates(trace, g, round_candidates(
        "u0", token.payload, profiles, interest=3)) == ["u1:fixed", mobile("u1")]


def test_evaluate_boundary_inclusive_at_exactly_half():
    g = chain_graph(2)
    profiles = {"u0": profile("u0", {1, 2}), "u1": profile("u1", {2, 3})}
    token = token_for(profiles["u0"], mobile("u0"))
    trace = propagate_vuip(mobile("u0"), full_view(g), token, fixed_horizon())
    assert evaluate_candidates(trace, g, round_candidates(
        "u0", token.payload, profiles, interest=2)) == ["u1:fixed", mobile("u1")]


def test_source_own_devices_never_request():
    g = chain_graph(2)
    profiles = {"u0": profile("u0", {3}), "u1": profile("u1", {3})}
    token = token_for(profiles["u0"], mobile("u0"))
    trace = propagate_vuip(mobile("u0"), full_view(g), token, fixed_horizon())
    assert "u0:fixed" in trace.records  # reached via the owner edge
    assert "u0" in candidate_owners(token.payload, profiles, 3)
    assert "u0:fixed" not in evaluate_candidates(
        trace, g, round_candidates("u0", token.payload, profiles, interest=3))
    # the round leaves the source owner out of its own gate
    out = run_cior_round(["u0", "u1"], g, BASE_KINDS, profiles, decisions(), 3)
    assert out == partner_sets({("u0", "u1")})


def test_evaluate_once_marks_every_receiver():
    g = chain_graph(5)
    profiles = {f"u{i}": profile(f"u{i}", {3}) for i in range(5)}
    token = token_for(profiles["u0"], mobile("u0"))
    trace = propagate_vuip(mobile("u0"), full_view(g), token, fixed_horizon())
    requests = evaluate_candidates(
        trace, g, round_candidates("u0", token.payload, profiles, interest=3))
    # every receiver is evaluated once: each one not owned by u0 requests
    # exactly once
    assert len(requests) == len(set(requests))
    assert set(requests) == {d for d in trace.records
                             if g.devices[d].owner != "u0"}


def test_backpropagate_walk_lengths():
    g = chain_graph(5)
    profiles = {f"u{i}": profile(f"u{i}", {3}) for i in range(5)}
    token = token_for(profiles["u0"], mobile("u0"))
    trace = propagate_vuip(mobile("u0"), full_view(g), token, fixed_horizon())

    walk3 = backpropagate(mobile("u3"), trace, g)
    assert walk3.walk_length == 3
    assert walk3.owners == ("u0", "u3")

    walk1 = backpropagate(mobile("u1"), trace, g)
    assert walk1.walk_length == 1
    assert walk1.owners == ("u0", "u1")


def test_backpropagate_rejects_unknown_requester():
    g = chain_graph(3)
    token = anon_token()
    trace = PropagationTrace(token.token_id, mobile("u0"))
    with pytest.raises(RuntimeError):
        backpropagate(mobile("u2"), trace, g)


def two_cliques_with_bridge():
    users = [f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)]
    g = SIoTGraph(make_devices(users))
    for side in ("a", "b"):
        for i in range(3):
            for j in range(i + 1, 3):
                g.add_edge(mobile(f"{side}{i}"), mobile(f"{side}{j}"),
                           RelationshipKind.SOR)
    g.add_edge(mobile("a0"), mobile("b0"), RelationshipKind.POR)
    profiles = {u: profile(u, {3}) for u in users}
    return g, users, profiles


def decisions(policy=None, seed=0, replicate=0) -> AuthorizationMap:
    policy = policy or AuthorizationPolicy((1.0,), (1.0,))
    return AuthorizationMap(DrawTable(seed, replicate), policy)


def test_round_with_no_similar_pairs_leaves_graph_unchanged():
    g, users, _ = two_cliques_with_bridge()
    base_edges = siot_edges(g)
    disjoint = {u: profile(u, {i}) for i, u in enumerate(sorted(users))}
    out = run_cior_round(users, g, RelationshipKind, disjoint, decisions(), 3)
    assert out == {}
    assert siot_edges(g) == base_edges


def test_round_bridges_two_cliques():
    g, users, profiles = two_cliques_with_bridge()
    base_edges = siot_edges(g)
    out = run_cior_round(users, g, RelationshipKind, profiles, decisions(), 3)
    pairs = {(a, b) for a, partners in out.items() for b in partners if a < b}
    assert pairs and out == partner_sets(pairs)
    cross = [(a, b) for a, b in pairs if a[0] != b[0]]
    assert cross  # at least one co-interest link spans the two communities
    for a, b in pairs:
        assert a < b and 3 in profiles[a].held and 3 in profiles[b].held
    assert g.kind_counts()[RelationshipKind.CIOR] == 0  # base graph untouched
    assert siot_edges(g) == base_edges


def test_round_can_originate_from_both_devices():
    users = ["a", "b"]
    g = SIoTGraph(make_devices(users))
    # only the fixed devices are linked, so a mobile-only origin finds nobody
    g.add_edge("a:fixed", "b:fixed", RelationshipKind.CLOR)
    base_edges = siot_edges(g)
    profiles = {u: profile(u, {3}) for u in users}
    mobile_only = run_cior_round(users, g, RelationshipKind, profiles,
                                 decisions(), 3, origin_device="mobile")
    assert mobile_only == {}
    both = run_cior_round(users, g, RelationshipKind, profiles,
                          decisions(), 3, origin_device="both")
    assert both == partner_sets({("a", "b")})
    assert siot_edges(g) == base_edges
    with pytest.raises(ValueError):
        run_cior_round(users, g, RelationshipKind, profiles, decisions(), 3,
                       origin_device="fixed")


@pytest.mark.parametrize("ttl, threshold", [
    (0, 0.5), (-1, 0.5), (6, 7.0), (6, -0.1), (6, 1.0000001), (6, math.nan)])
def test_round_rejects_a_bad_ttl_or_threshold_before_it_plans(monkeypatch, ttl,
                                                              threshold):
    """A TTL below 1 or a threshold outside [0, 1], NaN included, is an
    error before any plan is made, also when no flood would start."""
    g, users, profiles = two_cliques_with_bridge()
    planned = []
    monkeypatch.setattr(protocol, "_plan", lambda *args: planned.append(args))
    for sources in ([], users):
        with pytest.raises(ValueError, match="ttl >= 1 and sim_threshold in"):
            run_cior_round(sources, g, RelationshipKind, profiles, decisions(), 3,
                           ttl=ttl, sim_threshold=threshold)
    assert planned == []


def test_round_is_deterministic_and_seed_sensitive():
    g, users, profiles = two_cliques_with_bridge()
    base_edges = siot_edges(g)
    policy = AuthorizationPolicy((1.0,), (0.6, 0.5, 0.4, 0.3, 0.2, 0.1))
    first = run_cior_round(users, g, RelationshipKind, profiles,
                           decisions(policy, seed=1), 3)
    again = run_cior_round(users, g, RelationshipKind, profiles,
                           decisions(policy, seed=1), 3)
    assert first == again
    other_edges = [run_cior_round(users, g, RelationshipKind, profiles,
                                  decisions(policy, seed=s), 3)
                   for s in range(2, 12)]
    assert any(pairs != first for pairs in other_edges)
    assert siot_edges(g) == base_edges


def source_first_neighbors(graph: SIoTGraph, source_device: str) -> set[str]:
    view = graph.select_kinds(BASE_KINDS)
    return set(view.neighbors(source_device))


def assert_anonymity(trace, graph):
    source_dev = trace.source_device
    source_owner = graph.devices[source_dev].owner
    first = source_first_neighbors(graph, source_dev)
    for holder, previous_hop in trace.records.items():
        for field in (trace.token_id, previous_hop, trace.hops[holder]):
            if holder not in first:
                assert field != source_dev
                assert field != source_owner
        # the relay chain leads back to the source, one hop per entry
        assert trace.hops[holder] == trace.hops.get(previous_hop, 0) + 1
        assert (previous_hop == source_dev) == (trace.hops[holder] == 1)


def test_anonymity_audit_on_randomized_propagations():
    rnd = random.Random(909)
    for _ in range(40):
        g = random_device_graph(rnd, rnd.randrange(4, 12), rnd.uniform(0.05, 0.3))
        users = sorted({d.owner for d in g.devices.values()})
        source = rnd.choice(users)
        policy = AuthorizationPolicy((1.0,), random_nonincreasing(rnd, 4))
        token = token_for(profile(source, {3}), mobile(source))
        trace = propagate_vuip(mobile(source), full_view(g), token,
                               decisions(policy, seed=rnd.randrange(99)).spread_horizons())
        assert_anonymity(trace, g)
        assert all(h <= 6 for h in trace.hops.values())
        assert set(trace.hops) == set(trace.records)


def test_ttl_monotonicity_with_coupled_draws():
    rnd = random.Random(411)
    for _ in range(25):
        g = random_device_graph(rnd, rnd.randrange(5, 12), rnd.uniform(0.1, 0.35))
        users = sorted({d.owner for d in g.devices.values()})
        source = rnd.choice(users)
        policy = AuthorizationPolicy((1.0,), random_nonincreasing(rnd, 6))
        shared = decisions(policy, seed=rnd.randrange(99))
        reached_prev: set[str] = set()
        for ttl in range(1, 7):
            token = token_for(profile(source, {3}), mobile(source), ttl,
                              shared.draws.seed, shared.draws.replicate)
            trace = propagate_vuip(mobile(source), full_view(g), token,
                                   shared.spread_horizons())
            reached = set(trace.records)
            assert reached_prev <= reached
            reached_prev = reached


def kind_subsets():
    base = sorted(BASE_KINDS, key=lambda k: k.value)
    for size in range(1, len(base) + 1):
        yield from (frozenset(c) for c in itertools.combinations(base, size))


def test_flood_and_round_match_the_oracle_on_every_kind_subset():
    rnd = random.Random(1212)
    for trial in range(12):
        g = random_device_graph(rnd, rnd.randrange(4, 11), rnd.uniform(0.08, 0.35))
        users = sorted({d.owner for d in g.devices.values()})
        # some owners have no profile at all: the gate's default path
        profiles = {u: profile(u, set(rnd.sample(range(2, 7), rnd.randrange(1, 4))))
                    for u in users if rnd.random() < 0.85}
        policy = AuthorizationPolicy((1.0,), random_nonincreasing(rnd, 6))
        shared = decisions(policy, seed=trial)
        ttl = rnd.randrange(1, 7)
        base_edges = siot_edges(g)
        for kinds in kind_subsets():
            view = g.select_kinds(kinds)
            assert g.select_kinds(kinds | {RelationshipKind.CIOR}) is view
            for user in users:
                token = token_for(profile(user, {3}), mobile(user), ttl, trial)
                trace = propagate_vuip(mobile(user), view, token,
                                       shared.spread_horizons())
                assert trace.hops == oracle_flood(g, kinds, mobile(user), shared, ttl)
                assert set(trace.records) == set(trace.hops)

            out = run_cior_round(users, g, kinds, profiles, shared, 3, ttl=ttl)
            assert out == partner_sets(
                oracle_cior_pairs(users, g, kinds, profiles, shared, 3, ttl))
            assert siot_edges(g) == base_edges  # base graph untouched


def sparse_device_graph(rnd: random.Random, n_users: int) -> SIoTGraph:
    """Devices of `n_users` owners with few links. Some owners have no OOR
    edge, so some devices are isolated and some components are one owner's
    OOR pair; rare cross edges join the rest into mixed components."""
    users = [f"u{i:03d}" for i in range(n_users)]
    g = SIoTGraph(make_devices(users))
    for u in users:
        if rnd.random() < 0.7:
            g.add_edge(mobile(u), fixed(u), RelationshipKind.OOR)
    ids = sorted(g.devices)
    p = rnd.uniform(0.0, 2.0 / len(ids))
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if g.devices[ids[i]].owner != g.devices[ids[j]].owner and rnd.random() < p:
                g.add_edge(ids[i], ids[j], rnd.choice(
                    [RelationshipKind.POR, RelationshipKind.SOR, RelationshipKind.CLOR]))
    return g


def random_rounds(seed: int, count: int):
    """(graph, sources, kinds, profiles, decisions, ttl, origin_device) of
    `count` random rounds for interest 3: sparse device graphs, owners
    with and without a profile or interest 3, every kind subset, TTL 1-6,
    non-increasing spread vectors and both origin settings."""
    rnd = random.Random(seed)
    subsets = list(kind_subsets())
    for trial in range(count):
        g = sparse_device_graph(rnd, rnd.randrange(3, 16))
        users = sorted(g.owner_devices)
        profiles = {u: profile(u, set(rnd.sample(range(2, 7), rnd.randrange(1, 4))))
                    for u in users if rnd.random() < 0.85}
        policy = AuthorizationPolicy((1.0,), random_nonincreasing(rnd, rnd.randrange(1, 7)))
        yield (g, users, rnd.choice(subsets), profiles, decisions(policy, seed=trial),
               rnd.randrange(1, 7), rnd.choice(["mobile", "both"]))


def origin_devices(graph, user, origin_device):
    return [dev for dev in graph.owner_devices[user]
            if origin_device == "both" or graph.devices[dev].kind == MOBILE]


def flooding_round(sources, graph, kinds, profiles, decision_map, interest, ttl,
                   origin_device):
    """The round with no flood skipped: every origin device of every source
    with a profile floods, and each request is walked back."""
    view = graph.select_kinds(kinds)
    horizon = decision_map.spread_horizons()
    out = set()
    for user in sorted(set(sources)):
        own = profiles.get(user)
        if own is None or not own.held:
            continue
        candidates = round_candidates(user, own.anonymized(), profiles, interest)
        for dev in origin_devices(graph, user, origin_device):
            token = VuipToken(decision_map.draws.tokens[dev], own.anonymized(), ttl)
            trace = propagate_vuip(dev, view, token, horizon)
            for requester in evaluate_candidates(trace, graph, candidates):
                out.add(backpropagate(requester, trace, graph).owners)
    return out


def test_round_equals_flooding_from_every_origin_device():
    seen = {"no component": 0, "no other holder": 0, "other holder": 0}
    for g, users, kinds, profiles, shared, ttl, origin in random_rounds(1313, 150):
        components = oracle_components(g.select_kinds(kinds))
        holders = {u for u, p in profiles.items() if 3 in p.held}
        for user in users:
            for dev in origin_devices(g, user, origin):
                if dev not in components:
                    seen["no component"] += 1
                elif components[dev] & holders - {user}:
                    seen["other holder"] += 1
                else:
                    seen["no other holder"] += 1
        out = run_cior_round(users, g, kinds, profiles, shared, 3, ttl=ttl,
                             origin_device=origin)
        assert out == partner_sets(
            flooding_round(users, g, kinds, profiles, shared, 3, ttl, origin))
    assert min(seen.values()) > 50, seen


def test_only_floods_that_can_request_start(monkeypatch):
    started = []

    def recording_flood(source_device, *args):
        started.append(source_device)
        return propagate_vuip(source_device, *args)

    monkeypatch.setattr(protocol, "propagate_vuip", recording_flood)
    for g, users, kinds, profiles, shared, ttl, origin in random_rounds(1414, 60):
        components = oracle_components(g.select_kinds(kinds))
        holders = {u for u, p in profiles.items() if 3 in p.held}
        expected = [dev for user in users if user in profiles
                    for dev in origin_devices(g, user, origin)
                    if components.get(dev, frozenset()) & holders - {user}]
        started.clear()
        run_cior_round(users, g, kinds, profiles, shared, 3, ttl=ttl,
                       origin_device=origin)
        assert started == expected


def test_plan_shares_one_candidate_set_per_held_set_and_component_holders():
    """The entries of a kind set's plan whose sources have the same held
    set and the same holders in their origin components hold one candidate
    set object, on the 30-user trace scenario over every kind set with POR
    and both origin settings."""
    scenario = trace_scenario()
    g, profiles = scenario.siot, scenario.profiles
    users, holders = sorted(g.owner_devices), scenario.holders(4)
    repeats = 0
    for kinds in kind_subsets():
        if RelationshipKind.POR not in kinds:
            continue
        view = g.select_kinds(kinds)
        for origin in ("mobile", "both"):
            memo: protocol.RoundMemo = {}
            run_cior_round(users, g, kinds, profiles, decisions(), 4,
                           origin_device=origin, memo=memo)
            by_key: dict = {}
            for user, origins, _, candidates in memo[view.kinds]:
                reach = frozenset().union(*(view.component(dev).owners & holders
                                            for dev in origins))
                by_key.setdefault((profiles[user].held, reach), []).append(candidates)
            for sets in by_key.values():
                assert all(candidates is sets[0] for candidates in sets)
                repeats += len(sets) - 1
    assert repeats > 100, repeats


def test_flood_equals_the_relay_table_oracle_item_for_item():
    """The relay table of every flood holds the oracle's (receiver,
    previous hop, hop) items in the oracle's order, over dense POR cliques,
    every kind subset, TTL 1-6 and random horizons, also after an edge is
    added to the graph between two floods from the same device."""
    rnd = random.Random(1515)
    subsets = list(kind_subsets())
    compared = grown = 0
    for trial in range(60):
        g = clique_device_graph(rnd, rnd.randrange(4, 16))
        kinds = rnd.choice(subsets)
        view = g.select_kinds(kinds)
        policy = AuthorizationPolicy((1.0,), random_nonincreasing(rnd, rnd.randrange(1, 7)))
        horizon = decisions(policy, seed=trial).spread_horizons()
        ids = sorted(g.devices)
        for flood in range(4):
            source = rnd.choice(ids)
            for step in range(2):
                ttl = rnd.randrange(1, 7)
                token = VuipToken(f"t{flood}", InterestDescriptor.empty(), ttl)
                trace = propagate_vuip(source, view, token, horizon)
                assert [(r, p, trace.hops[r]) for r, p in trace.records.items()] == \
                    oracle_relay_table(g, kinds, source, horizon, ttl)
                compared += 1
                others = [d for d in ids if d != source and d not in view.neighbors(source)]
                if step == 0 and others:
                    g.add_edge(source, rnd.choice(others), rnd.choice(sorted(kinds, key=str)))
                    grown += 1
    assert compared == 480 and grown > 200


def test_round_pairs_equal_the_pair_oracle():
    """The partner map a round returns holds exactly the owner pairs of
    `oracle_cior_pairs`, on sparse graphs and on dense POR cliques, for
    random source sets, every kind subset, TTL 1-6, similarity thresholds
    from 0 to 1 and both origin settings."""
    rnd = random.Random(1616)
    subsets = list(kind_subsets())
    linked = 0
    for trial in range(120):
        g = (clique_device_graph(rnd, rnd.randrange(3, 14)) if trial % 2
             else sparse_device_graph(rnd, rnd.randrange(3, 16)))
        users = sorted(g.owner_devices)
        profiles = {u: profile(u, set(rnd.sample(range(2, 6), rnd.randrange(1, 4))))
                    for u in users if rnd.random() < 0.85}
        policy = AuthorizationPolicy((1.0,), random_nonincreasing(rnd, rnd.randrange(1, 7)))
        shared = decisions(policy, seed=trial)
        kinds, ttl = rnd.choice(subsets), rnd.randrange(1, 7)
        threshold = rnd.choice([0.0, 0.5, 2.0 / 3.0, 1.0])
        origin = rnd.choice(["mobile", "both"])
        sources = rnd.sample(users, rnd.randrange(1, len(users) + 1))
        out = run_cior_round(sources, g, kinds, profiles, shared, 3, ttl=ttl,
                             sim_threshold=threshold, origin_device=origin)
        expected = oracle_cior_pairs(sources, g, kinds, profiles, shared, 3, ttl,
                                     threshold, origin)
        assert out == partner_sets(expected)
        linked += len(expected)
    assert linked > 150


def test_round_pairs_equal_the_pair_oracle_at_exact_cosine_ties():
    """Rounds whose held sets have 1-4 of 5 categories link exactly the
    owner pairs of `oracle_cior_pairs` when the threshold is a value their
    cosines tie at: 1/2, 1/sqrt(2) or 2/3, each computed by
    `cosine_similarity`. Graphs are POR cliques and sparse graphs; in some
    every owner has one shared held set, in others all held sets differ.
    No owner is its own partner."""
    ties = [cosine_similarity(profile("a", held_a), profile("b", held_b))
            for held_a, held_b in [({2}, {2, 3, 4, 5}), ({2}, {2, 3}),
                                   ({2, 3, 4}, {3, 4, 5})]]
    assert ties == [0.5, 1 / math.sqrt(2), 2 / 3]
    held_sets = [set(c) for size in range(1, 5)
                 for c in itertools.combinations(range(2, 7), size)]
    rnd = random.Random(1919)
    subsets = list(kind_subsets())
    at_tie = {"shared": 0, "distinct": 0, "mixed": 0}
    linked = 0
    for trial in range(150):
        g = (clique_device_graph(rnd, rnd.randrange(3, 14)) if trial % 2
             else sparse_device_graph(rnd, rnd.randrange(3, 16)))
        users = sorted(g.owner_devices)
        layout = list(at_tie)[trial // 2 % 3]
        if layout == "shared":
            drawn = [rnd.choice([h for h in held_sets if 3 in h])] * len(users)
        elif layout == "distinct":
            drawn = rnd.sample(held_sets, len(users))
        else:
            drawn = [rnd.choice(held_sets) for _ in users]
        profiles = {u: profile(u, held) for u, held in zip(users, drawn)}
        policy = AuthorizationPolicy((1.0,), random_nonincreasing(rnd, rnd.randrange(1, 7)))
        shared = decisions(policy, seed=trial)
        kinds, ttl = rnd.choice(subsets), rnd.randrange(1, 7)
        threshold = rnd.choice(ties)
        origin = rnd.choice(["mobile", "both"])
        sources = rnd.sample(users, rnd.randrange(1, len(users) + 1))
        out = run_cior_round(sources, g, kinds, profiles, shared, 3, ttl=ttl,
                             sim_threshold=threshold, origin_device=origin)
        expected = oracle_cior_pairs(sources, g, kinds, profiles, shared, 3, ttl,
                                     threshold, origin)
        assert out == partner_sets(expected), (trial, layout)
        assert all(owner not in partners for owner, partners in out.items())
        at_tie[layout] += sum(cosine_similarity(profiles[a], profiles[b]) == threshold
                              for a, b in expected)
        linked += len(expected)
    assert at_tie["distinct"] > 20 and at_tie["mixed"] > 20 and linked > 300, \
        (at_tie, linked)


def test_round_walks_back_one_request_per_owner_pair(monkeypatch):
    """A round walks back exactly one request per owner pair it links, and
    no flood evaluates an owner already paired with its source owner, on
    sparse graphs and dense POR cliques, every kind subset and both origin
    settings."""
    walks: list[tuple[str, str]] = []
    narrowed = 0

    def counting_gate(trace, graph, candidates):
        nonlocal narrowed
        candidates = frozenset(candidates)
        source = graph.devices[trace.source_device].owner
        paired = {a if b == source else b for a, b in walks if source in (a, b)}
        assert not candidates & paired, (source, candidates & paired)
        narrowed += bool(paired)
        return evaluate_candidates(trace, graph, candidates)

    def counting_walk(requester, trace, graph):
        walk = backpropagate(requester, trace, graph)
        walks.append(walk.owners)
        return walk

    monkeypatch.setattr(protocol, "evaluate_candidates", counting_gate)
    monkeypatch.setattr(protocol, "backpropagate", counting_walk)
    rnd = random.Random(1717)
    linked = 0
    for trial in range(24):
        g = (clique_device_graph(rnd, rnd.randrange(3, 12)) if trial % 2
             else sparse_device_graph(rnd, rnd.randrange(3, 14)))
        users = sorted(g.owner_devices)
        profiles = {u: profile(u, set(rnd.sample(range(2, 6), rnd.randrange(1, 4))))
                    for u in users if rnd.random() < 0.85}
        policy = AuthorizationPolicy((1.0,), random_nonincreasing(rnd, rnd.randrange(1, 7)))
        shared = decisions(policy, seed=trial)
        origin = ["mobile", "both"][trial // 2 % 2]
        for kinds in kind_subsets():
            walks.clear()
            ttl = rnd.randrange(1, 7)
            out = run_cior_round(users, g, kinds, profiles, shared, 3, ttl=ttl,
                                 origin_device=origin)
            assert len(set(walks)) == len(walks)
            assert partner_sets(walks) == out
            assert out == partner_sets(oracle_cior_pairs(
                users, g, kinds, profiles, shared, 3, ttl, origin_device=origin))
            linked += len(walks)
    assert linked > 300 and narrowed > 100, (linked, narrowed)


def test_evaluate_candidates_equals_the_receiver_order_oracle():
    """`evaluate_candidates` returns the receivers whose owner is a
    candidate, in sorted receiver order, on random floods: candidate owners
    with none, one or both devices reached, the source owner among the
    candidates, and candidates that own no device."""
    rnd = random.Random(1818)
    subsets = list(kind_subsets())
    reached_counts = {0: 0, 1: 0, 2: 0}
    for trial in range(80):
        g = (clique_device_graph(rnd, rnd.randrange(3, 12)) if trial % 2
             else random_device_graph(rnd, rnd.randrange(3, 12), rnd.uniform(0.05, 0.3)))
        users = sorted(g.owner_devices)
        view = g.select_kinds(rnd.choice(subsets))
        policy = AuthorizationPolicy((1.0,), random_nonincreasing(rnd, rnd.randrange(1, 7)))
        horizon = decisions(policy, seed=trial).spread_horizons()
        source = rnd.choice(sorted(g.devices))
        token = VuipToken(f"t{trial}", InterestDescriptor.empty(), rnd.randrange(1, 7))
        trace = propagate_vuip(source, view, token, horizon)
        candidates = set(rnd.sample(users, rnd.randrange(0, len(users) + 1)))
        candidates |= {g.devices[source].owner} if trial % 3 == 0 else set()
        candidates |= {"nobody", "zz-ghost"} if trial % 4 == 0 else set()
        for owner in candidates & set(users):
            reached_counts[sum(d in trace.records for d in g.owner_devices[owner])] += 1
        expected = [d for d in sorted(trace.records) if g.devices[d].owner in candidates]
        assert evaluate_candidates(trace, g, candidates) == expected
        assert evaluate_candidates(trace, g, frozenset(candidates)) == expected
    assert min(reached_counts.values()) > 20, reached_counts
