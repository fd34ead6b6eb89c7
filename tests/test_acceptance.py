"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Every check is exact (set equality or <=/>= comparisons under
coupled randomness) unless a tolerance is stated inline.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import time

from conftest import (bool_horizons, checkin, corpus_of, make_devices, mobile,
                      profile, random_device_graph, random_friend_graph,
                      random_nonincreasing, token_for)
from oracles import (oracle_colocations, oracle_flood, oracle_giant_pct,
                     oracle_reach, partner_sets, siot_edges)
from siotsim import cli
from siotsim.experiment import (ExperimentConfig, Mode, build_reach_context,
                                run_campaign, run_source)
from siotsim.humangraph import (AuthorizationMap, AuthorizationPolicy,
                                ReachContext, giant_component_pct,
                                interest_reach)
from siotsim.interests import cosine_similarity
from siotsim.protocol import evaluate_candidates, propagate_vuip, run_cior_round
from siotsim.report import irn_by_hop, mean_hops_comparison, mean_irn_pct
from siotsim.rng import DrawTable
from siotsim.scenario import Scenario
from siotsim.siotgraph import BASE_KINDS, RelationshipKind, SIoTGraph
from siotsim.synth import SyntheticScenarioSpec, generate_scenario
from siotsim.trace import detect_colocations
from siotsim.humangraph import FriendshipGraph


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:02d} FAIL: {title}")
                raise
            print(f"\nACCEPTANCE {number:02d} PASS: {title}")
        return wrapper
    return decorate


def indexed_runs(runs):
    index = {}
    for r in runs:
        index[(r.mode, r.sweep_value, r.replicate, r.source)] = r
    return index


def random_scenario(rnd: random.Random, seed: int,
                    max_nodes: int = 60) -> SyntheticScenarioSpec:
    while True:
        communities = rnd.randrange(2, 5)
        nodes = rnd.randrange(3, 16)
        if communities * nodes <= max_nodes:
            break
    return SyntheticScenarioSpec(
        communities=communities,
        nodes_per_community=nodes,
        intra_friend_prob=rnd.uniform(0.15, 0.9),
        cross_edges={RelationshipKind.POR: rnd.randrange(0, 3),
                     RelationshipKind.SOR: rnd.randrange(0, 2),
                     RelationshipKind.CLOR: rnd.randrange(0, 2)},
        interest_prob=rnd.uniform(0.4, 1.0),
        noise_interests=rnd.randrange(0, 3),
        seed=seed,
    )


@criterion(1, "mode dominance holds exactly on 200 randomized scenarios")
def test_criterion_01_dominance_suite():
    rnd = random.Random(20101)
    started = time.perf_counter()
    scenarios = 0
    checked_runs = 0
    trial = 0
    while scenarios < 200:
        trial += 1
        scn = generate_scenario(random_scenario(rnd, seed=trial))
        if not scn.holders(3):
            continue
        scenarios += 1
        cfg = ExperimentConfig(
            replicates=2, seed=trial, max_hops=rnd.randrange(2, 5),
            ttl=rnd.randrange(3, 7),
            auth_prob_per_hop=random_nonincreasing(rnd, 4),
            spread_prob_per_hop=random_nonincreasing(rnd, 4),
            include_isolated=rnd.random() < 0.5)
        index = indexed_runs(run_campaign(scn, cfg))
        for (mode, sweep_value, rep, source), run in index.items():
            if mode != "friendships":
                continue
            enhanced = index[("enhanced", sweep_value, rep, source)]
            assert run.reached <= enhanced.reached
            assert run.irn_pct <= enhanced.irn_pct
            checked_runs += 1
    elapsed = time.perf_counter() - started
    assert scenarios >= 200 and checked_runs > 0
    assert elapsed < 30.0, f"dominance suite took {elapsed:.1f}s"


def _raw_owner_contacts(graph: SIoTGraph, kinds, cior_pairs):
    """Owner projection re-derived from the raw edge lists (independent of
    the view machinery): a device edge of a selected kind, or an owner pair
    of the round, links the two owners."""
    owner_pairs = [(graph.devices[e.device_a].owner, graph.devices[e.device_b].owner)
                   for e in siot_edges(graph) if e.kinds & kinds]
    contacts: dict[str, set[str]] = {}
    for oa, ob in owner_pairs + list(cior_pairs):
        if oa != ob:
            contacts.setdefault(oa, set()).add(ob)
            contacts.setdefault(ob, set()).add(oa)
    return {u: tuple(sorted(vs)) for u, vs in contacts.items()}


@criterion(2, "reachability equals the brute-force fixed-point oracle on 500 fixtures")
def test_criterion_02_reachability_oracle():
    rnd = random.Random(20202)
    started = time.perf_counter()
    for trial in range(500):
        n = rnd.randrange(3, 51)
        graph = random_friend_graph(rnd, n, rnd.uniform(0.03, 0.4))
        users = sorted(graph.nodes)
        holders = {u for u in users if rnd.random() < rnd.uniform(0.3, 0.9)}
        source = rnd.choice(users)
        holders.add(source)
        max_hops = rnd.randrange(1, 6)
        adjacency = {u: set(graph.adjacency.get(u, ())) for u in users}

        if trial % 3 == 0:
            decide = {u: rnd.random() < 0.5 for u in users}
            authorizes = lambda node, hop: decide.get(node, False)
            horizon = bool_horizons(decide, users)
            auth_map = None
        else:
            policy = AuthorizationPolicy(random_nonincreasing(rnd, 4), (1.0,))
            auth_map = AuthorizationMap(DrawTable(rnd.randrange(10_000), 0), policy)
            authorizes = auth_map.authorizes
            horizon = auth_map.auth_horizons()

        if trial % 2 == 0:
            # device-layer fixture exercised through run_source, with the
            # owner pairs a C-IOR round would return
            siot = random_device_graph(rnd, n, min(0.2, 4.0 / n))
            links = set()
            for _ in range(rnd.randrange(0, 3)):
                a, b = sorted(rnd.sample(users, 2))
                links.add((a, b))
            kinds = frozenset(rnd.sample(sorted(RelationshipKind, key=lambda k: k.value),
                                         rnd.randrange(1, 6)))
            if RelationshipKind.CIOR not in kinds:
                links = set()
            extra = _raw_owner_contacts(siot, kinds, links)
            ctx = ReachContext({u: tuple(sorted(vs)) for u, vs in adjacency.items()},
                               frozenset(holders), horizon, max_hops, extra)
            direct, best = interest_reach(source, ctx)
            if auth_map is not None:
                profiles = {u: profile(u, {3} if u in holders else {9})
                            for u in users}
                scn = Scenario(graph, siot, profiles)
                mode = Mode.enhanced(kinds, cior=RelationshipKind.CIOR in kinds)
                context = build_reach_context(scn, 3, mode, auth_map, max_hops,
                                              partner_sets(links))
                run = run_source(source, 3, mode, scn, context)
                assert run.reached == frozenset(best) - {source}
                assert run.hops == {k: v for k, v in best.items() if k != source}
        else:
            extra = None
            ctx = ReachContext({u: tuple(sorted(vs)) for u, vs in adjacency.items()},
                               frozenset(holders), horizon, max_hops, extra)
            direct, best = interest_reach(source, ctx)
            if auth_map is not None:
                profiles = {u: profile(u, {3} if u in holders else {9})
                            for u in users}
                scn = Scenario(graph, SIoTGraph(make_devices(users)), profiles)
                mode = Mode.friendships()
                context = build_reach_context(scn, 3, mode, auth_map, max_hops)
                run = run_source(source, 3, mode, scn, context)
                assert run.reached == frozenset(best) - {source}
                assert run.hops == {k: v for k, v in best.items() if k != source}

        o_direct, o_best = oracle_reach(source, adjacency, authorizes,
                                        max_hops, holders, extra)
        assert direct == o_direct
        assert best == o_best
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"


@criterion(3, "co-location detection equals the all-pairs oracle incl. boundaries")
def test_criterion_03_colocation_oracle():
    rnd = random.Random(30303)

    def random_corpus(n):
        checkins = []
        for i in range(n):
            user = f"u{rnd.randrange(max(2, n // 12))}"
            lat = 45.0 + rnd.choice([0.0, 0.001, 0.002, 0.3]) + rnd.uniform(0, 0.001)
            lon = 7.0 + rnd.choice([0.0, 0.0015, 0.4]) + rnd.uniform(0, 0.001)
            checkins.append(checkin(user, rnd.uniform(0, 40000), lat, lon, f"p{i}"))
        return corpus_of(checkins)

    for n in (50, 250, 1000):
        corpus = random_corpus(n)
        assert detect_colocations(corpus) == oracle_colocations(corpus, 250.0, 1800.0)

    # time boundary: exactly 1800 s is inside, 1801 s is outside
    inside = corpus_of([checkin("a", 0.0, 0.0, 0.0), checkin("b", 1800.0, 0.0, 0.0)])
    outside = corpus_of([checkin("a", 0.0, 0.0, 0.0), checkin("b", 1801.0, 0.0, 0.0)])
    assert len(detect_colocations(inside)) == 1
    assert detect_colocations(outside) == []
    assert detect_colocations(inside) == oracle_colocations(inside, 250.0, 1800.0)

    # distance boundary: the comparison is inclusive at exactly the radius;
    # a float equal to 250.0 is not attainable from this geometry, so the
    # radius is pinned to the computed boundary distance (within 1e-6 m of
    # 250) and one ulp below it
    from siotsim.geo import haversine_m
    lon = math.degrees(250.0 / 6371000.0)
    a, b = checkin("a", 0.0, 0.0, 10.0), checkin("b", 0.0, 0.0, 10.0 + lon)
    d = haversine_m(a.location, b.location)
    assert abs(d - 250.0) < 1e-6
    corpus = corpus_of([a, b])
    assert len(detect_colocations(corpus, radius_m=d)) == 1
    assert detect_colocations(corpus, radius_m=math.nextafter(d, 0.0)) == []
    assert detect_colocations(corpus, radius_m=d) == oracle_colocations(corpus, d, 1800.0)


@criterion(4, "protocol invariants hold on 100 randomized propagations")
def test_criterion_04_protocol_invariants():
    rnd = random.Random(40404)
    for trial in range(100):
        graph = random_device_graph(rnd, rnd.randrange(4, 14),
                                    rnd.uniform(0.05, 0.35))
        users = sorted({d.owner for d in graph.devices.values()})
        source_user = rnd.choice(users)
        source_dev = mobile(source_user)
        policy = AuthorizationPolicy((1.0,), random_nonincreasing(rnd, 6))
        decisions = AuthorizationMap(DrawTable(trial, 0), policy)
        view = graph.select_kinds(BASE_KINDS)

        token = token_for(profile(source_user, {3}), source_dev, 6, trial)
        trace = propagate_vuip(source_dev, view, token, decisions.spread_horizons())

        # TTL bound under the default 6-hop configuration
        assert all(1 <= h <= 6 for h in trace.hops.values())

        # evaluate-once: every receiver has exactly one record and one
        # evaluation; every profile holds {3}, so each receiver not owned
        # by the source user requests exactly once
        # with identical profiles, every other owner is a candidate
        requests = evaluate_candidates(trace, graph, set(users) - {source_user})
        assert len(requests) == len(set(requests))
        assert set(requests) == {d for d in trace.records
                                 if graph.devices[d].owner != source_user}
        receivers = sorted(trace.records)
        assert len(receivers) == len(set(receivers))

        # anonymity: no field of any relay record held beyond the source's
        # first social neighbors equals the source device or owner id; the
        # anonymized payload carries no owner at all
        assert token.payload.owner is None
        first_neighbors = set(view.neighbors(source_dev))
        for holder, previous_hop in trace.records.items():
            assert holder != source_dev
            fields = (trace.token_id, previous_hop, trace.hops[holder])
            if holder not in first_neighbors:
                assert source_dev not in fields
                assert source_user not in fields

        # TTL monotonicity with coupled draws
        previous: set[str] = set()
        for ttl in range(1, 7):
            t = token_for(profile(source_user, {3}), source_dev, ttl, trial)
            reached = set(propagate_vuip(source_dev, view, t,
                                         decisions.spread_horizons()).records)
            assert previous <= reached
            previous = reached


@criterion(5, "co-interest links form iff cosine >= 0.5 and the interest is held")
def test_criterion_05_similarity_gate():
    # crafted chain: u0 -- u1 -- u2 -- u3, full forwarding, everything held
    users = [f"u{i}" for i in range(4)]
    graph = SIoTGraph(make_devices(users))
    for i in range(3):
        graph.add_edge(mobile(users[i]), mobile(users[i + 1]), RelationshipKind.SOR)
    profiles = {
        "u0": profile("u0", {3, 4, 6}),
        "u1": profile("u1", {4, 6, 7}),     # cosine 2/3, holds 4 but not 3
        "u2": profile("u2", {7, 8, 9}),     # cosine 0
        "u3": profile("u3", {3, 4, 6}),     # cosine 1
    }
    assert cosine_similarity(profiles["u0"], profiles["u1"]) == 2.0 / 3.0
    decisions = AuthorizationMap(DrawTable(0, 0), AuthorizationPolicy((1.0,), (1.0,)))
    base_edges = siot_edges(graph)

    out4 = run_cior_round(["u0"], graph, RelationshipKind, profiles, decisions,
                          interest=4)
    assert out4 == partner_sets({("u0", "u1"), ("u0", "u3")})
    assert all(4 in profiles[a].held and 4 in profiles[b].held
               for a, partners in out4.items() for b in partners)

    out3 = run_cior_round(["u0"], graph, RelationshipKind, profiles, decisions,
                          interest=3)
    # u1 is similar but does not hold interest 3; u3 passes both gates
    assert out3 == partner_sets({("u0", "u3")})
    assert siot_edges(graph) == base_edges

    # boundary: cosine exactly 0.5 establishes (inclusive within 1e-12)
    boundary = {"a": profile("a", {1, 2}), "b": profile("b", {2, 3})}
    sim = cosine_similarity(boundary["a"], boundary["b"])
    assert abs(sim - 0.5) < 1e-12
    g2 = SIoTGraph(make_devices(["a", "b"]))
    g2.add_edge(mobile("a"), mobile("b"), RelationshipKind.SOR)
    out = run_cior_round(["a"], g2, RelationshipKind, boundary, decisions,
                         interest=2)
    assert out == partner_sets({("a", "b")})
    assert 2 in boundary["a"].held and 2 in boundary["b"].held
    # one representable step below the threshold must not establish
    below = run_cior_round(["a"], g2, RelationshipKind, boundary,
                           decisions, interest=2,
                           sim_threshold=math.nextafter(0.5, 1.0))
    assert below == {}
    assert g2.kind_counts()[RelationshipKind.CIOR] == 0

    # randomized iff-check against an independent flood re-derivation
    rnd = random.Random(50505)
    for trial in range(30):
        graph = random_device_graph(rnd, rnd.randrange(4, 10), rnd.uniform(0.1, 0.4))
        users = sorted({d.owner for d in graph.devices.values()})
        profiles = {u: profile(u, {rnd.randrange(3), 3} if rnd.random() < 0.7
                               else {rnd.randrange(10, 14)}) for u in users}
        decisions = AuthorizationMap(
            DrawTable(trial, 0), AuthorizationPolicy((1.0,), random_nonincreasing(rnd, 6)))
        sources = [u for u in users if 3 in profiles[u].held]
        base_edges = siot_edges(graph)
        out = run_cior_round(sources, graph, RelationshipKind, profiles,
                             decisions, interest=3, ttl=6)
        assert all(3 in profiles[a].held and 3 in profiles[b].held
                   for a, partners in out.items() for b in partners)
        assert siot_edges(graph) == base_edges
        expected = set()
        for src in sources:
            receivers = oracle_flood(graph, BASE_KINDS, mobile(src), decisions, 6)
            for dev in receivers:
                owner = graph.devices[dev].owner
                if owner == src:
                    continue
                own = profiles[owner]
                if cosine_similarity(own, profiles[src].anonymized()) < 0.5:
                    continue
                if 3 not in own.held:
                    continue
                expected.add((min(src, owner), max(src, owner)))
        assert out == partner_sets(expected)


def two_community_bridged(seed=606, nodes=6):
    return generate_scenario(SyntheticScenarioSpec(
        communities=2, nodes_per_community=nodes, intra_friend_prob=0.8,
        cross_edges={RelationshipKind.POR: 1}, interest_prob=0.9,
        noise_interests=1, seed=seed))


@criterion(6, "reach grows monotonically in spread, authorization and hops; "
              "enhanced dominates friendships pointwise")
def test_criterion_06_fig23_qualitative():
    scn = two_community_bridged()

    # (a) spread percentage sweep, sample-wise nested
    spread_cfg = ExperimentConfig(
        replicates=3, seed=61, sweep="spread",
        spread_values=(0.1, 0.3, 0.6, 0.9, 1.0),
        auth_prob_per_hop=(1.0, 0.9, 0.8, 0.7))
    spread_runs = run_campaign(scn, spread_cfg)
    index = indexed_runs(spread_runs)
    values = ["0.1", "0.3", "0.6", "0.9", "1"]
    keys = {(rep, source) for (_, _, rep, source) in index}
    for rep, source in keys:
        for mode in ("friendships", "enhanced"):
            for lo, hi in zip(values, values[1:]):
                assert index[(mode, lo, rep, source)].reached <= \
                    index[(mode, hi, rep, source)].reached
        for value in values:
            friendly = index[("friendships", value, rep, source)]
            enhanced = index[("enhanced", value, rep, source)]
            assert friendly.reached <= enhanced.reached
            assert friendly.irn_pct <= enhanced.irn_pct

    # aggregated curves keep the ordering and are monotone in the sweep
    series = {s.label: s for s in mean_irn_pct(spread_runs)}
    friendly_curve = next(v for k, v in series.items() if k.startswith("friendships"))
    enhanced_curve = next(v for k, v in series.items() if k.startswith("enhanced"))
    assert all(e >= f for e, f in zip(enhanced_curve.y, friendly_curve.y))
    assert list(enhanced_curve.y) == sorted(enhanced_curve.y)

    # (b) authorization sweep with nested per-hop vectors
    auth_cfg = ExperimentConfig(
        replicates=3, seed=62, sweep="auth",
        auth_values=((0.3, 0.2, 0.1, 0.05), (0.6, 0.5, 0.4, 0.3),
                     (0.9, 0.8, 0.7, 0.6), (1.0, 1.0, 1.0, 1.0)))
    auth_runs = run_campaign(scn, auth_cfg)
    index = indexed_runs(auth_runs)
    auth_labels = ["0.3,0.2,0.1,0.05", "0.6,0.5,0.4,0.3",
                   "0.9,0.8,0.7,0.6", "1,1,1,1"]
    keys = {(rep, source) for (_, _, rep, source) in index}
    for rep, source in keys:
        for mode in ("friendships", "enhanced"):
            for lo, hi in zip(auth_labels, auth_labels[1:]):
                assert index[(mode, lo, rep, source)].reached <= \
                    index[(mode, hi, rep, source)].reached
        for value in auth_labels:
            assert index[("friendships", value, rep, source)].reached <= \
                index[("enhanced", value, rep, source)].reached

    # (c) hop curves: cumulative reach never decreases with the hop index
    for run in spread_runs:
        for hop in range(0, 6):
            within_lo = {n for n in run.reached if run.hops[n] <= hop}
            within_hi = {n for n in run.reached if run.hops[n] <= hop + 1}
            assert within_lo <= within_hi
    for series_obj in irn_by_hop(spread_runs):
        assert list(series_obj.y) == sorted(series_obj.y)

    # larger hop budgets only add reach, sample-wise
    lo_cfg = ExperimentConfig(replicates=2, seed=63, max_hops=2)
    hi_cfg = ExperimentConfig(replicates=2, seed=63, max_hops=4)
    lo_idx = indexed_runs(run_campaign(scn, lo_cfg))
    hi_idx = indexed_runs(run_campaign(scn, hi_cfg))
    for key, run in lo_idx.items():
        assert run.reached <= hi_idx[key].reached


@criterion(7, "nested relationship-kind subsets never lose reach; removing the "
              "only cross kind collapses enhanced to friendships")
def test_criterion_07_kind_combinations():
    nested = (frozenset({RelationshipKind.OOR}),
              frozenset({RelationshipKind.OOR, RelationshipKind.CLOR}),
              frozenset({RelationshipKind.OOR, RelationshipKind.CLOR,
                         RelationshipKind.SOR}),
              frozenset({RelationshipKind.OOR, RelationshipKind.CLOR,
                         RelationshipKind.SOR, RelationshipKind.POR}))
    labels = ["OOR", "C-LOR+OOR", "C-LOR+OOR+SOR", "C-LOR+OOR+POR+SOR"]
    rnd = random.Random(70707)
    for trial in range(12):
        scn = generate_scenario(random_scenario(rnd, seed=7700 + trial))
        if not scn.holders(3):
            continue
        cfg = ExperimentConfig(replicates=2, seed=71 + trial, sweep="kinds",
                               kind_sets=nested, modes=("enhanced",),
                               spread_prob_per_hop=random_nonincreasing(rnd, 4),
                               auth_prob_per_hop=random_nonincreasing(rnd, 4))
        index = indexed_runs(run_campaign(scn, cfg))
        keys = {(rep, source) for (_, _, rep, source) in index}
        for rep, source in keys:
            for lo, hi in zip(labels, labels[1:]):
                assert index[("enhanced", lo, rep, source)].reached <= \
                    index[("enhanced", hi, rep, source)].reached

    scn = two_community_bridged(seed=707)

    # cross-community edges are exclusively POR in this scenario: dropping
    # POR must collapse enhanced to friendships exactly, keeping it must
    # beat friendships for at least one source
    no_por = ExperimentConfig(
        replicates=2, seed=72,
        kinds=frozenset({RelationshipKind.OOR, RelationshipKind.CLOR,
                         RelationshipKind.SOR}),
        modes=("friendships", "enhanced"),
        spread_prob_per_hop=(0.9, 0.8, 0.7, 0.6))
    with_por = dataclasses.replace(no_por, kinds=no_por.kinds | {RelationshipKind.POR})
    idx_no = indexed_runs(run_campaign(scn, no_por))
    idx_with = indexed_runs(run_campaign(scn, with_por))
    improved = False
    for (mode, value, rep, source), run in idx_no.items():
        if mode != "enhanced":
            continue
        friendly = idx_no[("friendships", value, rep, source)]
        assert run.reached == friendly.reached
        assert run.hops == friendly.hops
        if idx_with[("enhanced", value, rep, source)].reached > friendly.reached:
            improved = True
    assert improved


@criterion(8, "giant-component metric matches the BFS oracle and never shrinks "
              "when the device layer is added")
def test_criterion_08_giant_component():
    rnd = random.Random(80808)
    for trial in range(60):
        scn = generate_scenario(random_scenario(rnd, seed=9000 + trial))
        holders = scn.holders(3)
        if not holders:
            continue
        friend_edges = [(a, b) for a, b in scn.friendships.edges()
                        if a in holders and b in holders]
        decisions = AuthorizationMap(DrawTable(trial, 0),
                                     AuthorizationPolicy((1.0,), (1.0,)))
        base_edges = siot_edges(scn.siot)
        established = run_cior_round(sorted(holders), scn.siot, RelationshipKind,
                                     scn.profiles, decisions, interest=3)
        assert siot_edges(scn.siot) == base_edges
        device_edges = {(a, b) for a, partners in established.items()
                        for b in partners if a < b}
        assert established == partner_sets(device_edges)
        assert all(a in holders and b in holders for a, b in device_edges)
        for e in siot_edges(scn.siot):  # every edge carries a base kind
            oa = scn.siot.devices[e.device_a].owner
            ob = scn.siot.devices[e.device_b].owner
            if oa != ob:
                device_edges.add((min(oa, ob), max(oa, ob)))
        enhanced_edges = sorted(set(friend_edges) | device_edges)

        friendly_pct = giant_component_pct(holders, friend_edges)
        enhanced_pct = giant_component_pct(holders, enhanced_edges)
        assert friendly_pct == oracle_giant_pct(holders, friend_edges)
        assert enhanced_pct == oracle_giant_pct(holders, enhanced_edges)
        assert enhanced_pct >= friendly_pct


def hop_reduction_fixture():
    """Friend chains of length 4 from the source to two far interested
    nodes, plus device paths that let co-interest links form."""
    users = ["s", "x1", "x2", "x3", "t1", "y1", "y2", "y3", "t2", "r1", "r2"]
    friendships = FriendshipGraph(users, [
        ("s", "x1"), ("x1", "x2"), ("x2", "x3"), ("x3", "t1"),
        ("s", "y1"), ("y1", "y2"), ("y2", "y3"), ("y3", "t2")])
    siot = SIoTGraph(make_devices(users))
    for a, b in [("s", "r1"), ("r1", "r2"), ("r2", "t1"), ("r2", "t2")]:
        siot.add_edge(mobile(a), mobile(b), RelationshipKind.POR)
    profiles = {u: profile(u, {3}) if u in ("s", "t1", "t2")
                else profile(u, set()) for u in users}
    return Scenario(friendships, siot, profiles)


@criterion(9, "co-interest links never increase hop counts and halve them on "
              "the crafted fixture")
def test_criterion_09_hop_reduction():
    # sample-wise: for nodes reached in both conditions the hop count with
    # links enabled is never larger
    rnd = random.Random(90909)
    for trial in range(40):
        scn = generate_scenario(random_scenario(rnd, seed=7000 + trial))
        if not scn.holders(3):
            continue
        base = ExperimentConfig(replicates=2, seed=trial, modes=("enhanced",),
                                spread_prob_per_hop=random_nonincreasing(rnd, 4),
                                auth_prob_per_hop=random_nonincreasing(rnd, 4))
        on = indexed_runs(run_campaign(scn, dataclasses.replace(base, cior=True)))
        off = indexed_runs(run_campaign(scn, dataclasses.replace(base, cior=False)))
        for key, run_on in on.items():
            run_off = off[key]
            assert run_off.reached <= run_on.reached
            for node in run_on.reached & run_off.reached:
                assert run_on.hops[node] <= run_off.hops[node]

    # crafted fixture: both far nodes sit 4 friend-hops away and gain a
    # direct link, so the mean hop ratio is 1/4 <= 0.5
    scn = hop_reduction_fixture()
    cfg = ExperimentConfig(replicates=1, modes=("enhanced",), max_hops=4)
    on_runs = [r for r in run_campaign(scn, dataclasses.replace(cfg, cior=True))
               if r.source == "s"]
    off_runs = [r for r in run_campaign(scn, dataclasses.replace(cfg, cior=False))
                if r.source == "s"]
    assert on_runs[0].hops == {"t1": 1, "t2": 1}
    assert off_runs[0].hops == {"t1": 4, "t2": 4}
    comparison = mean_hops_comparison(on_runs, off_runs)
    assert comparison.ratio is not None and comparison.ratio <= 0.5


@criterion(10, "identical seeds reproduce byte-identical outputs; a different "
               "seed changes a stochastic output")
def test_criterion_10_determinism(tmp_path):
    def run_pipeline(tag, synth_seed, run_seed):
        scn_dir = tmp_path / f"scn-{tag}"
        out_dir = tmp_path / f"out-{tag}"
        assert cli.main(["synth", "--communities", "2", "--nodes", "8",
                         "--intra-prob", "0.5", "--cross", "POR=1,SOR=1",
                         "--interest-prob", "0.6", "--noise-interests", "1",
                         "--seed", str(synth_seed), "--out", str(scn_dir)]) == 0
        cfg = tmp_path / f"cfg-{tag}.txt"
        cfg.write_text(
            "replicates = 3\n"
            f"seed = {run_seed}\n"
            "sweep = spread\n"
            "spread_values = 1.0, 0.5, 0.1\n"
            "auth_prob_per_hop = 0.9, 0.6, 0.4, 0.2\n",
            encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg), "--scenario", str(scn_dir),
                         "--out", str(out_dir)]) == 0
        return {p.name: p.read_bytes() for p in sorted(scn_dir.iterdir())}, \
               {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    scn_a, out_a = run_pipeline("a", synth_seed=5, run_seed=11)
    scn_b, out_b = run_pipeline("b", synth_seed=5, run_seed=11)
    assert scn_a == scn_b
    assert out_a == out_b

    changed = False
    for other_seed in (12, 13, 14, 15):
        _, out_c = run_pipeline(f"c{other_seed}", synth_seed=5, run_seed=other_seed)
        if out_c["results.csv"] != out_a["results.csv"]:
            changed = True
            break
    assert changed


@criterion(11, "a 2000-user campaign with 5 sweep points, 2 modes and 30 "
               "replicates finishes within the time budget")
def test_criterion_11_performance_envelope():
    spec = SyntheticScenarioSpec(
        communities=40, nodes_per_community=50, intra_friend_prob=0.08,
        cross_edges={RelationshipKind.POR: 30, RelationshipKind.SOR: 20},
        interest_prob=0.2, noise_interests=1, seed=1100)
    scn = generate_scenario(spec)
    assert len(scn.users) == 2000
    cfg = ExperimentConfig(
        replicates=30, seed=1101, sweep="spread",
        spread_values=(1.0, 0.9, 0.6, 0.3, 0.1),
        auth_prob_per_hop=(1.0, 0.9, 0.8, 0.7),
        sources="20", max_hops=4)
    started = time.perf_counter()
    runs = run_campaign(scn, cfg)
    elapsed = time.perf_counter() - started
    assert len(runs) == 5 * 2 * 30 * 20
    assert elapsed < 120.0, f"campaign took {elapsed:.1f}s"
