from __future__ import annotations

import importlib
import random
from pathlib import Path

import pytest

from conftest import bool_horizons, random_friend_graph, random_nonincreasing
from conftest import make_devices, profile, trace_scenario
from oracles import oracle_giant_pct, oracle_reach
from siotsim import cli
from siotsim.experiment import Mode, build_reach_context, run_source
from siotsim.humangraph import (DEFAULT_MAX_HOPS, UNBOUNDED, AuthorizationMap,
                                AuthorizationPolicy, FriendshipGraph,
                                ReachContext, _discover_from, _horizon,
                                cooperates, giant_component_pct, interest_reach)
from siotsim.rng import DrawTable
from siotsim.scenario import Scenario, read_scenario_dir
from siotsim.siotgraph import SIoTGraph


def bool_context(adjacency, holders, authorize, max_hops, extra={}):
    return ReachContext({u: tuple(sorted(vs)) for u, vs in adjacency.items()},
                        frozenset(holders), bool_horizons(authorize, adjacency),
                        max_hops, extra)


def graph_of(*edges) -> FriendshipGraph:
    return FriendshipGraph((), edges)


def all_yes(seed=0, replicate=0) -> AuthorizationMap:
    return AuthorizationMap(DrawTable(seed, replicate), AuthorizationPolicy((1.0,), (1.0,)))


def all_no(seed=0, replicate=0) -> AuthorizationMap:
    return AuthorizationMap(DrawTable(seed, replicate), AuthorizationPolicy((0.0,), (0.0,)))


def reach(source, graph, auth, holders, max_hops=4):
    """(direct, best) of `source` over the friendship graph."""
    return interest_reach(source, ReachContext.for_graph(graph, holders, auth,
                                                         max_hops))


def community(source, graph, auth, holders, max_hops=4) -> set[str]:
    """The source plus every interested node its relaunches reach."""
    return set(reach(source, graph, auth, holders, max_hops)[1]) | {source}


# --- policies and decisions ----------------------------------------------------

def test_policy_rejects_bad_vectors():
    with pytest.raises(ValueError):
        AuthorizationPolicy((), (1.0,))
    with pytest.raises(ValueError):
        AuthorizationPolicy((1.2,), (1.0,))
    with pytest.raises(ValueError):
        AuthorizationPolicy((0.5, 0.9), (1.0,))  # increasing per hop


def test_policy_clamps_beyond_last_hop():
    policy = AuthorizationPolicy((1.0, 0.5), (1.0,))
    assert policy.auth_at(1) == 1.0
    assert policy.auth_at(2) == 0.5
    assert policy.auth_at(9) == 0.5


def test_cooperates_threshold_semantics():
    assert cooperates(0.25, 0.3)
    assert not cooperates(0.25, 0.1)
    assert not cooperates(0.25, 0.25)  # strict comparison: draw < prob
    assert cooperates(0.0, 0.0001)
    assert not cooperates(0.9999, 0.0)


def test_degenerate_policies():
    g = graph_of(("a", "b"), ("b", "c"))
    yes = all_yes()
    assert all(yes.authorizes(u, h) for u in g.nodes for h in (1, 2, 3))
    no = all_no()
    assert not any(no.authorizes(u, h) for u in g.nodes for h in (1, 2, 3))


def test_decisions_deterministic_per_seed_replicate():
    g = random_friend_graph(random.Random(3), 20, 0.2)
    policy = AuthorizationPolicy((0.8, 0.5, 0.3), (0.7, 0.4))
    first = AuthorizationMap(DrawTable(11, 2), policy)
    second = AuthorizationMap(DrawTable(11, 2), policy)
    other = AuthorizationMap(DrawTable(11, 3), policy)
    booleans = lambda m: [(u, h, m.authorizes(u, h), m.forwards(u, h))
                          for u in sorted(g.nodes) for h in (1, 2, 3)]
    assert booleans(first) == booleans(second)
    assert booleans(first) != booleans(other)


def test_hop_horizons_equal_the_per_hop_comparison():
    # cooperation is a prefix of hops: `hop <= horizon` must agree with the
    # reference comparison at every hop, past the end of the vector too
    rnd = random.Random(8128)
    nodes = [f"n{i}" for i in range(8)]
    ties = 0
    for _ in range(300):
        draws = DrawTable(rnd.randrange(10_000), rnd.randrange(4))
        # 0.0, 1.0, repeated entries and entries equal to a node's own draw
        pool = [0.0, 1.0, rnd.random(), rnd.random(),
                draws.auth[rnd.choice(nodes)], draws.spread[rnd.choice(nodes)]]
        vectors = [tuple(sorted(rnd.choices(pool, k=rnd.randrange(1, 6)), reverse=True))
                   for _ in range(2)]
        policy = AuthorizationPolicy(*vectors)
        decisions = AuthorizationMap(draws, policy)
        auth_horizon, spread_horizon = decisions.auth_horizons(), decisions.spread_horizons()
        for node in nodes:
            for draw, vec, horizon, prob_at in (
                    (draws.auth[node], policy.auth_prob_per_hop,
                     auth_horizon[node], policy.auth_at),
                    (draws.spread[node], policy.spread_prob_per_hop,
                     spread_horizon[node], policy.spread_at)):
                ties += draw in vec
                assert horizon == UNBOUNDED or 0 <= horizon < len(vec)
                for hop in range(1, len(vec) + 4):
                    assert (hop <= horizon) == cooperates(draw, prob_at(hop)), \
                        (draw, vec, hop, horizon)
    assert ties > 100  # a draw equal to an entry does not cooperate at it
    # one-entry vectors, and draws equal to the last entry
    for draw, vec, horizon in (
            (0.3, (0.5,), UNBOUNDED), (0.5, (0.5,), 0), (0.7, (0.5,), 0),
            (0.0, (0.0,), 0), (0.0, (1.0,), UNBOUNDED),
            (0.3, (0.9, 0.6, 0.3), 2), (0.6, (0.9, 0.6, 0.3), 1),
            (0.2, (0.9, 0.6, 0.3), UNBOUNDED), (0.95, (0.9, 0.6, 0.3), 0),
            (0.3, (0.3, 0.3), 0), (0.3, (0.9, 0.3, 0.3), 1)):
        policy = AuthorizationPolicy(vec)
        assert _horizon(lambda _, hop: cooperates(draw, policy.auth_at(hop)),
                        "e", len(vec)) == horizon, (draw, vec)



# --- discovery fixtures ---------------------------------------------------------

def test_direct_single_interested_friend():
    g = graph_of(("s", "f"))
    direct, best = reach("s", g, all_yes(), {"s", "f"})
    assert set(direct) == {"f"}
    assert best == {"f": 1}


def test_friend_in_direct_set_even_without_authorizing():
    # authorization gates expansion through a node, not its visibility
    g = graph_of(("s", "f"))
    direct, _ = reach("s", g, all_no(), {"s", "f"})
    assert set(direct) == {"f"}


def test_interested_node_behind_non_authorizing_intermediary():
    g = graph_of(("s", "m"), ("m", "t"))
    ctx = bool_context({"s": {"m"}, "m": {"s", "t"}, "t": {"m"}},
                       {"s", "t"}, {"s": True, "m": False, "t": True}, 4)
    direct, best = interest_reach("s", ctx)
    assert "t" not in direct
    assert "t" not in best  # t is not interested-reachable at all here


def test_empty_neighborhood_gives_empty_direct():
    g = FriendshipGraph(["s"], ())
    assert reach("s", g, all_yes(), {"s"})[0] == {}


def test_unknown_source_rejected():
    g = graph_of(("a", "b"))
    with pytest.raises(ValueError):
        reach("zz", g, all_yes(), {"a"})


def test_relaunch_reaches_through_non_authorizing_interested_node():
    # chain s - a - b: a interested but authorizes nothing; as a reached
    # interested node it relaunches and finds b
    g = graph_of(("s", "a"), ("a", "b"))
    ctx = bool_context({"s": {"a"}, "a": {"s", "b"}, "b": {"a"}},
                       {"s", "a", "b"}, {"s": False, "a": False, "b": False}, 4)
    direct, best = interest_reach("s", ctx)
    assert set(direct) == {"a"}
    assert set(best) == {"a", "b"}
    assert best == {"a": 1, "b": 2}
    indirect = set(best) - set(direct) - {"s"}
    assert indirect == {"b"}


def test_indirect_empty_when_direct_reaches_everything():
    g = graph_of(("s", "a"), ("a", "b"), ("s", "b"))
    direct, best = reach("s", g, all_yes(), {"s", "a", "b"})
    assert set(best) - set(direct) - {"s"} == set()


def test_friendship_graph_is_built_whole_from_users_and_pairs():
    g = FriendshipGraph(["s", "lonely"], [("x", "s"), ("s", "y"), ("s", "x")])
    assert g.adjacency == {"s": ("x", "y"), "lonely": (), "x": ("s",), "y": ("s",)}
    assert g.edges() == [("s", "x"), ("s", "y")]
    assert (g.degree("s"), g.degree("lonely"), g.degree("ghost")) == (2, 0, 0)
    with pytest.raises(ValueError, match="self-loop"):
        FriendshipGraph(["a"], [("a", "b"), ("a", "a")])


def test_disconnected_interested_node_unreached():
    g = FriendshipGraph(["s", "x", "lonely"], [("s", "x")])
    members = community("s", g, all_yes(), {"s", "x", "lonely"})
    assert "lonely" not in members
    assert members == {"s", "x"}


def test_community_clique_full_authorization():
    users = ["a", "b", "c", "d"]
    g = FriendshipGraph(users, [(u, v) for u in users for v in users if u < v])
    direct, best = reach("a", g, all_yes(), set(users))
    assert set(best) | {"a"} == set(users)
    assert set(direct) == {"b", "c", "d"}
    assert set(best) - set(direct) == set()


def test_community_excludes_other_component():
    g = graph_of(("a1", "a2"), ("a2", "a3"), ("b1", "b2"))
    assert community("a1", g, all_yes(), {"a1", "a2", "a3", "b1", "b2"}) == \
        {"a1", "a2", "a3"}


def test_singleton_source_community():
    g = FriendshipGraph(["s"], ())
    assert reach("s", g, all_yes(), {"s"}) == ({}, {})
    assert community("s", g, all_yes(), {"s"}) == {"s"}


def test_source_must_hold_interest():
    g = graph_of(("s", "a"))
    scn = Scenario(g, SIoTGraph(make_devices(["s", "a"]), []),
                   {"s": profile("s", {9}), "a": profile("a", {3})})
    context = build_reach_context(scn, 3, Mode.friendships(), all_yes(),
                                  DEFAULT_MAX_HOPS)
    with pytest.raises(ValueError):
        run_source("s", 3, Mode.friendships(), scn, context)


def test_direct_and_indirect_disjoint_subsets_of_holders():
    rnd = random.Random(515)
    for _ in range(50):
        g = random_friend_graph(rnd, 14, 0.25)
        users = sorted(g.nodes)
        holders = {u for u in users if rnd.random() < 0.6}
        policy = AuthorizationPolicy(random_nonincreasing(rnd, 3), (1.0,))
        auth = AuthorizationMap(DrawTable(rnd.randrange(99), 0), policy)
        source = rnd.choice(users)
        holders.add(source)
        direct, best = reach(source, g, auth, holders, max_hops=3)
        indirect = set(best) - set(direct) - {source}
        assert set(direct) & indirect == set()
        assert set(direct) <= holders - {source}
        assert indirect <= holders - {source}
        assert set(best) | {source} <= holders
        assert all(h >= 1 for h in best.values())
        assert all(best[n] <= 3 for n in direct)


# --- oracle equality -------------------------------------------------------------

def random_fixture(rnd: random.Random, with_extra: bool):
    n = rnd.randrange(3, 16)
    g = random_friend_graph(rnd, n, rnd.uniform(0.05, 0.5))
    users = sorted(g.nodes)
    holders = {u for u in users if rnd.random() < rnd.uniform(0.3, 0.9)}
    source = rnd.choice(users)
    holders.add(source)
    adjacency = {u: set(g.adjacency.get(u, ())) for u in users}
    authorize = {u: rnd.random() < 0.6 for u in users}
    extra = {}
    if with_extra:
        for u in users:
            if rnd.random() < 0.3:
                others = [v for v in users if v != u]
                extra[u] = tuple(sorted(rnd.sample(others, rnd.randrange(1, 3))))
    max_hops = rnd.randrange(1, 5)
    return source, adjacency, holders, authorize, max_hops, extra


def test_reach_equals_fixed_point_oracle():
    rnd = random.Random(160493)
    for trial in range(150):
        source, adjacency, holders, authorize, max_hops, extra = \
            random_fixture(rnd, with_extra=trial % 3 == 0)
        ctx = bool_context(adjacency, holders, authorize, max_hops, extra)
        direct, best = interest_reach(source, ctx)
        o_direct, o_best = oracle_reach(source, adjacency,
                                        lambda n, h: authorize.get(n, False),
                                        max_hops, holders, extra)
        assert direct == o_direct
        assert best == o_best


def horizon_context(adjacency, holders, horizon, max_hops, extra={}):
    return ReachContext({u: tuple(sorted(vs)) for u, vs in adjacency.items()},
                        frozenset(holders), horizon, max_hops, extra)


def assert_reach_matches_oracle(source, adjacency, holders, horizon, max_hops,
                                extra={}):
    direct, best = interest_reach(source, horizon_context(
        adjacency, holders, horizon, max_hops, extra))
    o_direct, o_best = oracle_reach(source, adjacency, lambda n, h: h <= horizon[n],
                                    max_hops, holders, extra)
    assert direct == o_direct
    assert best == o_best
    assert source not in best
    # filled level by level, each level in sorted order, never in the
    # order in which a set iterates
    assert list(best) == sorted(best, key=lambda n: (best[n], n))
    return best


def friend_hops(adjacency, source) -> dict[str, int]:
    """Plain BFS distance from `source`, ignoring authorization."""
    hops, frontier = {source: 0}, [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency.get(u, ()):
                if v not in hops:
                    hops[v] = hops[u] + 1
                    nxt.append(v)
        frontier = nxt
    return hops


def dense_holder_fixture(rnd: random.Random):
    """Mostly holders, joined here and there by chains of non-holders, with
    random hop horizons and `max_hops` 1..4."""
    g = random_friend_graph(rnd, rnd.randrange(4, 18), rnd.uniform(0.1, 0.45))
    users = sorted(g.nodes)
    share = rnd.uniform(0.85, 1.0)
    holders = {u for u in users if rnd.random() < share}
    source = rnd.choice(users)
    holders.add(source)
    adjacency = {u: set(g.adjacency.get(u, ())) for u in users}
    for b in range(rnd.randrange(1, 4)):
        a, c = rnd.sample(users, 2)
        chain = [a, *(f"x{b}{i}" for i in range(rnd.randrange(1, 3))), c]
        for p, q in zip(chain, chain[1:]):
            adjacency.setdefault(p, set()).add(q)
            adjacency.setdefault(q, set()).add(p)
    horizon = {u: rnd.choice((0, 1, 2, 3, UNBOUNDED)) for u in adjacency}
    return source, adjacency, holders, horizon, rnd.randrange(1, 5)


def test_reach_equals_oracle_with_dense_holders_and_random_horizons():
    rnd = random.Random(90210)
    relaunched = 0
    for _ in range(200):
        source, adjacency, holders, horizon, max_hops = dense_holder_fixture(rnd)
        best = assert_reach_matches_oracle(source, adjacency, holders, horizon,
                                           max_hops)
        relaunched += any(h > max_hops for h in best.values())
    assert relaunched > 20  # relaunches carry reach past one pass's budget


def test_reach_equals_oracle_with_clique_extra_contacts():
    # device-layer cliques (as POR gives) that hold non-holders too, and put
    # the source one hop from nodes it also reaches as friends at hop >= 2
    rnd = random.Random(4711)
    far_friends = 0
    for _ in range(200):
        source, adjacency, holders, horizon, max_hops = dense_holder_fixture(rnd)
        nodes = sorted(adjacency)
        holders -= set(rnd.sample(nodes, rnd.randrange(0, 3))) - {source}
        cliques = [rnd.sample(nodes, rnd.randrange(2, min(6, len(nodes)) + 1))
                   for _ in range(rnd.randrange(1, 4))]
        far = sorted(n for n, h in friend_hops(adjacency, source).items() if h >= 2)
        if far:
            cliques.append([source, *rnd.sample(far, min(2, len(far)))])
        extra: dict[str, set[str]] = {}
        for clique in cliques:
            for u in clique:
                extra.setdefault(u, set()).update(v for v in clique if v != u)
        extra_contacts = {u: tuple(sorted(vs)) for u, vs in extra.items()}
        assert_reach_matches_oracle(source, adjacency, holders, horizon, max_hops,
                                    extra_contacts)
        far_friends += any(n in holders for n in extra.get(source, ()) if n in far)
    assert far_friends > 20


def test_a_holder_relaunches_past_the_launchers_hop_budget():
    # s - m - h - x - t with a budget of 2 hops: s's pass ends at h, whose
    # relaunch reaches t at 4 cumulative hops
    adjacency = {"s": {"m"}, "m": {"s", "h"}, "h": {"m", "x"},
                 "x": {"h", "t"}, "t": {"x"}}
    horizon = dict.fromkeys(adjacency, UNBOUNDED)
    best = assert_reach_matches_oracle("s", adjacency, {"s", "h", "t"}, horizon, 2)
    assert best == {"h": 2, "t": 4}


def test_a_bridge_expands_when_a_second_launcher_reaches_it_sooner():
    # s reaches the non-holder m at hop 2, past m's horizon of 1, so s's own
    # pass stops there; h, at hop 1, reaches m at hop 1 and sees t through it
    adjacency = {"s": {"n", "h"}, "n": {"s", "m"}, "h": {"s", "m"},
                 "m": {"n", "h", "t"}, "t": {"m"}}
    horizon = dict.fromkeys(adjacency, UNBOUNDED) | {"m": 1}
    best = assert_reach_matches_oracle("s", adjacency, {"s", "h", "t"}, horizon, 4)
    assert best == {"h": 1, "t": 3}


def test_reach_equals_oracle_on_a_generated_trace(tmp_path, monkeypatch):
    # the bench's trace regime: owner contacts from same-model (POR)
    # cliques, and most users holding the interest
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    gen_trace = importlib.import_module("gen_trace")
    inputs = tmp_path / "inputs"
    gen_trace.generate(gen_trace.TraceSpec(users=60, pois=36, days=6), 3, inputs)
    assert cli.main(["ingest", "--checkins", str(inputs / gen_trace.CHECKINS_FILE),
                     "--friendships", str(inputs / gen_trace.FRIENDSHIPS_FILE),
                     "--poi", str(inputs / gen_trace.POI_FILE),
                     "--out", str(tmp_path / "ingest")]) == 0
    assert cli.main(["build-graph", "--ingest", str(tmp_path / "ingest"),
                     "--models", str(inputs / gen_trace.MODELS_FILE),
                     "--seed", "3", "--out", str(tmp_path / "scenario")]) == 0
    scn = read_scenario_dir(tmp_path / "scenario")
    interest = max(range(1, 10), key=lambda i: len(scn.holders(i)))
    holders = scn.holders(interest)
    assert len(holders) > len(scn.friendships.nodes) // 2
    adjacency = {u: set(vs) for u, vs in scn.friendships.adjacency.items()}
    widest_clique = 0
    for probs in ((1.0, 0.9, 0.8, 0.7), (0.8, 0.6, 0.4, 0.2)):
        auth = AuthorizationMap(DrawTable(3, 0), AuthorizationPolicy(probs))
        for mode in (Mode.friendships(), Mode.enhanced(cior=False)):
            ctx = build_reach_context(scn, interest, mode, auth, DEFAULT_MAX_HOPS)
            if ctx.extra_contacts:
                widest_clique = max(map(len, ctx.extra_contacts.values()))
            for source in sorted(holders)[::9]:
                direct, best = interest_reach(source, ctx)
                o_direct, o_best = oracle_reach(source, adjacency, auth.authorizes,
                                                DEFAULT_MAX_HOPS, holders,
                                                ctx.extra_contacts)
                assert direct == o_direct
                assert best == o_best
    assert widest_clique > 10


def test_relaunch_passes_share_the_contexts_layers():
    """Over the POR cliques of a generated trace, a relaunch pass is the
    launcher's `extra_contacts` entry itself, sent at hop 1, and its
    memoized friendship layers, not copies or unions of them."""
    scn = trace_scenario()
    holders = scn.holders(3)
    auth = AuthorizationMap(DrawTable(3, 0), AuthorizationPolicy((0.9, 0.6)))
    ctx = build_reach_context(scn, 3, Mode.enhanced(cior=False), auth, DEFAULT_MAX_HOPS)
    for source in sorted(holders)[::5]:
        interest_reach(source, ctx)
    launchers = [key[0] for key in ctx.passes if not key[1]]
    assert len(launchers) > len(holders) // 2
    widest = 0
    for launcher in launchers:
        contacts, layers = _discover_from(ctx, launcher)
        assert contacts is ctx.extra_contacts[launcher]
        assert layers is ctx.passes[launcher, False]
        widest = max(widest, len(contacts))
    assert widest > 10


def test_monotone_dominance_under_edge_addition_and_decision_flip():
    rnd = random.Random(77)
    for _ in range(60):
        source, adjacency, holders, authorize, max_hops, _ = random_fixture(rnd, False)
        ctx = bool_context(adjacency, holders, authorize, max_hops)
        direct, best = interest_reach(source, ctx)

        users = sorted(adjacency)
        a, b = rnd.sample(users, 2) if len(users) >= 2 else (users[0], users[0])
        bigger = {u: set(vs) for u, vs in adjacency.items()}
        if a != b:
            bigger[a].add(b)
            bigger[b].add(a)
        direct2, best2 = interest_reach(source, bool_context(
            bigger, holders, authorize, max_hops))
        assert set(direct) <= set(direct2)
        assert set(best) <= set(best2)

        flipped = dict(authorize)
        off = [u for u, v in flipped.items() if not v]
        if off:
            flipped[rnd.choice(off)] = True
        direct3, best3 = interest_reach(source, bool_context(
            adjacency, holders, flipped, max_hops))
        assert set(direct) <= set(direct3)
        assert set(best) <= set(best3)


def test_hop_counts_shrink_when_policy_rises():
    # coupled draws: raising every per-hop probability can only add reach
    # and lower first-reach hops
    rnd = random.Random(1234)
    for _ in range(40):
        g = random_friend_graph(rnd, 12, 0.3)
        users = sorted(g.nodes)
        holders = set(rnd.sample(users, 8))
        source = rnd.choice(sorted(holders))
        low_vec = random_nonincreasing(rnd, 3)
        high_vec = tuple(min(1.0, v + 0.3) for v in low_vec)
        seed = rnd.randrange(1000)
        low = AuthorizationMap(DrawTable(seed, 0), AuthorizationPolicy(low_vec, (1.0,)))
        high = AuthorizationMap(DrawTable(seed, 0), AuthorizationPolicy(high_vec, (1.0,)))
        _, best_low = reach(source, g, low, holders)
        _, best_high = reach(source, g, high, holders)
        assert set(best_low) <= set(best_high)
        for n, h in best_low.items():
            assert best_high[n] <= h


# --- giant component -------------------------------------------------------------

def test_giant_component_trivial_cases():
    assert giant_component_pct(["a", "b", "c", "d"], []) == 25.0
    assert giant_component_pct(["a", "b", "c"], [("a", "b"), ("b", "c")]) == 100.0


def test_giant_component_mixed_sizes():
    edges = [(f"x{i}", f"x{i+1}") for i in range(4)]          # size 5
    edges += [(f"y{i}", f"y{i+1}") for i in range(2)]         # size 3
    edges += [("z0", "z1")]                                   # size 2
    nodes = [f"x{i}" for i in range(5)] + [f"y{i}" for i in range(3)] + ["z0", "z1"]
    assert giant_component_pct(nodes, edges) == 50.0


def test_giant_component_rejects_empty_node_set():
    with pytest.raises(ValueError):
        giant_component_pct([], [])


def test_giant_component_matches_bfs_oracle():
    rnd = random.Random(31337)
    for _ in range(80):
        n = rnd.randrange(1, 40)
        nodes = [f"n{i}" for i in range(n)]
        edges = [(a, b) for a in nodes for b in nodes
                 if a < b and rnd.random() < 0.08]
        assert giant_component_pct(nodes, edges) == oracle_giant_pct(nodes, edges)
