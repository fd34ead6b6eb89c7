from __future__ import annotations

import concurrent.futures
import gc
import pickle
import random
from dataclasses import replace

import pytest

from conftest import (make_devices, mobile, profile, result_csv_text,
                      trace_scenario, traced_peak, with_edges)
from oracles import oracle_campaign, oracle_cior_pairs, partner_sets
from siotsim import experiment, humangraph
from siotsim.experiment import (ExperimentConfig, Mode,
                                SourceRun, build_reach_context, load_config,
                                run_campaign, run_source, select_sources,
                                write_result_csv)
from siotsim.geo import GeoPoint
from siotsim.humangraph import (DEFAULT_MAX_HOPS, AuthorizationMap,
                                AuthorizationPolicy, FriendshipGraph,
                                ReachContext)
from siotsim.protocol import run_cior_round
from siotsim.rng import DrawTable
from siotsim.scenario import Scenario
from siotsim.siotgraph import (FIXED, MOBILE, Device, RelationshipKind, SIoTGraph,
                               establish_por)
from siotsim.synth import SyntheticScenarioSpec, generate_scenario
from siotsim.trace import CheckIn, CoLocation


def scenario_without_siot_edges(users, friend_pairs, holders):
    friendships = FriendshipGraph(users, friend_pairs)
    siot = SIoTGraph(make_devices(users), [])
    profiles = {u: profile(u, {3} if u in holders else set()) for u in users}
    return Scenario(friendships, siot, profiles)


def full_auth(seed=0, replicate=0):
    return AuthorizationMap(DrawTable(seed, replicate), AuthorizationPolicy((1.0,), (1.0,)))


def test_mode_invariants():
    with pytest.raises(ValueError):
        Mode("friendships", frozenset({RelationshipKind.POR}))
    enhanced = Mode.enhanced({RelationshipKind.POR, RelationshipKind.CIOR}, cior=True)
    assert RelationshipKind.CIOR not in enhanced.kinds
    assert enhanced.kinds_label() == "POR+C-IOR"
    assert Mode.friendships().kinds_label() == ""


def test_enhanced_without_device_edges_reduces_to_friendships():
    users = [f"u{i}" for i in range(6)]
    pairs = [("u0", "u1"), ("u1", "u2"), ("u3", "u4")]
    scn = scenario_without_siot_edges(users, pairs, set(users))
    auth = full_auth()
    friend, enhanced = (
        run_source("u0", 3, mode, scn,
                   build_reach_context(scn, 3, mode, auth, DEFAULT_MAX_HOPS))
        for mode in (Mode.friendships(), Mode.enhanced()))
    assert friend.reached == enhanced.reached
    assert friend.hops == enhanced.hops


def two_community_scenario(cior=True):
    spec = SyntheticScenarioSpec(communities=2, nodes_per_community=5,
                                 intra_friend_prob=1.0,
                                 cross_edges={RelationshipKind.POR: 1}, seed=11)
    return generate_scenario(spec)


def test_enhanced_reaches_far_community_friendships_does_not():
    scn = two_community_scenario()
    cfg = ExperimentConfig(replicates=1, sources="all")
    runs = run_campaign(scn, cfg)
    by_mode = {}
    for run in runs:
        by_mode.setdefault(run.mode, {})[run.source] = run
    for source, friend_run in by_mode["friendships"].items():
        enhanced_run = by_mode["enhanced"][source]
        assert friend_run.reached <= enhanced_run.reached
        assert len(friend_run.reached) == 4   # own community only
        assert len(enhanced_run.reached) == 9  # everybody else
        assert friend_run.denominator == enhanced_run.denominator == 9


def hop_chain_scenario():
    """s - x1 - x2 - x3 - t as friends; a device path s .. t of length 3
    through owners that are not interested."""
    users = ["s", "x1", "x2", "x3", "t", "r1", "r2"]
    friendships = FriendshipGraph(
        users, [("s", "x1"), ("x1", "x2"), ("x2", "x3"), ("x3", "t")])
    siot = SIoTGraph(make_devices(users), [
        (mobile(a), mobile(b), RelationshipKind.POR)
        for a, b in [("s", "r1"), ("r1", "r2"), ("r2", "t")]])
    profiles = {u: profile(u, {3}) if u in ("s", "t") else profile(u, set())
                for u in users}
    return Scenario(friendships, siot, profiles)


def test_cior_link_shortens_hops_to_one():
    scn = hop_chain_scenario()
    cfg_on = ExperimentConfig(replicates=1, max_hops=4, cior=True)
    cfg_off = ExperimentConfig(replicates=1, max_hops=4, cior=False)
    on = {r.mode: r for r in run_campaign(scn, cfg_on) if r.source == "s"}
    off = {r.mode: r for r in run_campaign(scn, cfg_off) if r.source == "s"}
    assert off["friendships"].hops == {"t": 4}
    assert off["enhanced"].hops == {"t": 4}   # non-interested relays do not bridge
    assert on["enhanced"].hops == {"t": 1}    # established co-interest link
    assert on["friendships"].hops == {"t": 4}


def test_run_source_requires_interested_source():
    scn = scenario_without_siot_edges(["a", "b"], [("a", "b")], {"b"})
    context = build_reach_context(scn, 3, Mode.friendships(), full_auth(),
                                  DEFAULT_MAX_HOPS)
    with pytest.raises(ValueError):
        run_source("a", 3, Mode.friendships(), scn, context)


def test_campaign_single_source_single_replicate():
    scn = scenario_without_siot_edges(["a", "b"], [("a", "b")], {"a", "b"})
    cfg = ExperimentConfig(replicates=1, sources="all",
                           modes=("friendships", "enhanced"))
    runs = run_campaign(scn, cfg)
    assert len(runs) == 4  # 2 sources x 2 modes
    assert {(r.mode, r.source) for r in runs} == {
        ("friendships", "a"), ("friendships", "b"),
        ("enhanced", "a"), ("enhanced", "b")}


def test_campaign_without_eligible_sources_names_interest():
    scn = scenario_without_siot_edges(["a", "b"], [("a", "b")], set())
    with pytest.raises(ValueError, match="interest 3"):
        run_campaign(scn, ExperimentConfig(replicates=1))


def test_source_subsampling_is_deterministic():
    scn = generate_scenario(SyntheticScenarioSpec(
        communities=2, nodes_per_community=10, seed=3))
    cfg = ExperimentConfig(sources="4", seed=9)
    first = select_sources(scn, cfg)
    assert len(first) == 4
    assert first == select_sources(scn, cfg)
    assert first != select_sources(scn, ExperimentConfig(sources="4", seed=10))


def test_spread_sweep_is_samplewise_monotone():
    spec = SyntheticScenarioSpec(communities=2, nodes_per_community=6,
                                 intra_friend_prob=0.7,
                                 cross_edges={RelationshipKind.POR: 2}, seed=21)
    scn = generate_scenario(spec)
    cfg = ExperimentConfig(replicates=2, sweep="spread",
                           spread_values=(0.1, 0.5, 1.0), seed=5)
    index = {}
    for r in run_campaign(scn, cfg):
        index[(r.mode, r.sweep_value, r.replicate, r.source)] = r
    assert index
    for mode in ("friendships", "enhanced"):
        for rep in range(2):
            for source in {k[3] for k in index}:
                lo = index[(mode, "0.1", rep, source)]
                mid = index[(mode, "0.5", rep, source)]
                hi = index[(mode, "1", rep, source)]
                assert lo.reached <= mid.reached <= hi.reached


def test_holders_match_has_interest_exactly():
    scn = generate_scenario(SyntheticScenarioSpec(
        communities=2, nodes_per_community=8, interest_prob=0.5,
        noise_interests=2, seed=44))
    expected = {u for u, p in scn.profiles.items() if 3 in p.held}
    assert scn.holders(3) == expected


def test_ttl_sweep_is_samplewise_monotone():
    # larger time-to-live lets the profile reach more devices, which can
    # only add co-interest links; coupled draws keep the relation exact
    scn = generate_scenario(SyntheticScenarioSpec(
        communities=3, nodes_per_community=5, intra_friend_prob=0.6,
        cross_edges={RelationshipKind.POR: 2, RelationshipKind.SOR: 2},
        seed=31))
    cfg = ExperimentConfig(replicates=2, seed=8, sweep="ttl",
                           ttl_values=(1, 3, 6), modes=("enhanced",),
                           spread_prob_per_hop=(0.8, 0.6, 0.5, 0.4, 0.3, 0.2))
    index = {}
    for r in run_campaign(scn, cfg):
        index[(r.sweep_value, r.replicate, r.source)] = r
    keys = {(rep, src) for (_, rep, src) in index}
    for rep, src in keys:
        for lo, hi in (("1", "3"), ("3", "6")):
            assert index[(lo, rep, src)].reached <= index[(hi, rep, src)].reached


def test_include_isolated_denominator_arithmetic():
    users = ["a", "b", "lonely"]
    scn = scenario_without_siot_edges(users, [("a", "b")], set(users))
    base = ExperimentConfig(replicates=1, modes=("friendships",))
    with_isolated = run_campaign(scn, base)
    without = run_campaign(
        scn, ExperimentConfig(replicates=1, modes=("friendships",),
                              include_isolated=False))
    a_with = next(r for r in with_isolated if r.source == "a")
    a_without = next(r for r in without if r.source == "a")
    assert a_with.denominator == 2
    assert a_without.denominator == 1
    assert a_without.irn_pct >= a_with.irn_pct


def test_campaign_csv_deterministic_and_seed_sensitive():
    # non-interested intermediaries make reach authorization-sensitive;
    # with every node interested the relaunch process would reach the whole
    # component regardless of the decision draws
    spec = SyntheticScenarioSpec(communities=2, nodes_per_community=8,
                                 intra_friend_prob=0.5, interest_prob=0.6,
                                 noise_interests=1,
                                 cross_edges={RelationshipKind.SOR: 1,
                                              RelationshipKind.POR: 1}, seed=2)
    scn = generate_scenario(spec)
    cfg = ExperimentConfig(replicates=2, seed=7,
                           auth_prob_per_hop=(0.9, 0.6, 0.4, 0.2),
                           spread_prob_per_hop=(0.7, 0.5))
    first = result_csv_text(run_campaign(scn, cfg))
    second = result_csv_text(run_campaign(scn, cfg))
    assert first == second
    import dataclasses
    others = [result_csv_text(run_campaign(scn, dataclasses.replace(cfg, seed=s)))
              for s in range(8, 14)]
    assert any(other != first for other in others)


def test_worker_pool_is_capped_at_the_replicate_count(monkeypatch):
    # a stand-in pool that runs each task in this process and records its size
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    scn = generate_scenario(SyntheticScenarioSpec(communities=2, nodes_per_community=5,
                                                  seed=13))
    cfg = ExperimentConfig(replicates=2, seed=1)
    pooled = result_csv_text(run_campaign(scn, cfg, threads=64))
    assert sizes == [2]
    assert pooled == result_csv_text(run_campaign(scn, cfg, threads=1))
    assert sizes == [2]
    run_campaign(scn, replace(cfg, replicates=1), threads=64)
    assert sizes == [2]
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads"):
            run_campaign(scn, cfg, threads=threads)


def test_threads_do_not_change_results():
    # the auth and hops sweeps give each replicate memos under two keys
    spec = SyntheticScenarioSpec(communities=2, nodes_per_community=5,
                                 cross_edges={RelationshipKind.POR: 1}, seed=13)
    scn = generate_scenario(spec)
    base = ExperimentConfig(replicates=3, seed=1,
                            auth_prob_per_hop=(0.9, 0.6, 0.4, 0.2))
    for cfg in (base,
                replace(base, sweep="auth",
                        auth_values=((0.9, 0.6, 0.4, 0.2), (1.0, 0.5))),
                replace(base, sweep="hops", hops_values=(2, 4))):
        sequential = result_csv_text(run_campaign(scn, cfg, threads=1))
        parallel = result_csv_text(run_campaign(scn, cfg, threads=2))
        assert sequential == parallel
        assert len({r.sweep_value for r in run_campaign(scn, cfg)}) == \
            len(cfg.sweep_points())


def test_records_are_slotted_and_survive_a_pickle_round_trip():
    """The trace, device and run records keep no per-instance dict, and each
    goes to a worker process and back unchanged."""
    home = GeoPoint(38.7, -9.1)
    run = SourceRun("c", 3, "enhanced", "OOR+SOR", "auth", "0.9", 1, "u1",
                    {"u2": 1, "u3": 2}, 4)
    records = [home, CheckIn("u1", 5.0, home, "p1"),
               CoLocation("u1", "u2", 5.0, home, 3.5, 60.0),
               Device("u1:fixed", "u1", FIXED, "m0", home),
               Device("u1:mobile", "u1", MOBILE, "m0", None), run]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and copy is not record
    assert pickle.loads(pickle.dumps(run)).irn_pct == 50.0


def test_writing_results_holds_no_copy_of_the_file(tmp_path):
    """`write_result_csv` builds each row as it writes it, so its peak
    memory does not grow with the number of runs."""
    hops = {f"n{i}": 1 + i % 4 for i in range(30)}
    runs = [SourceRun("c", 3, "enhanced", "OOR+SOR", "auth", "0.9,0.5", r % 30,
                      f"s{r % 20}", hops, 40) for r in range(6000)]
    few, many = runs[:600], runs
    small, large = tmp_path / "small.csv", tmp_path / "large.csv"
    _, small_peak = traced_peak(lambda: write_result_csv(few, small))
    _, large_peak = traced_peak(lambda: write_result_csv(many, large))
    assert large.stat().st_size > 9 * small.stat().st_size
    assert large_peak < small_peak + 64 * 1024, (small_peak, large_peak)


def test_each_friendship_pass_is_computed_once_per_key(monkeypatch):
    """A friendship discovery pass depends only on (replicate, auth vector,
    max_hops, launcher). Across modes and sweep points, including a key
    that comes back after another, each key is computed once."""
    scn = generate_scenario(SyntheticScenarioSpec(
        communities=3, nodes_per_community=8, intra_friend_prob=0.3,
        cross_edges={RelationshipKind.POR: 2, RelationshipKind.SOR: 1},
        interest_prob=0.6, seed=21))
    base = ExperimentConfig(replicates=2, seed=5,
                            auth_prob_per_hop=(0.9, 0.7, 0.5, 0.3))
    key = {}
    real_context = experiment.build_reach_context
    real_discover = humangraph._discover_from
    real_pass = humangraph._friendship_pass

    def context(scenario, interest, mode, auth, max_hops, *args, **kwargs):
        key["now"] = (auth.draws.replicate, auth.policy.auth_prob_per_hop, max_hops)
        return real_context(scenario, interest, mode, auth, max_hops, *args, **kwargs)

    def discover(ctx, start):
        requested.add((key["now"], start))
        return real_discover(ctx, start)

    def friendship_pass(ctx, start):
        computed.append((key["now"], start))
        return real_pass(ctx, start)

    monkeypatch.setattr(experiment, "build_reach_context", context)
    monkeypatch.setattr(humangraph, "_discover_from", discover)
    monkeypatch.setattr(humangraph, "_friendship_pass", friendship_pass)
    for cfg in (replace(base, sweep="spread", spread_values=(1.0, 0.5, 0.2)),
                replace(base, sweep="auth",
                        auth_values=((1.0, 0.8), (0.6, 0.3), (1.0, 0.8))),
                replace(base, sweep="hops", hops_values=(2, 4, 2))):
        requested: set = set()
        computed: list = []
        runs = run_campaign(scn, cfg)
        assert len(runs) == 2 * 2 * len(cfg.sweep_points()) * len(scn.holders(3))
        assert len(computed) == len(requested)
        assert set(computed) == requested


SPARSE = frozenset({RelationshipKind.OOR, RelationshipKind.SOR})
CLIQUES = SPARSE | {RelationshipKind.POR}


def sharing_scenario():
    return generate_scenario(SyntheticScenarioSpec(
        communities=3, nodes_per_community=8, intra_friend_prob=0.3,
        cross_edges={RelationshipKind.POR: 2, RelationshipKind.SOR: 1},
        interest_prob=0.6, seed=21))


def test_sharing_passes_across_points_is_invisible():
    """A campaign whose pass keys interleave (A, B, A) returns the same runs,
    in the same order, as running each point as its own one-point campaign
    and labelling its runs with the point."""
    scn = sharing_scenario()
    base = ExperimentConfig(replicates=2, seed=5,
                            auth_prob_per_hop=(0.9, 0.7, 0.5, 0.3),
                            spread_prob_per_hop=(0.8, 0.6))
    for cfg in (replace(base, sweep="auth",
                        auth_values=((1.0, 0.8), (0.6, 0.3), (1.0, 0.8))),
                replace(base, sweep="hops", hops_values=(2, 4, 2)),
                replace(base, sweep="spread", spread_values=(1.0, 0.6, 0.2)),
                replace(base, sweep="kinds", kind_sets=(SPARSE, CLIQUES, SPARSE))):
        assert cfg.cior
        alone = []
        for point in cfg.sweep_points():
            one = replace(cfg, sweep="none", max_hops=point.max_hops,
                          auth_prob_per_hop=point.policy.auth_prob_per_hop,
                          spread_prob_per_hop=point.policy.spread_prob_per_hop,
                          kinds=point.kinds, ttl=point.ttl)
            alone.append([replace(run, sweep_var=point.var, sweep_value=point.value)
                          for run in run_campaign(scn, one)])
        expected = [run for r in range(cfg.replicates) for runs in alone
                    for run in runs if run.replicate == r]
        assert run_campaign(scn, cfg) == expected


def test_each_distinct_reach_context_is_built_once_per_group(monkeypatch):
    """Within a group of points that share a pass key, a reach context
    depends only on the mode and the round's partner map, so each distinct
    (mode, partner map) is built once per replicate, and its runs are
    relabelled for the later points that have it."""
    built: list = []
    pairs: list = []
    real_context = experiment.build_reach_context
    real_round = experiment.run_cior_round

    def frozen(partners):
        return frozenset((a, b) for a, others in partners.items() for b in others if a < b)

    def context(scenario, interest, mode, auth, max_hops, cior_partners=None,
                passes=None):
        built.append((auth.draws.replicate, mode, frozen(cior_partners or {})))
        return real_context(scenario, interest, mode, auth, max_hops, cior_partners,
                            passes)

    def cior_round(sources, graph, kinds, profiles, decisions, *args, **kwargs):
        found = real_round(sources, graph, kinds, profiles, decisions, *args, **kwargs)
        pairs.append((decisions.draws.replicate, frozenset(kinds), frozen(found)))
        return found

    monkeypatch.setattr(experiment, "build_reach_context", context)
    monkeypatch.setattr(experiment, "run_cior_round", cior_round)
    base = ExperimentConfig(replicates=2, seed=13, auth_prob_per_hop=(0.9, 0.6),
                            spread_prob_per_hop=(0.8, 0.5))
    for scenario, cfg, expected in (
            (sharing_scenario, replace(base, cior=False, sweep="spread",
                                       spread_values=(1.0, 0.6, 0.2, 0.6)), lambda r: 2),
            (sharing_scenario, replace(base, sweep="kinds",
                                       kind_sets=(SPARSE, CLIQUES, SPARSE)), lambda r: 3),
            (clique_scenario, replace(base, sweep="spread",
                                      spread_values=(1.0, 0.6, 0.2, 1.0)),
             lambda r: 1 + len({p for rep, _, p in pairs if rep == r}))):
        built.clear()
        pairs.clear()
        runs = run_campaign(scenario(), cfg)
        assert len(runs) == 2 * 2 * len(cfg.sweep_points()) * len(select_sources(scenario(), cfg))
        for r in range(cfg.replicates):
            assert len([b for b in built if b[0] == r]) == expected(r), cfg.sweep
        assert len(set(built)) == len(built)
    assert len({p for _, _, p in pairs}) > 2  # the clique rounds differ by point


def test_a_campaign_leaves_no_cyclic_garbage():
    """Passes, memos and contexts are freed by reference counting as soon
    as they are dropped, not kept alive in a cycle until the collector
    runs."""
    scn = sharing_scenario()
    base = ExperimentConfig(replicates=2, seed=5,
                            auth_prob_per_hop=(0.9, 0.7, 0.5, 0.3))
    gc.collect()
    gc.disable()
    try:
        for cfg in (replace(base, sweep="spread", spread_values=(1.0, 0.5, 0.2)),
                    replace(base, sweep="auth",
                            auth_values=((1.0, 0.8), (0.6, 0.3), (1.0, 0.8)))):
            run_campaign(scn, cfg)
            assert gc.collect() == 0
    finally:
        gc.enable()


# --- config files -----------------------------------------------------------

GOOD_CONFIG = """
# demo campaign
campaign = demo
interest = 3
modes = friendships, enhanced
kinds = POR, SOR
cior = true
sweep = auth
auth_values = 1.0,0.9,0.8,0.7 ; 0.9,0.7,0.5,0.3
replicates = 4
seed = 17
include_isolated = false
max_hops = 4
ttl = 5
sim_threshold = 0.5
origin_device = mobile
sources = 10
"""


def test_load_config_parses_every_field(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(GOOD_CONFIG, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.campaign == "demo"
    assert cfg.kinds == {RelationshipKind.POR, RelationshipKind.SOR}
    assert cfg.sweep == "auth"
    assert cfg.auth_values == ((1.0, 0.9, 0.8, 0.7), (0.9, 0.7, 0.5, 0.3))
    assert cfg.replicates == 4
    assert cfg.include_isolated is False
    assert cfg.ttl == 5
    assert cfg.sources == "10"
    points = cfg.sweep_points()
    assert [p.value for p in points] == ["1,0.9,0.8,0.7", "0.9,0.7,0.5,0.3"]


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("no_such_key = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no_such_key"):
        load_config(path)


def test_load_config_rejects_bad_values(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("replicates = many\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(path)
    path.write_text("cior = perhaps\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(path)
    path.write_text("just a line\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(path)


@pytest.mark.parametrize("kwargs", [
    dict(kinds=frozenset({RelationshipKind.CIOR})),
    dict(kinds=frozenset()),
    dict(sweep="kinds", kind_sets=(frozenset({RelationshipKind.OOR}),
                                   frozenset({RelationshipKind.CIOR}))),
], ids=["kinds-cior-only", "kinds-empty", "kind-sets-entry-cior-only"])
def test_a_kind_set_without_a_base_kind_is_rejected(kwargs):
    with pytest.raises(ValueError, match="holds no base kind"):
        ExperimentConfig(**kwargs)
    # a mode stays permissive: criterion 2 builds one with explicit links
    assert Mode.enhanced({RelationshipKind.CIOR}).kinds == frozenset()


def test_sweep_points_require_values():
    with pytest.raises(ValueError):
        ExperimentConfig(sweep="spread").sweep_points()
    points = ExperimentConfig(sweep="ttl", ttl_values=(2, 4)).sweep_points()
    assert [p.ttl for p in points] == [2, 4]
    kind_points = ExperimentConfig(
        sweep="kinds",
        kind_sets=(frozenset({RelationshipKind.POR}),
                   frozenset({RelationshipKind.POR, RelationshipKind.SOR})),
    ).sweep_points()
    assert [p.value for p in kind_points] == ["POR", "POR+SOR"]
    hop_points = ExperimentConfig(sweep="hops", hops_values=(1, 2, 4)).sweep_points()
    assert [p.max_hops for p in hop_points] == [1, 2, 4]


def test_hops_sweep_is_samplewise_monotone():
    scn = two_community_scenario()
    cfg = ExperimentConfig(replicates=2, seed=6, sweep="hops",
                           hops_values=(1, 2, 4),
                           auth_prob_per_hop=(0.9, 0.7, 0.5, 0.3))
    index = {}
    for r in run_campaign(scn, cfg):
        index[(r.mode, r.sweep_value, r.replicate, r.source)] = r
    keys = {(m, rep, src) for (m, _, rep, src) in index}
    for mode, rep, src in keys:
        for lo, hi in (("1", "2"), ("2", "4")):
            assert index[(mode, lo, rep, src)].reached <= \
                index[(mode, hi, rep, src)].reached


def test_views_and_adjacency_of_graphs_built_with_more_edges():
    users = ["a", "b", "c"]
    friendships = FriendshipGraph(users, [("a", "b")])
    devices = make_devices(users)
    sor = (mobile("a"), mobile("b"), RelationshipKind.SOR)
    siot = SIoTGraph(devices, [sor])
    kinds = {RelationshipKind.SOR, RelationshipKind.POR}
    view = siot.select_kinds(kinds)
    assert view.neighbors(mobile("a")) == (mobile("b"),)
    assert view.owner_contacts() == {"a": ("b",), "b": ("a",)}
    ctx = ReachContext.for_graph(friendships, users, full_auth())
    assert ctx.adjacency == {"a": ("b",), "b": ("a",), "c": ()}

    siot = SIoTGraph(devices, [sor, (mobile("b"), mobile("c"), RelationshipKind.POR)])

    view = siot.select_kinds(kinds)
    assert view.neighbors(mobile("b")) == (mobile("a"), mobile("c"))
    assert view.owner_contacts() == {"a": ("b",), "b": ("a", "c"), "c": ("b",)}
    assert siot.select_kinds({RelationshipKind.SOR}).owner_contacts() == {
        "a": ("b",), "b": ("a",)}


def clique_scenario() -> Scenario:
    """Three communities whose devices share 4 models, so that POR forms
    dense same-model cliques across them; SOR and C-LOR cross edges join
    some owners, and noise interests spread the similarity of holders."""
    scn = generate_scenario(SyntheticScenarioSpec(
        communities=3, nodes_per_community=10, intra_friend_prob=0.3,
        cross_edges={RelationshipKind.SOR: 4, RelationshipKind.CLOR: 2},
        interest_prob=0.6, noise_interests=2, seed=41))
    por = [(a, b, RelationshipKind.POR) for a, b in establish_por(scn.siot.devices)]
    return Scenario(scn.friendships, with_edges(scn.siot, por), scn.profiles)


def test_an_enhanced_context_changes_neither_the_view_nor_the_round():
    """A context that merges a round's partners copies the view's owner
    contacts: the view's cached contacts, which every later context of the
    kind set reads, and the round's partner map, which the run memo keeps,
    are left as they were."""
    scn = clique_scenario()
    auth = full_auth()
    partners = run_cior_round(sorted(scn.holders(3)), scn.siot, CLIQUES,
                              scn.profiles, auth, 3)
    contacts = scn.siot.select_kinds(CLIQUES).owner_contacts()
    assert partners and any(set(contacts.get(o, ())) - p for o, p in partners.items())
    contacts_before = dict(contacts)
    partners_before = {owner: set(others) for owner, others in partners.items()}
    context = build_reach_context(scn, 3, Mode.enhanced(CLIQUES), auth,
                                  DEFAULT_MAX_HOPS, partners)
    assert scn.siot.select_kinds(CLIQUES).owner_contacts() == contacts_before
    assert partners == partners_before
    for owner, others in partners.items():
        assert set(context.extra_contacts[owner]) == others.union(contacts.get(owner, ()))


@pytest.mark.parametrize("sweep", [
    dict(sweep="kinds", kind_sets=(SPARSE, CLIQUES, SPARSE)),
    dict(sweep="ttl", ttl_values=(1, 3, 6)),
    dict(sweep="spread", spread_values=(1.0, 0.6, 0.2)),
    dict(sweep="kinds", kind_sets=(SPARSE, CLIQUES, SPARSE), origin_device="both"),
], ids=["kinds", "ttl", "spread", "kinds-both-origins"])
def test_shared_round_work_changes_no_result_byte(monkeypatch, sweep):
    """A campaign whose rounds share plans, gates and flood bitmasks writes
    the bytes of one whose every round is `oracle_cior_pairs`, with one
    worker or two, and in one worker its rounds return the oracle's pairs,
    as partner maps, in turn; the rounds link owners that friendships
    alone do not."""
    cfg = ExperimentConfig(replicates=2, seed=13, auth_prob_per_hop=(0.9, 0.6),
                           spread_prob_per_hop=(0.8, 0.5), **sweep)
    returned: dict[str, list] = {"oracle": [], "memo": []}

    def recorded(name, run_round):
        def run(*args, **kwargs):
            returned[name].append(run_round(*args, **kwargs))
            return returned[name][-1]
        return run

    def oracle_round(sources, graph, kinds, profiles, decisions, interest, ttl,
                     sim_threshold, origin_device, memo):
        return partner_sets(oracle_cior_pairs(sources, graph, kinds, profiles, decisions,
                                              interest, ttl, sim_threshold, origin_device))

    with monkeypatch.context() as m:
        m.setattr(experiment, "run_cior_round", recorded("oracle", oracle_round))
        expected = result_csv_text(run_campaign(clique_scenario(), cfg))
    without = result_csv_text(run_campaign(clique_scenario(), replace(cfg, cior=False)))
    assert expected != without
    monkeypatch.setattr(experiment, "run_cior_round",
                        recorded("memo", experiment.run_cior_round))
    for threads in (1, 2):  # two workers record in their own processes
        assert result_csv_text(run_campaign(clique_scenario(), cfg, threads)) == expected
    assert returned["memo"] == returned["oracle"]


SPREADS = dict(sweep="spread", spread_values=(1.0, 0.6, 0.2))
OWN_DEVICES = frozenset({RelationshipKind.OOR})


@pytest.mark.parametrize("scenario, cfg, threads", [
    (sharing_scenario, {}, 1),
    (sharing_scenario, SPREADS, 1),
    (sharing_scenario, dict(SPREADS, cior=False), 1),
    (sharing_scenario, dict(sweep="auth",
                            auth_values=((1.0, 0.8), (0.6, 0.3), (1.0, 0.8))), 1),
    (clique_scenario, dict(sweep="kinds", kind_sets=(SPARSE, CLIQUES, SPARSE)), 1),
    (clique_scenario, dict(sweep="ttl", ttl_values=(1, 3, 6)), 1),
    (sharing_scenario, dict(sweep="hops", hops_values=(2, 4, 2)), 1),
    (clique_scenario, SPREADS, 1),
    (clique_scenario, dict(sweep="kinds", kind_sets=(SPARSE, CLIQUES, SPARSE),
                           origin_device="both"), 1),
    (sharing_scenario, dict(SPREADS, include_isolated=False), 1),
    (clique_scenario, dict(SPREADS, sources="5"), 1),
    (clique_scenario, dict(sweep="hops", hops_values=(2, 4, 2)), 2),
    (trace_scenario, dict(sweep="kinds", kind_sets=(
        OWN_DEVICES, CLIQUES | {RelationshipKind.CLOR}, OWN_DEVICES)), 1),
], ids=["none", "spread", "spread-no-cior", "auth-ABA", "kinds-ABA", "ttl", "hops-ABA",
        "clique-spread", "kinds-both-origins", "without-isolated", "k-sources",
        "two-workers", "trace-kinds-ABA"])
def test_campaign_equals_the_campaign_oracle(scenario, cfg, threads):
    """Every byte of `results.csv`, with all sharing across modes, sweep
    points and sources, equals the campaign rebuilt from per-decision
    draws, oracle rounds and oracle reach."""
    config = ExperimentConfig(replicates=2, seed=5,
                              auth_prob_per_hop=(0.9, 0.7, 0.5, 0.3),
                              spread_prob_per_hop=(0.8, 0.6), **cfg)
    expected = oracle_campaign(scenario(), config)
    assert result_csv_text(run_campaign(scenario(), config, threads)) == expected
