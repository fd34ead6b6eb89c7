from __future__ import annotations

import pytest

from oracles import siot_edges
from siotsim.scenario import read_scenario_dir, write_scenario_dir
from siotsim.siotgraph import RelationshipKind
from siotsim.synth import (SyntheticScenarioSpec, community_of_user,
                           generate_scenario)


def cross_edge_count(scn) -> int:
    count = 0
    for e in siot_edges(scn.siot):
        oa = scn.siot.devices[e.device_a].owner
        ob = scn.siot.devices[e.device_b].owner
        if community_of_user(oa) != community_of_user(ob):
            count += 1
    return count


def test_generated_counts():
    spec = SyntheticScenarioSpec(communities=3, nodes_per_community=7, seed=4)
    scn = generate_scenario(spec)
    assert len(scn.users) == 21
    assert len(scn.siot.devices) == 42
    assert scn.siot.kind_counts()[RelationshipKind.OOR] == 21


def test_cross_edges_exact_and_cross_community():
    spec = SyntheticScenarioSpec(communities=2, nodes_per_community=10,
                                 cross_edges={RelationshipKind.POR: 1}, seed=4)
    scn = generate_scenario(spec)
    assert cross_edge_count(scn) == 1
    assert scn.siot.kind_counts()[RelationshipKind.POR] == 1


def test_friendships_never_cross_communities():
    spec = SyntheticScenarioSpec(communities=3, nodes_per_community=6,
                                 intra_friend_prob=0.9, seed=2)
    scn = generate_scenario(spec)
    for a, b in scn.friendships.edges():
        assert community_of_user(a) == community_of_user(b)


def test_interest_layout():
    all_in = generate_scenario(SyntheticScenarioSpec(seed=1, interest_prob=1.0))
    assert all_in.holders(3) == all_in.users
    none_in = generate_scenario(SyntheticScenarioSpec(seed=1, interest_prob=0.0))
    assert none_in.holders(3) == frozenset()
    noisy = generate_scenario(SyntheticScenarioSpec(seed=1, noise_interests=2))
    assert any(len(p.held) > 1 for p in noisy.profiles.values())


def test_same_seed_reproduces_scenario():
    spec = SyntheticScenarioSpec(communities=2, nodes_per_community=8,
                                 cross_edges={RelationshipKind.SOR: 2}, seed=9)
    a, b = generate_scenario(spec), generate_scenario(spec)
    assert a.friendships.edges() == b.friendships.edges()
    assert siot_edges(a.siot) == siot_edges(b.siot)
    assert a.profiles == b.profiles


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticScenarioSpec(communities=0)
    with pytest.raises(ValueError):
        SyntheticScenarioSpec(intra_friend_prob=1.5)
    with pytest.raises(ValueError):
        SyntheticScenarioSpec(communities=1,
                              cross_edges={RelationshipKind.POR: 1})
    with pytest.raises(ValueError):
        SyntheticScenarioSpec(cross_edges={RelationshipKind.OOR: 1})
    with pytest.raises(ValueError, match="noise_interests must be >= 0, got -1"):
        SyntheticScenarioSpec(noise_interests=-1)


def test_spec_rejects_more_cross_edges_than_cross_pairs():
    """Each kind has (c*n)(c*n-1)/2 - c*n(n-1)/2 distinct cross pairs: one
    for two communities of one user, 12 for three communities of two."""
    SyntheticScenarioSpec(communities=2, nodes_per_community=1,
                          cross_edges={RelationshipKind.SOR: 1})
    with pytest.raises(ValueError, match="5 SOR cross edges, but only 1"):
        SyntheticScenarioSpec(communities=2, nodes_per_community=1,
                              cross_edges={RelationshipKind.SOR: 5})
    full = SyntheticScenarioSpec(communities=3, nodes_per_community=2,
                                 cross_edges={RelationshipKind.CLOR: 12}, seed=5)
    assert cross_edge_count(generate_scenario(full)) == 12
    with pytest.raises(ValueError, match="13 C-LOR cross edges, but only 12"):
        SyntheticScenarioSpec(communities=3, nodes_per_community=2,
                              cross_edges={RelationshipKind.CLOR: 13})


def test_scenario_dir_roundtrip(tmp_path):
    spec = SyntheticScenarioSpec(communities=2, nodes_per_community=5,
                                 cross_edges={RelationshipKind.POR: 1},
                                 noise_interests=1, seed=3)
    scn = generate_scenario(spec)
    write_scenario_dir(scn, tmp_path / "scn")
    loaded = read_scenario_dir(tmp_path / "scn")
    assert loaded.friendships.edges() == scn.friendships.edges()
    assert loaded.friendships.nodes == scn.friendships.nodes
    assert siot_edges(loaded.siot) == siot_edges(scn.siot)
    assert {u: (p.held, dict(p.weights)) for u, p in loaded.profiles.items()} == \
           {u: (p.held, dict(p.weights)) for u, p in scn.profiles.items()}
