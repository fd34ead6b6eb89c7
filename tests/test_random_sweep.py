"""A randomized differential sweep: for each seed of a fixed list, a
`random.Random(seed)` draws a `synth` scenario, may add same-model POR
cliques and C-LOR links within communities to its device layer, and draws
a campaign config; `run_campaign`'s `results.csv` must equal
`oracle_campaign`'s byte for byte. A spec with more cross edges of a kind
than distinct cross pairs must be rejected with a `ValueError` naming the
kind, and is then skipped, as is a scenario without a holder of the
interest; any other rejection fails the sweep. A few more seeds each draw a
config over a 30-user scenario of the bench's trace generator, whose
device layer holds the POR cliques of ten device models. Every C-IOR round
the campaigns run must also return the partner map of `oracle_cior_pairs`,
since a wrong round often changes no reach.

`SIOTSIM_SWEEP_SEEDS=N` widens the list to seeds 0..N-1 for a soak run."""

from __future__ import annotations

import os
import random
from dataclasses import replace

import pytest

from conftest import random_nonincreasing, result_csv_text, trace_scenario, with_edges
from oracles import oracle_campaign, oracle_cior_pairs, partner_sets
from siotsim import experiment
from siotsim.experiment import (MODE_ENHANCED, MODE_FRIENDSHIPS,
                                ExperimentConfig, run_campaign)
from siotsim.scenario import Scenario
from siotsim.siotgraph import (BASE_KINDS, RelationshipKind, establish_clor,
                               establish_por)
from siotsim.synth import CROSSABLE_KINDS, SyntheticScenarioSpec, generate_scenario

SEEDS = range(int(os.environ.get("SIOTSIM_SWEEP_SEEDS", "200")))

_KIND_ORDER = sorted(BASE_KINDS, key=lambda k: k.value)


def draw_spec_fields(rnd: random.Random) -> dict:
    """`SyntheticScenarioSpec` fields: 1-4 communities of 2-9 users, POR,
    SOR and C-LOR cross edges, and noise interests. Some cross counts
    exceed the distinct cross pairs."""
    cross = {kind: rnd.randrange(9) for kind in CROSSABLE_KINDS if rnd.random() < 0.6}
    return dict(
        communities=rnd.randint(1, 4), nodes_per_community=rnd.randint(2, 9),
        intra_friend_prob=rnd.random(), cross_edges=cross,
        interest_prob=rnd.uniform(0.3, 1.0), noise_interests=rnd.randrange(3),
        seed=rnd.randrange(1000))


def excess_cross_kind(fields: dict) -> RelationshipKind | None:
    """The first kind with more cross edges than the c(c-1)/2 * n*n
    pairs of users in two different communities, or None."""
    c, n = fields["communities"], fields["nodes_per_community"]
    pairs = c * (c - 1) // 2 * n * n
    return next((k for k, count in fields["cross_edges"].items() if count > pairs), None)


def draw_scenario(rnd: random.Random, spec: SyntheticScenarioSpec) -> Scenario:
    """The spec's scenario, with the POR cliques of its 4 device models and
    the C-LOR links of homes within 0-600 m (homes in a community lie
    about 111 m apart, in a row) each added half of the time."""
    scenario = generate_scenario(spec)
    devices = scenario.siot.devices
    added = []
    if rnd.random() < 0.5:
        added += [(a, b, RelationshipKind.POR) for a, b in establish_por(devices)]
    if rnd.random() < 0.5:
        added += [(a, b, RelationshipKind.CLOR)
                  for a, b in establish_clor(devices, rnd.uniform(0.0, 600.0))]
    return Scenario(scenario.friendships, with_edges(scenario.siot, added),
                    scenario.profiles)


def draw_kinds(rnd: random.Random) -> frozenset[RelationshipKind]:
    kinds = set(rnd.sample(_KIND_ORDER, rnd.randint(1, 4)))
    if rnd.random() < 0.2:
        kinds.add(RelationshipKind.CIOR)
    return frozenset(kinds)


def draw_config(rnd: random.Random) -> ExperimentConfig:
    """Every sweep variable over 1-3 points drawn from small pools, so that
    points repeat; 1-4-entry vectors, `cior` on and off, both origin
    settings, `max_hops` 1-5, TTL 1-6, thresholds 0-1, `include_isolated`
    and `sources` all, 1 or 3."""
    sweep = rnd.choice(["none", "spread", "auth", "kinds", "ttl", "hops"])
    points = rnd.randint(1, 3)
    vectors = [random_nonincreasing(rnd, rnd.randint(1, 4)) for _ in range(2)]
    pools = {
        "spread": ("spread_values", [1.0, 0.6, rnd.random()]),
        "auth": ("auth_values", vectors),
        "kinds": ("kind_sets", [draw_kinds(rnd) for _ in range(2)]),
        "ttl": ("ttl_values", list(range(1, 7))),
        "hops": ("hops_values", list(range(1, 6))),
    }
    swept = {}
    if sweep != "none":
        name, pool = pools[sweep]
        swept[name] = tuple(rnd.choice(pool) for _ in range(points))
    return ExperimentConfig(
        modes=rnd.choice([(MODE_FRIENDSHIPS, MODE_ENHANCED), (MODE_ENHANCED,),
                          (MODE_ENHANCED, MODE_FRIENDSHIPS)]),
        kinds=draw_kinds(rnd), cior=rnd.random() < 0.8, sweep=sweep,
        auth_prob_per_hop=random_nonincreasing(rnd, rnd.randint(1, 4)),
        spread_prob_per_hop=random_nonincreasing(rnd, rnd.randint(1, 4)),
        replicates=rnd.randint(1, 2), seed=rnd.randrange(1000),
        include_isolated=rnd.random() < 0.5, max_hops=rnd.randint(1, 5),
        ttl=rnd.randint(1, 6), sim_threshold=rnd.choice([0.0, 0.5, 1.0, rnd.random()]),
        origin_device=rnd.choice(["mobile", "mobile", "both"]),
        sources=rnd.choice(["all", "1", "3"]), **swept)


@pytest.fixture
def checked_rounds(monkeypatch) -> dict:
    """Checks every round `run_campaign` runs against `oracle_cior_pairs`.
    The test sets `seed` before each campaign, for the failure message;
    `rounds` and `linked` count the rounds checked and those with a pair."""
    state = {"seed": None, "rounds": 0, "linked": 0}
    run_round = experiment.run_cior_round

    def checked_round(sources, graph, kinds, profiles, decisions, interest, **options):
        out = run_round(sources, graph, kinds, profiles, decisions, interest, **options)
        options.pop("memo")
        expected = oracle_cior_pairs(sources, graph, kinds, profiles, decisions,
                                     interest, **options)
        assert out == partner_sets(expected), f"seed {state['seed']}: {kinds} {options}"
        state["rounds"] += 1
        state["linked"] += bool(expected)
        return out

    monkeypatch.setattr(experiment, "run_cior_round", checked_round)
    return state


def test_random_campaigns_equal_the_campaign_oracle(checked_rounds):
    ran = 0
    for seed in SEEDS:
        checked_rounds["seed"] = seed
        rnd = random.Random(seed)
        fields = draw_spec_fields(rnd)
        excess = excess_cross_kind(fields)
        if excess is not None:
            with pytest.raises(ValueError, match=f" {excess.value} cross edges, but only "):
                SyntheticScenarioSpec(**fields)
            continue
        spec = SyntheticScenarioSpec(**fields)
        scenario = draw_scenario(rnd, spec)
        config = draw_config(rnd)
        if not scenario.holders(config.interest):
            continue
        expected = oracle_campaign(scenario, config)
        assert result_csv_text(run_campaign(scenario, config)) == expected, \
            f"seed {seed}: {spec} {config}"
        ran += 1
    assert ran >= 0.7 * len(SEEDS)
    assert checked_rounds["linked"] >= 0.5 * len(SEEDS), checked_rounds


@pytest.mark.parametrize("seed", range(4))
def test_random_campaigns_on_trace_scenarios_equal_the_campaign_oracle(seed, checked_rounds):
    """The trace scenario of generator seed `seed` under a drawn config,
    with POR among the base kinds and `cior` on at odd seeds only. Every
    drawn mode list holds enhanced mode."""
    rnd = random.Random(seed)
    scenario = trace_scenario(seed)
    config = draw_config(rnd)
    config = replace(config, kinds=config.kinds | {RelationshipKind.POR},
                     cior=seed % 2 == 1)
    assert MODE_ENHANCED in config.modes and scenario.holders(config.interest)
    checked_rounds["seed"] = seed
    expected = oracle_campaign(scenario, config)
    assert result_csv_text(run_campaign(scenario, config)) == expected, \
        f"seed {seed}: {config}"
    assert (checked_rounds["rounds"] > 0) == config.cior
