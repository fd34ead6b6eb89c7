"""A complete simulation scenario: friendship graph, device graph and
per-user interest profiles, with directory-based persistence."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .humangraph import FriendshipGraph
from .interests import InterestDescriptor, read_profiles_csv, write_profiles_csv
from .siotgraph import (BASE_KINDS, SIoTGraph, read_devices_csv,
                        read_siot_graph, write_devices_csv, write_siot_graph)
from .trace import read_friendships_tsv, write_friendships_tsv

FRIENDSHIPS_FILE = "friendships.tsv"
DEVICES_FILE = "devices.csv"
SIOT_GRAPH_FILE = "siot_graph.csv"
PROFILES_FILE = "profiles.csv"


@dataclass
class Scenario:
    friendships: FriendshipGraph
    siot: SIoTGraph
    profiles: dict[str, InterestDescriptor]
    _isolated: frozenset[str] | None = field(default=None, init=False)
    _holders: dict[int, frozenset[str]] = field(default_factory=dict, init=False)

    @property
    def users(self) -> frozenset[str]:
        return self.friendships.nodes

    def holders(self, interest: int) -> frozenset[str]:
        """Users holding `interest`; cached per interest, like
        `isolated_users`: neither the profiles nor the graphs change."""
        found = self._holders.get(interest)
        if found is None:
            found = self._holders[interest] = frozenset(
                u for u, d in self.profiles.items()
                if interest in d.held and u in self.friendships.adjacency)
        return found

    def isolated_users(self) -> frozenset[str]:
        """Users with no friendship edge and no device relationship to a
        different owner. Such users are unreachable in every mode, so the
        set is mode-independent; cached, which is safe because neither
        graph can change."""
        if self._isolated is None:
            connected = {u for u in self.friendships.nodes
                         if self.friendships.degree(u) > 0}
            connected.update(self.siot.select_kinds(BASE_KINDS).owner_contacts())
            self._isolated = self.users - connected
        return self._isolated


def write_scenario_dir(scenario: Scenario, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_friendships_tsv(scenario.friendships.edges(), out / FRIENDSHIPS_FILE)
    write_devices_csv(scenario.siot.devices, out / DEVICES_FILE)
    write_siot_graph(scenario.siot, out / SIOT_GRAPH_FILE)
    write_profiles_csv(scenario.profiles, out / PROFILES_FILE)


def read_scenario_dir(path: str | Path) -> Scenario:
    base = Path(path)
    devices = read_devices_csv(base / DEVICES_FILE)
    siot = read_siot_graph(base / SIOT_GRAPH_FILE, devices)
    profiles = read_profiles_csv(base / PROFILES_FILE)
    pairs = read_friendships_tsv(base / FRIENDSHIPS_FILE)
    users = {d.owner for d in devices.values()} | {u for p in pairs for u in p}
    friendships = FriendshipGraph(sorted(users), pairs)
    return Scenario(friendships, siot, profiles)
