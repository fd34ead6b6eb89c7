"""Experiment campaigns: discovery runs per source in friendships-only vs
device-enhanced modes, swept over cooperation levels, relationship kinds
and hop budgets, with coupled randomness across modes and sweep points.

The coupling also shares work. Each replicate has one draw table
(`rng.DrawTable`) that every sweep point and mode reads. Friendship
discovery passes depend only on the replicate, the auth vector, `max_hops`
and the launcher, so each (auth vector, `max_hops`) pass key of a
replicate owns one memo of passes for both modes of all its points. Given
the pass key, a run depends only on its context's holder contact map:
the device and C-IOR contacts between holders, `{}` in friendships mode.
So the key also owns the runs of each distinct map, and a (point, mode)
whose context has a map already seen reuses those runs, relabelled.
Sharing is keyed on reach inputs only, never on results: partners are a
round's output but an input of reach, and every round still runs."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterable, KeysView, Mapping, Sequence

from . import rng
from .humangraph import (DEFAULT_MAX_HOPS, AuthorizationMap,
                         AuthorizationPolicy, PassMemo, ReachContext,
                         interest_reach)
from .interests import DEFAULT_SIMILARITY_THRESHOLD
from .protocol import (DEFAULT_TTL, ORIGIN_BOTH, ORIGIN_MOBILE, RoundMemo,
                       run_cior_round)
from .scenario import Scenario
from .siotgraph import BASE_KINDS, RelationshipKind, parse_kind
from .trace import read_csv_rows, write_csv_rows

MODE_FRIENDSHIPS = "friendships"
MODE_ENHANCED = "enhanced"


@dataclass(frozen=True)
class Mode:
    """Reach mode: friendships only, or friendships plus the device layer
    with the given relationship kinds (and protocol-established co-interest
    links when `cior` is set)."""

    name: str
    kinds: frozenset[RelationshipKind] = frozenset()
    cior: bool = False

    def __post_init__(self) -> None:
        if self.name not in (MODE_FRIENDSHIPS, MODE_ENHANCED):
            raise ValueError(f"unknown mode: {self.name!r}")
        if self.name == MODE_FRIENDSHIPS and (self.kinds or self.cior):
            raise ValueError("friendships mode uses zero device edges")

    @staticmethod
    def friendships() -> "Mode":
        return Mode(MODE_FRIENDSHIPS)

    @staticmethod
    def enhanced(kinds: Iterable[RelationshipKind] = BASE_KINDS,
                 cior: bool = True) -> "Mode":
        return Mode(MODE_ENHANCED, frozenset(kinds) - {RelationshipKind.CIOR}, cior)

    def kinds_label(self) -> str:
        if self.name == MODE_FRIENDSHIPS:
            return ""
        parts = sorted(k.value for k in self.kinds)
        if self.cior:
            parts.append(RelationshipKind.CIOR.value)
        return "+".join(parts)


@dataclass(frozen=True)
class SweepPoint:
    var: str
    value: str
    policy: AuthorizationPolicy
    ttl: int
    kinds: frozenset[RelationshipKind]
    max_hops: int


def _fmt(v: float) -> str:
    return f"{v:g}"


# each sweep variable's config field of values, the base field its values
# replace, and its point at one value as a change to the base point
_SWEEPS: dict[str, tuple[str, str, Callable[[SweepPoint, Any], SweepPoint]]] = {
    "spread": ("spread_values", "spread_prob_per_hop", lambda p, v: replace(
        p, value=_fmt(v), policy=replace(p.policy, spread_prob_per_hop=(v,)))),
    "auth": ("auth_values", "auth_prob_per_hop", lambda p, vec: replace(
        p, value=",".join(_fmt(x) for x in vec),
        policy=replace(p.policy, auth_prob_per_hop=vec))),
    "kinds": ("kind_sets", "kinds", lambda p, kinds: replace(
        p, value="+".join(sorted(k.value for k in kinds)), kinds=kinds)),
    "ttl": ("ttl_values", "ttl", lambda p, t: replace(p, value=str(t), ttl=t)),
    "hops": ("hops_values", "max_hops", lambda p, h: replace(p, value=str(h), max_hops=h)),
}

# the keys only a C-IOR round reads, with both fields of the sweeps that
# vary only its inputs
_ROUND_KEYS = {"sim_threshold", "origin_device",
               *(name for var in ("ttl", "spread") for name in _SWEEPS[var][:2])}


def irn_percentage(reached_count: int, denominator: int) -> float:
    """Percentage of the interested nodes a source reached. `run` and
    `report` both aggregate this exact value, never its rounded text."""
    if denominator == 0:
        return 0.0
    return 100.0 * reached_count / denominator


@dataclass(frozen=True, slots=True)
class SourceRun:
    campaign: str
    interest: int
    mode: str
    kinds: str
    sweep_var: str
    sweep_value: str
    replicate: int
    source: str
    hops: dict[str, int]  # every reached node, the source excluded
    denominator: int

    @property
    def reached(self) -> KeysView[str]:
        return self.hops.keys()

    @property
    def irn_pct(self) -> float:
        return irn_percentage(len(self.hops), self.denominator)

    @property
    def mean_hops(self) -> float | None:
        if not self.hops:
            return None
        return sum(self.hops.values()) / len(self.hops)


@dataclass(frozen=True)
class ExperimentConfig:
    campaign: str = "campaign"
    scenario: str | None = None
    interest: int = 3
    modes: tuple[str, ...] = (MODE_FRIENDSHIPS, MODE_ENHANCED)
    kinds: frozenset[RelationshipKind] = BASE_KINDS
    cior: bool = True
    sweep: str = "none"
    spread_values: tuple[float, ...] = ()
    auth_values: tuple[tuple[float, ...], ...] = ()
    kind_sets: tuple[frozenset[RelationshipKind], ...] = ()
    ttl_values: tuple[int, ...] = ()
    hops_values: tuple[int, ...] = ()
    auth_prob_per_hop: tuple[float, ...] = (1.0,)
    spread_prob_per_hop: tuple[float, ...] = (1.0,)
    replicates: int = 30
    seed: int = 0
    include_isolated: bool = True
    max_hops: int = DEFAULT_MAX_HOPS
    ttl: int = DEFAULT_TTL
    sim_threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    origin_device: str = ORIGIN_MOBILE
    sources: str = "all"

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.sweep != "none" and self.sweep not in _SWEEPS:
            raise ValueError(f"unknown sweep variable: {self.sweep!r}")
        if not self.modes:
            raise ValueError("modes names no mode")
        for n, mode in enumerate(self.modes):
            if mode not in (MODE_FRIENDSHIPS, MODE_ENHANCED):
                raise ValueError(f"unknown mode: {mode!r}")
            if mode in self.modes[:n]:
                raise ValueError(f"mode {mode!r} given twice")
        if self.origin_device not in (ORIGIN_MOBILE, ORIGIN_BOTH):
            raise ValueError(f"unknown origin_device: {self.origin_device!r}")
        if self.sources != "all" and not (self.sources.isdecimal()
                                          and int(self.sources) >= 1):
            raise ValueError("sources must be 'all' or an integer >= 1, "
                             f"got {self.sources!r}")
        if not 0.0 <= self.sim_threshold <= 1.0:  # also turns away NaN
            raise ValueError(f"sim_threshold must be in [0, 1], got {self.sim_threshold}")
        if self.ttl < 1 or self.max_hops < 1:
            raise ValueError("ttl and max_hops must be >= 1")
        for kinds in (self.kinds, *self.kind_sets):
            if not kinds - {RelationshipKind.CIOR}:
                label = "+".join(sorted(k.value for k in kinds))
                raise ValueError(f"kind set {label!r} holds no base kind")
        if any(t < 1 for t in self.ttl_values) or any(h < 1 for h in self.hops_values):
            raise ValueError("ttl_values and hops_values must be >= 1")
        self.sweep_points()  # validates probability vectors and sweep values

    def sweep_points(self) -> list[SweepPoint]:
        policy = AuthorizationPolicy(self.auth_prob_per_hop, self.spread_prob_per_hop)
        base = SweepPoint(self.sweep, "", policy, self.ttl, self.kinds, self.max_hops)
        if self.sweep == "none":
            return [base]
        name, _, point_at = _SWEEPS[self.sweep]
        if not getattr(self, name):
            raise ValueError(f"sweep={self.sweep} needs {name}")
        return [point_at(base, v) for v in getattr(self, name)]

    def mode_for(self, name: str, point: SweepPoint) -> Mode:
        if name == MODE_FRIENDSHIPS:
            return Mode.friendships()
        return Mode.enhanced(point.kinds, self.cior)


_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _parse_bool(value: str) -> bool:
    try:
        return _BOOL_VALUES[value.strip().lower()]
    except KeyError:
        raise ValueError("expected a boolean") from None


def _items(value: str, sep: str = ",") -> list[str]:
    return [x.strip() for x in value.split(sep) if x.strip()]


def _parse_floats(value: str) -> tuple[float, ...]:
    return tuple(float(x) for x in _items(value))


def _parse_kindset(value: str) -> frozenset[RelationshipKind]:
    return frozenset(parse_kind(x) for x in _items(value))


# one parser per annotation of an ExperimentConfig field
_PARSERS: dict[str, Callable[[str], object]] = {
    "str": str,
    "str | None": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[str, ...]": lambda v: tuple(_items(v)),
    "tuple[int, ...]": lambda v: tuple(int(x) for x in _items(v)),
    "tuple[float, ...]": _parse_floats,
    "tuple[tuple[float, ...], ...]": lambda v: tuple(map(_parse_floats, _items(v, ";"))),
    "frozenset[RelationshipKind]": _parse_kindset,
    "tuple[frozenset[RelationshipKind], ...]":
        lambda v: tuple(map(_parse_kindset, _items(v, ";"))),
}
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat `key = value` experiment config file. Unknown keys,
    keys given twice and keys that no sweep point reads are fatal, and
    every error names the file."""
    kwargs: dict = {}
    lines: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            parse = _FIELD_PARSERS.get(key)
            if parse is None:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in lines:
                raise ValueError(f"{path}:{lineno}: config key {key!r} given twice")
            lines[key] = lineno
            try:
                kwargs[key] = parse(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: "
                                 f"{value!r} ({exc})") from exc
    try:
        config = ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    # no point reads another sweep's values, or the base field its own replace
    unread = dict.fromkeys(lines.keys() & {base if var == config.sweep else values
                                           for var, (values, base, _) in _SWEEPS.items()},
                           f"under sweep = {config.sweep}")
    if not (config.cior and MODE_ENHANCED in config.modes):
        unread.update(dict.fromkeys(lines.keys() & _ROUND_KEYS, "when no C-IOR round runs"))
    if unread:
        key = min(unread, key=lines.get)
        raise ValueError(f"{path}:{lines[key]}: config key {key!r} is not read {unread[key]}")
    return config


def build_reach_context(scenario: Scenario, interest: int, mode: Mode,
                        auth: AuthorizationMap, max_hops: int,
                        cior_partners: Mapping[str, set[str]] | None = None,
                        passes: PassMemo | None = None) -> ReachContext:
    """Assemble the reachability context for one (mode, decisions) pair.

    In enhanced mode every holder additionally sees, one hop away, the
    holders owning devices linked to its own in the selected-kind view,
    plus its partners in `cior_partners`, a C-IOR round's partner map of
    holders, merged as sorted tuples so that equal contacts give equal
    maps. Neither the view's contacts nor the partner sets are changed.
    `passes` shares friendship passes with other contexts of the same
    interest, auth vector and `max_hops` (see `ReachContext`)."""
    holders = scenario.holders(interest)
    extra = {}
    if mode.name == MODE_ENHANCED:
        base = (scenario.siot.select_kinds(mode.kinds).owner_contacts(holders)
                if mode.kinds else {})
        extra = base
        if cior_partners:
            extra = dict(base)
            for owner, partners in cior_partners.items():
                extra[owner] = tuple(sorted(partners.union(base.get(owner, ()))))
    return ReachContext.for_graph(scenario.friendships, holders, auth,
                                  max_hops, extra, passes)


def run_source(source: str, interest: int, mode: Mode, scenario: Scenario,
               context: ReachContext, include_isolated: bool = True,
               campaign: str = "adhoc", sweep_var: str = "none",
               sweep_value: str = "", replicate: int = 0) -> SourceRun:
    """One discovery run: everything the source can reach for the interest
    under the mode, with minimum hop counts. `context` comes from
    `build_reach_context` for the same interest and mode."""
    if source not in context.holders:
        raise ValueError(f"source {source!r} does not hold interest {interest}")
    _, best = interest_reach(source, context)  # never holds the source
    denominator = (len(context.holders) - 1 if include_isolated else
                   len(context.holders - scenario.isolated_users() - {source}))
    return SourceRun(
        campaign=campaign,
        interest=interest,
        mode=mode.name,
        kinds=mode.kinds_label(),
        sweep_var=sweep_var,
        sweep_value=sweep_value,
        replicate=replicate,
        source=source,
        hops=best,
        denominator=denominator,
    )


def select_sources(scenario: Scenario, config: ExperimentConfig) -> list[str]:
    holders = sorted(scenario.holders(config.interest))
    if not holders:
        raise ValueError(f"no eligible sources hold interest {config.interest}")
    if config.sources == "all":
        return holders
    k = int(config.sources)
    if k >= len(holders):
        return holders
    return sorted(rng.stream(config.seed, "sources", config.interest).sample(holders, k))


def _pass_key(point: SweepPoint) -> tuple[tuple[float, ...], int]:
    """What a friendship pass depends on within a replicate, besides its
    launcher."""
    return point.policy.auth_prob_per_hop, point.max_hops


def _run_replicate(scenario: Scenario, config: ExperimentConfig,
                   sources: Sequence[str], replicate: int,
                   rounds: RoundMemo) -> list[SourceRun]:
    """Every (sweep point, mode, source) run of one replicate, in point
    order. Each `_pass_key` owns a memo of friendship passes and the runs of
    each distinct holder contact map (`ReachContext.extra_contacts`); a
    (point, mode) whose map is there reuses those runs, relabelled. Maps are
    compared, not hashed, so a round's map is never copied. A key's memo
    and runs go after its last point, so interleaved keys, as in
    `hops_values = 2, 4, 2`, keep both alive between their points.
    `rounds` is the campaign's memo of C-IOR plans."""
    all_holders = sorted(scenario.holders(config.interest))
    draws = rng.DrawTable(config.seed, replicate)
    points = config.sweep_points()
    last = {_pass_key(point): i for i, point in enumerate(points)}
    shared: dict[tuple, tuple[PassMemo, list[tuple[Mapping, list[SourceRun]]]]] = {}
    out: list[SourceRun] = []
    for i, point in enumerate(points):
        key = _pass_key(point)
        passes, kept = shared.setdefault(key, ({}, []))
        auth = AuthorizationMap(draws, point.policy)
        for mode_name in config.modes:
            mode = config.mode_for(mode_name, point)
            partners: dict[str, set[str]] = {}
            if mode.cior and mode.kinds:
                partners = run_cior_round(
                    all_holders, scenario.siot, mode.kinds, scenario.profiles,
                    auth, config.interest, ttl=point.ttl,
                    sim_threshold=config.sim_threshold,
                    origin_device=config.origin_device, memo=rounds)
            context = build_reach_context(scenario, config.interest, mode, auth,
                                          point.max_hops, partners, passes)
            seen = next((runs for held, runs in kept if held == context.extra_contacts), None)
            if seen is not None:
                kinds = mode.kinds_label()
                out.extend(SourceRun(
                    run.campaign, run.interest, mode.name, kinds, point.var,
                    point.value, run.replicate, run.source, run.hops,
                    run.denominator) for run in seen)
                continue
            runs = [run_source(source, config.interest, mode, scenario, context,
                               include_isolated=config.include_isolated,
                               campaign=config.campaign, sweep_var=point.var,
                               sweep_value=point.value, replicate=replicate)
                    for source in sources]
            kept.append((context.extra_contacts, runs))
            out.extend(runs)
        if last[key] == i:
            del shared[key]
    return out


def run_campaign(scenario: Scenario, config: ExperimentConfig) -> list[SourceRun]:
    """Run the full campaign: every (sweep point, mode, replicate, source)
    combination, one replicate after another. Replicates use independent
    decision draws, so results are deterministic for a fixed seed. The
    C-IOR rounds of all replicates share one `RoundMemo`."""
    sources = select_sources(scenario, config)
    rounds: RoundMemo = {}
    return [run for r in range(config.replicates)
            for run in _run_replicate(scenario, config, sources, r, rounds)]


RESULT_HEADER = ["campaign", "interest", "mode", "kinds", "sweep_var",
                 "sweep_value", "replicate", "source", "reached",
                 "denominator", "irn_pct", "mean_hops"]


def write_result_csv(runs: Iterable[SourceRun], path: str | Path) -> None:
    """Write one row per run, each row built as it is written, so that no
    copy of the whole file is held."""
    def rows() -> Iterable[list[str]]:
        for run in runs:
            mean_hops = run.mean_hops
            yield [run.campaign, str(run.interest), run.mode, run.kinds,
                   run.sweep_var, run.sweep_value, str(run.replicate), run.source,
                   str(len(run.hops)), str(run.denominator), f"{run.irn_pct:.6g}",
                   "" if mean_hops is None else f"{mean_hops:.6g}"]
    write_csv_rows(path, RESULT_HEADER, rows())


@dataclass(frozen=True)
class ResultRow:
    """A re-loaded result record; carries the aggregate numbers but not the
    per-node reach sets."""

    campaign: str
    interest: int
    mode: str
    kinds: str
    sweep_var: str
    sweep_value: str
    replicate: int
    source: str
    reached_count: int
    denominator: int
    mean_hops: float | None

    @property
    def irn_pct(self) -> float:
        return irn_percentage(self.reached_count, self.denominator)


def _parse_result(row: list[str]) -> ResultRow:
    (campaign, interest, mode, kinds, sweep_var, sweep_value,
     replicate, source, reached, denominator, _, mean_hops) = row
    return ResultRow(campaign, int(interest), mode, kinds, sweep_var, sweep_value,
                     int(replicate), source, int(reached), int(denominator),
                     float(mean_hops) if mean_hops else None)


def read_result_csv(path: str | Path) -> list[ResultRow]:
    return list(read_csv_rows(path, RESULT_HEADER, "result", _parse_result))
