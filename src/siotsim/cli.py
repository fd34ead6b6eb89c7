"""Command-line entry point wiring the pipeline stages together.

Subcommands: `ingest` (traces to profiles), `build-graph` (device layer),
`synth` (generated desk-scale scenarios), `run` (experiment campaigns) and
`report` (re-aggregation of result files). Exit codes: 0 success, 1 runtime
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import experiment, report, scenario, synth, trace
from . import interests as im
from . import siotgraph as sg

COLOCATIONS_FILE = "colocations.csv"
HOME_POINTS_FILE = "home_points.csv"


def _require_file(parser: argparse.ArgumentParser, path: str | None, flag: str) -> Path:
    if path is None:
        parser.error(f"missing required flag {flag}")
    p = Path(path)
    if not p.is_file():
        parser.error(f"{flag}: file not found: {p}")
    return p


def _require_dir(parser: argparse.ArgumentParser, path: str | None, flag: str) -> Path:
    if path is None:
        parser.error(f"missing required flag {flag}")
    p = Path(path)
    if not p.is_dir():
        parser.error(f"{flag}: directory not found: {p}")
    return p


def _load_config(parser: argparse.ArgumentParser,
                 path: str | None) -> experiment.ExperimentConfig:
    if path is None:
        return experiment.ExperimentConfig()
    cfg_path = _require_file(parser, path, "--config")
    try:
        return experiment.load_config(cfg_path)
    except ValueError as exc:
        parser.error(str(exc))


def _threshold(kind: type, positive: bool = True):
    """argparse type for a threshold or count flag: a `kind` that is > 0,
    or >= 0 when not `positive`."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number, got {text!r}") from None
        if not (value > 0 if positive else value >= 0):
            raise argparse.ArgumentTypeError(
                f"must be {'positive' if positive else 'non-negative'}, got {text!r}")
        return value
    return parse


def cmd_ingest(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    checkins_path = _require_file(parser, args.checkins, "--checkins")
    friendships_path = _require_file(parser, args.friendships, "--friendships")
    poi_path = _require_file(parser, args.poi, "--poi")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    corpus = trace.parse_checkins(checkins_path)
    corpus = trace.parse_friendships(friendships_path, corpus)
    corpus = trace.filter_active_users(corpus, args.min_checkins, args.min_places)
    colocs = trace.detect_colocations(corpus, args.radius, args.window)
    homes = trace.compute_home_points(corpus, args.cell_deg)
    catalog = im.load_poi_catalog(poi_path)
    macros = (im.load_macro_categories(_require_file(parser, args.macros, "--macros"))
              if args.macros else im.default_macro_categories())
    assignments = im.assign_colocation_interests(colocs, catalog, macros,
                                                 args.poi_radius)
    profiles = im.build_profiles(assignments, colocs, args.interest_threshold)

    trace.write_friendships_tsv(corpus.friendships, out / scenario.FRIENDSHIPS_FILE)
    trace.write_colocations_csv(colocs, out / COLOCATIONS_FILE)
    trace.write_home_points_csv(homes, out / HOME_POINTS_FILE)
    im.write_profiles_csv(profiles, out / scenario.PROFILES_FILE)
    print(f"ingest: {len(corpus.users)} active users, {len(colocs)} co-locations, "
          f"{len(profiles)} profiles -> {out}")
    return 0


def cmd_build_graph(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    ingest_dir = _require_dir(parser, args.ingest, "--ingest")
    for name in (scenario.FRIENDSHIPS_FILE, COLOCATIONS_FILE, HOME_POINTS_FILE,
                 scenario.PROFILES_FILE):
        _require_file(parser, str(ingest_dir / name), f"--ingest ({name})")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    homes = trace.read_home_points_csv(ingest_dir / HOME_POINTS_FILE)
    colocs = trace.read_colocations_csv(ingest_dir / COLOCATIONS_FILE)
    pairs = trace.read_friendships_tsv(ingest_dir / scenario.FRIENDSHIPS_FILE)
    catalog = (sg.load_model_catalog(_require_file(parser, args.models, "--models"))
               if args.models else sg.default_model_catalog())
    devices = sg.instantiate_devices(sorted(homes), homes, catalog, args.seed)
    graph = sg.build_siot_graph(devices, colocs, args.sor_threshold, args.clor_radius)

    trace.write_friendships_tsv(pairs, out / scenario.FRIENDSHIPS_FILE)
    sg.write_devices_csv(devices, out / scenario.DEVICES_FILE)
    sg.write_siot_graph(graph, out / scenario.SIOT_GRAPH_FILE)
    profiles_src = (ingest_dir / scenario.PROFILES_FILE).read_text(encoding="utf-8")
    (out / scenario.PROFILES_FILE).write_text(profiles_src, encoding="utf-8")

    counts, edges = graph.kind_counts(), graph.edge_count()
    lines = [f"devices {len(devices)}", f"edges {edges}"]
    lines += [f"{kind.value} {counts[kind]}" for kind in sg.RelationshipKind]
    (out / "stats.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"build-graph: {len(devices)} devices, {edges} edges -> {out}")
    return 0


def _parse_cross(text: str) -> dict:
    """`--cross KIND=COUNT[,KIND=COUNT...]`, each kind at most once."""
    cross = {}
    for part in text.split(",") if text else ():
        kind_text, eq, count = part.partition("=")
        try:
            kind = sg.parse_kind(kind_text.strip())
            if not eq:
                raise ValueError("expected KIND=COUNT")
            if kind in cross:
                raise ValueError(f"{kind.value} given twice")
            cross[kind] = int(count)
        except ValueError as exc:
            raise ValueError(f"--cross: bad item {part!r}: {exc}") from None
    return cross


def cmd_synth(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        spec = synth.SyntheticScenarioSpec(
            communities=args.communities,
            nodes_per_community=args.nodes,
            intra_friend_prob=args.intra_prob,
            cross_edges=_parse_cross(args.cross),
            interest=args.interest,
            interest_prob=args.interest_prob,
            noise_interests=args.noise_interests,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    scn = synth.generate_scenario(spec)
    scenario.write_scenario_dir(scn, args.out)
    print(f"synth: {len(scn.users)} users, {scn.siot.edge_count()} device edges -> {args.out}")
    return 0


def cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    cfg = _load_config(parser, args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    scenario_dir = args.scenario or cfg.scenario
    scn = scenario.read_scenario_dir(_require_dir(parser, scenario_dir, "--scenario"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    runs = experiment.run_campaign(scn, cfg, threads=args.threads)
    experiment.write_result_csv(runs, out / "results.csv")
    irn_series = report.mean_irn_pct(runs)
    report.emit_csv(irn_series, out / "irn_series.csv")
    report.emit_plot_data(irn_series, out / "irn_series.dat")
    hop_series = report.irn_by_hop(runs)
    report.emit_csv(hop_series, out / "irn_by_hop.csv")
    report.emit_plot_data(hop_series, out / "irn_by_hop.dat")
    print(f"run: {len(runs)} source runs -> {out}")
    return 0


def cmd_report(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    results_path = _require_file(parser, args.results, "--results")
    rows = experiment.read_result_csv(results_path)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series = report.mean_irn_pct(rows)
    report.emit_csv(series, out / "irn_series.csv")
    report.emit_plot_data(series, out / "irn_series.dat")
    print(f"report: {len(series)} series -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=_threshold(int), default=1,
                        help="worker cap, at least 1; never changes results")
    common.add_argument("--out", default="out", help="output directory")

    parser = argparse.ArgumentParser(
        prog="siotsim",
        description="Interest-community bridging simulator for decentralized "
                    "social networks with a social device layer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="parse traces into co-locations, home points and profiles")
    p.add_argument("--checkins", help="check-in TSV file")
    p.add_argument("--friendships", help="friendship pair TSV file")
    p.add_argument("--poi", help="PoI catalog CSV file")
    p.add_argument("--macros", help="macro-category CSV file (default: packaged)")
    p.add_argument("--min-checkins", type=_threshold(int),
                   default=trace.DEFAULT_MIN_CHECKINS)
    p.add_argument("--min-places", type=_threshold(int),
                   default=trace.DEFAULT_MIN_PLACES)
    p.add_argument("--radius", type=_threshold(float),
                   default=trace.DEFAULT_COLOCATION_RADIUS_M,
                   help="co-location radius in meters")
    p.add_argument("--window", type=_threshold(float),
                   default=trace.DEFAULT_COLOCATION_WINDOW_S,
                   help="co-location window in seconds")
    p.add_argument("--poi-radius", type=_threshold(float, positive=False),
                   default=im.DEFAULT_POI_RADIUS_M)
    p.add_argument("--interest-threshold", type=_threshold(int),
                   default=im.DEFAULT_INTEREST_THRESHOLD)
    p.add_argument("--cell-deg", type=_threshold(float),
                   default=trace.DEFAULT_HOME_CELL_DEG)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-graph", parents=[common],
                       help="instantiate devices and device relationships")
    p.add_argument("--ingest", help="directory written by the ingest command")
    p.add_argument("--models", help="model catalog CSV (default: 10 uniform models)")
    p.add_argument("--seed", type=int, default=0, help="device model seed")
    p.add_argument("--sor-threshold", type=_threshold(int),
                   default=sg.DEFAULT_SOR_THRESHOLD)
    p.add_argument("--clor-radius", type=_threshold(float, positive=False),
                   default=sg.DEFAULT_CLOR_RADIUS_M)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic scenario directory")
    p.add_argument("--communities", type=int, default=2)
    p.add_argument("--nodes", type=int, default=10,
                   help="nodes per community")
    p.add_argument("--intra-prob", type=float, default=0.5,
                   help="intra-community friendship probability")
    p.add_argument("--cross", default="",
                   help="cross-community edges per kind, e.g. POR=1,SOR=2")
    p.add_argument("--interest", type=int, default=3)
    p.add_argument("--interest-prob", type=float, default=1.0)
    p.add_argument("--noise-interests", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", parents=[common],
                       help="run an experiment campaign on a scenario")
    p.add_argument("--config", help="flat key=value experiment config file")
    p.add_argument("--scenario", help="scenario directory (overrides config)")
    p.add_argument("--seed", type=int,
                   help="master seed (default: the config's seed)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", parents=[common],
                       help="re-aggregate a results CSV into metric series")
    p.add_argument("--results", help="results.csv written by the run command")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except ValueError as exc:
        print(f"siotsim: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"siotsim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
