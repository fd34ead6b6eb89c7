from __future__ import annotations

import csv
import os
import random
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

from siotsim import cli
from siotsim.experiment import read_result_csv


def run_cli(args) -> int:
    try:
        return cli.main([str(a) for a in args])
    except SystemExit as exc:
        return int(exc.code)


def iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat().replace("+00:00", "Z")


def write_trace_fixture(base: Path, users=("u1", "u2", "u3"), meet=True) -> dict:
    """Users check in 12 times at 12 distinct places; when `meet` is set,
    all of them meet near a Donut PoI every time."""
    lines = []
    for i in range(12):
        t = 10000.0 * i
        for k, user in enumerate(users):
            if meet:
                lat, lon = 10.0, 10.0
            else:
                lat, lon = 10.0 + k, 10.0 + k  # far apart, never co-located
            lines.append(f"{user}\t{iso(t)}\t{lat}\t{lon}\t{user}-pl{i}")
    checkins = base / "checkins.tsv"
    checkins.write_text("\n".join(lines) + "\n", encoding="utf-8")
    friendships = base / "friendships.tsv"
    pair_lines = [f"{users[0]}\t{users[1]}"] + [f"{u}\t{u}" for u in users[:1]]
    friendships.write_text("\n".join(pair_lines) + "\n", encoding="utf-8")
    poi = base / "poi.csv"
    poi.write_text("poi_id,lat,lon,keyword\npoi-1,10.0,10.0001,Donut\n",
                   encoding="utf-8")
    models = base / "models.csv"
    models.write_text("model_id,probability\nmm,1.0\n", encoding="utf-8")
    return {"checkins": checkins, "friendships": friendships,
            "poi": poi, "models": models}


def read_all(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_ingest_writes_all_artifacts_and_is_deterministic(tmp_path):
    files = write_trace_fixture(tmp_path)
    out1, out2 = tmp_path / "ing1", tmp_path / "ing2"
    for out in (out1, out2):
        rc = run_cli(["ingest", "--checkins", files["checkins"],
                      "--friendships", files["friendships"],
                      "--poi", files["poi"], "--out", out])
        assert rc == 0
    for name in ("checkins.tsv", "friendships.tsv", "colocations.csv",
                 "home_points.csv", "profiles.csv"):
        assert (out1 / name).is_file()
    assert read_all(out1) == read_all(out2)
    profiles = (out1 / "profiles.csv").read_text(encoding="utf-8")
    # 12 meeting instants x 2 pairings per user near a Donut place:
    # interests 3 and 6 held by everyone
    assert "u1,3,24,1" in profiles
    assert "u1,6,24,1" in profiles


def test_ingest_missing_poi_is_usage_error(tmp_path, capsys):
    files = write_trace_fixture(tmp_path)
    rc = run_cli(["ingest", "--checkins", files["checkins"],
                  "--friendships", files["friendships"],
                  "--out", tmp_path / "out"])
    assert rc == 2
    assert "--poi" in capsys.readouterr().err


def test_ingest_nonexistent_file_is_usage_error(tmp_path, capsys):
    files = write_trace_fixture(tmp_path)
    rc = run_cli(["ingest", "--checkins", tmp_path / "nope.tsv",
                  "--friendships", files["friendships"],
                  "--poi", files["poi"], "--out", tmp_path / "out"])
    assert rc == 2
    assert "--checkins" in capsys.readouterr().err


def _ingest_and_build(tmp_path, meet=True):
    files = write_trace_fixture(tmp_path, meet=meet)
    ing = tmp_path / "ing"
    assert run_cli(["ingest", "--checkins", files["checkins"],
                    "--friendships", files["friendships"],
                    "--poi", files["poi"], "--out", ing]) == 0
    out = tmp_path / "graph"
    assert run_cli(["build-graph", "--ingest", ing, "--models", files["models"],
                    "--out", out, "--seed", 1]) == 0
    return out


def test_build_graph_por_count_and_stats_consistency(tmp_path):
    out = _ingest_and_build(tmp_path)
    stats = dict(line.split() for line in
                 (out / "stats.txt").read_text(encoding="utf-8").splitlines())
    assert stats["devices"] == "6"
    assert stats["POR"] == "15"  # C(6,2) with a single model
    assert stats["OOR"] == "3"
    assert stats["SOR"] == "3"   # 12 meetings per pair, threshold 3
    assert stats["C-IOR"] == "0"
    graph_lines = [ln for ln in
                   (out / "siot_graph.csv").read_text(encoding="utf-8").splitlines()
                   if ln]
    kind_total = sum(int(stats[k]) for k in ("POR", "C-LOR", "OOR", "SOR", "C-IOR"))
    assert len(graph_lines) == kind_total


def test_build_graph_without_meetings_has_no_sor(tmp_path):
    out = _ingest_and_build(tmp_path, meet=False)
    stats = dict(line.split() for line in
                 (out / "stats.txt").read_text(encoding="utf-8").splitlines())
    assert stats["SOR"] == "0"
    assert stats["C-LOR"] == "0"  # homes are far apart too


def test_synth_exports_exactly_requested_cross_edges(tmp_path):
    out = tmp_path / "scn"
    rc = run_cli(["synth", "--communities", 2, "--nodes", 10, "--intra-prob", 1.0,
                  "--cross", "POR=1", "--seed", 7, "--out", out])
    assert rc == 0
    lines = (out / "siot_graph.csv").read_text(encoding="utf-8").splitlines()
    cross = [ln for ln in lines if ln.split(",")[0][:3] != ln.split(",")[1][:3]]
    assert len(cross) == 1
    assert cross[0].endswith("POR")


@pytest.mark.parametrize("cross, message", [
    ("POR=1,POR=2", "POR given twice"),
    ("POR", "expected KIND=COUNT"),
    ("POR=1,SOR", "expected KIND=COUNT"),
    ("POR=x", "invalid literal"),
    ("XYZ=1", "unknown relationship kind"),
], ids=["repeated-kind", "no-count", "second-item-no-count", "non-integer-count",
        "unknown-kind"])
def test_synth_rejects_a_bad_cross_item_naming_the_flag(tmp_path, capsys, cross, message):
    rc = run_cli(["synth", "--cross", cross, "--out", tmp_path / "scn"])
    assert rc == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert "--cross" in error and message in error
    assert not (tmp_path / "scn").exists()


def test_synth_rejects_a_negative_noise_interest_count(tmp_path, capsys):
    rc = run_cli(["synth", "--noise-interests", -1, "--out", tmp_path / "scn"])
    assert rc == 2
    assert "noise_interests must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "scn").exists()


def test_synth_rejects_more_cross_edges_than_cross_pairs(tmp_path, capsys):
    rc = run_cli(["synth", "--communities", 2, "--nodes", 1, "--cross", "SOR=5",
                  "--out", tmp_path / "scn"])
    assert rc == 2
    assert "5 SOR cross edges, but only 1" in capsys.readouterr().err
    assert not (tmp_path / "scn").exists()


def test_synth_same_seed_is_byte_identical(tmp_path):
    args = ["synth", "--communities", 2, "--nodes", 6, "--intra-prob", 0.5,
            "--cross", "SOR=2", "--noise-interests", 1]
    assert run_cli(args + ["--seed", 3, "--out", tmp_path / "a"]) == 0
    assert run_cli(args + ["--seed", 3, "--out", tmp_path / "b"]) == 0
    assert run_cli(args + ["--seed", 4, "--out", tmp_path / "c"]) == 0
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")
    assert read_all(tmp_path / "a") != read_all(tmp_path / "c")


def test_run_on_bridged_scenario_reaches_everyone(tmp_path):
    scn = tmp_path / "scn"
    assert run_cli(["synth", "--communities", 2, "--nodes", 4, "--intra-prob", 1.0,
                    "--cross", "POR=1", "--seed", 5, "--out", scn]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("campaign = bridge\nreplicates = 1\nseed = 1\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli(["run", "--config", cfg, "--scenario", scn, "--out", out]) == 0
    rows = read_result_csv(out / "results.csv")
    enhanced = [r for r in rows if r.mode == "enhanced"]
    friendships = [r for r in rows if r.mode == "friendships"]
    assert enhanced and friendships
    assert all(r.irn_pct == 100.0 for r in enhanced)
    assert all(r.irn_pct < 100.0 for r in friendships)
    for name in ("results.csv", "irn_series.csv", "irn_series.dat",
                 "irn_by_hop.csv", "irn_by_hop.dat"):
        assert (out / name).is_file()


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    scn = tmp_path / "scn"
    assert run_cli(["synth", "--out", scn]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("mystery_knob = 1\n", encoding="utf-8")
    rc = run_cli(["run", "--config", cfg, "--scenario", scn,
                  "--out", tmp_path / "out"])
    assert rc == 2
    assert "mystery_knob" in capsys.readouterr().err


REPORT_CASES = [
    (["--communities", 2, "--nodes", 4, "--intra-prob", 1.0, "--cross", "POR=1",
      "--seed", 5],
     "replicates = 2\nsweep = spread\nspread_values = 1.0, 0.1\n"),
    # IRN percentages whose 6-digit text in results.csv would shift the last
    # printed digit of the aggregate
    (["--communities", 3, "--nodes", 9, "--intra-prob", 0.4,
      "--cross", "POR=2,SOR=1", "--interest-prob", 0.7, "--seed", 1],
     "replicates = 4\nsweep = spread\nspread_values = 1.0, 0.3\n"
     "auth_prob_per_hop = 0.9, 0.6\n"),
]


def test_report_reaggregates_results(tmp_path):
    for k, (synth_args, config) in enumerate(REPORT_CASES):
        scn = tmp_path / f"scn{k}"
        assert run_cli(["synth", *synth_args, "--out", scn]) == 0
        cfg = tmp_path / f"cfg{k}.txt"
        cfg.write_text(config, encoding="utf-8")
        run_dir = tmp_path / f"run{k}"
        assert run_cli(["run", "--config", cfg, "--scenario", scn, "--out", run_dir]) == 0
        rep_dir = tmp_path / f"rep{k}"
        assert run_cli(["report", "--results", run_dir / "results.csv",
                        "--out", rep_dir]) == 0
        # re-aggregating the persisted runs reproduces the run-time series
        assert (rep_dir / "irn_series.csv").read_bytes() == \
               (run_dir / "irn_series.csv").read_bytes()


@pytest.mark.parametrize("bad_row", [
    "c,3,friendships,,none,,0,s,2,4\n",
    "c,3,friendships,,none,,0,s,two,4,50,1\n",
], ids=["short-row", "non-integer-count"])
def test_report_names_the_file_and_line_of_a_bad_row(tmp_path, capsys, bad_row):
    results = tmp_path / "results.csv"
    results.write_text("campaign,interest,mode,kinds,sweep_var,sweep_value,"
                       "replicate,source,reached,denominator,irn_pct,mean_hops\n"
                       "c,3,friendships,,none,,0,s,1,4,25,1\n" + bad_row,
                       encoding="utf-8")
    assert run_cli(["report", "--results", results, "--out", tmp_path / "rep"]) == 2
    assert f"{results}:3:" in capsys.readouterr().err


@pytest.mark.parametrize("name, edit, where", [
    ("colocations.csv", lambda lines: lines[:2] + ["u1,u2,5.0"] + lines[2:], ":3:"),
    ("colocations.csv",
     lambda lines: lines[:2] + ["u1,u2,5.0,10.0,10.0,x,0.0"] + lines[2:], ":3:"),
    ("home_points.csv", lambda lines: lines[:2] + ["u9,10.0"] + lines[2:], ":3:"),
    ("home_points.csv", lambda lines: lines[:2] + ["u9,95.0,10.0"] + lines[2:], ":3:"),
    ("home_points.csv", lambda lines: ["user,latitude,longitude"] + lines[1:],
     ": unexpected home-point header"),
    ("home_points.csv", lambda lines: lines[:2] + lines[1:2] + lines[2:], ":3:"),
], ids=["short-colocation", "non-number-colocation", "short-home",
        "latitude-out-of-range", "home-header", "repeated-home-user"])
def test_build_graph_names_the_file_and_line_of_a_bad_ingest_row(tmp_path, capsys,
                                                                 name, edit, where):
    _ingest_and_build(tmp_path)
    path = tmp_path / "ing" / name
    lines = edit(path.read_text(encoding="utf-8").splitlines())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = run_cli(["build-graph", "--ingest", tmp_path / "ing",
                  "--models", tmp_path / "models.csv", "--out", tmp_path / "graph2"])
    assert rc == 2
    assert f"{path}{where}" in capsys.readouterr().err


@pytest.mark.parametrize("name, bad_row", [
    ("ing/friendships.tsv", "u1\tu2\tu3"),
    ("models.csv", "solo"),
    ("models.csv", "mx,half"),
    ("models.csv", "mx,nan"),
    ("models.csv", "mx,-0.5"),
    ("models.csv", "mx,1.5"),
], ids=["three-field-friendship", "short-model", "non-number-model", "nan-model",
        "negative-model", "above-one-model"])
def test_build_graph_names_the_file_and_line_of_a_bad_input_row(tmp_path, capsys,
                                                                name, bad_row):
    _ingest_and_build(tmp_path)
    path = tmp_path / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:1] + [bad_row] + lines[1:]) + "\n",
                    encoding="utf-8")
    capsys.readouterr()
    rc = run_cli(["build-graph", "--ingest", tmp_path / "ing",
                  "--models", tmp_path / "models.csv", "--out", tmp_path / "graph2"])
    assert rc == 2
    assert f"{path}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("name, bad_row", [
    ("friendships.tsv", "c00n000\tc00n001\tc00n002"),
    ("devices.csv", "c00n000:extra,c00n000"),
    ("devices.csv", "c00n000:extra,c00n000,fixed,m0,north,0.0"),
    ("devices.csv", "c00n000:spare,c00n000,mobile,m0,,\nc00n000:spare,c00n000,mobile,m0,,"),
    ("profiles.csv", "c00n000,3"),
    ("profiles.csv", "c00n000,x,1,1"),
    ("profiles.csv", "c00n000,7,two,1"),
    ("profiles.csv", "c00n000,7,1,2"),
    ("profiles.csv", "c00n000,7,-1,1"),
    ("profiles.csv", "c00n000,9,2,1\nc00n000,9,5,0"),
    ("profiles.csv", "c00n000,9,0,1"),
], ids=["three-field-friendship", "short-device", "non-number-device",
        "repeated-device", "short-profile", "non-integer-macro-id", "non-integer-count",
        "held-flag-2", "negative-count", "duplicate-macro-id", "held-at-count-0"])
def test_run_names_the_file_and_line_of_a_bad_scenario_row(tmp_path, capsys,
                                                           name, bad_row):
    # `bad_row` goes in after the header; its last line is the bad one
    scn = tmp_path / "scn"
    assert run_cli(["synth", "--communities", 2, "--nodes", 3, "--seed", 1,
                    "--out", scn]) == 0
    path = scn / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:1] + [bad_row] + lines[1:]) + "\n",
                    encoding="utf-8")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("replicates = 1\n", encoding="utf-8")
    capsys.readouterr()
    rc = run_cli(["run", "--config", cfg, "--scenario", scn, "--out", tmp_path / "out"])
    assert rc == 2
    assert f"{path}:{1 + len(bad_row.splitlines())}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("bad_row", ["x,Sweet Food,Donut", "3,Sweet Food"],
                         ids=["non-integer-macro-id", "short-macro-row"])
def test_ingest_names_the_file_and_line_of_a_bad_macro_row(tmp_path, capsys, bad_row):
    files = write_trace_fixture(tmp_path)
    macros = tmp_path / "macros.csv"
    macros.write_text(f"macro_id,name,keyword\n3,Sweet Food,Donut\n{bad_row}\n",
                      encoding="utf-8")
    rc = run_cli(["ingest", "--checkins", files["checkins"],
                  "--friendships", files["friendships"], "--poi", files["poi"],
                  "--macros", macros, "--out", tmp_path / "out"])
    assert rc == 2
    assert f"{macros}:3: bad macro-category row" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", ["poi-2,10.0,Donut", "poi-2,95.0,10.0,Donut",
                                     "poi-2,10.0,east,Donut"],
                         ids=["short-poi-row", "latitude-out-of-range", "non-number-lon"])
def test_ingest_names_the_file_and_line_of_a_bad_poi_row(tmp_path, capsys, bad_row):
    files = write_trace_fixture(tmp_path)
    poi = files["poi"]
    poi.write_text(poi.read_text(encoding="utf-8") + bad_row + "\n", encoding="utf-8")
    rc = run_cli(["ingest", "--checkins", files["checkins"],
                  "--friendships", files["friendships"], "--poi", poi,
                  "--out", tmp_path / "out"])
    assert rc == 2
    assert f"{poi}:3: bad PoI row" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("sources = abc", "sources must be 'all' or an integer >= 1, got 'abc'"),
    ("sources = 0", "sources must be 'all' or an integer >= 1, got '0'"),
    ("replicates = 0", "replicates must be >= 1"),
    ("sweep = auth", "sweep=auth needs auth_values"),
    ("sim_threshold = nan", "sim_threshold must be in [0, 1], got nan"),
    ("sim_threshold = -0.1", "sim_threshold must be in [0, 1], got -0.1"),
    ("sim_threshold = 1.5", "sim_threshold must be in [0, 1], got 1.5"),
    ("kinds = C-IOR", "kind set 'C-IOR' holds no base kind"),
    ("sweep = kinds\nkind_sets = OOR ; C-IOR", "kind set 'C-IOR' holds no base kind"),
], ids=["sources-not-a-number", "sources-zero", "no-replicates", "sweep-without-values",
        "nan-sim-threshold", "negative-sim-threshold", "sim-threshold-above-one",
        "kinds-without-base-kind", "kind-set-without-base-kind"])
def test_run_names_the_config_file_of_an_invalid_config(tmp_path, capsys, line, message):
    scn = tmp_path / "scn"
    assert run_cli(["synth", "--out", scn]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = run_cli(["run", "--config", cfg, "--scenario", scn, "--out", tmp_path / "out"])
    assert rc == 2
    assert f"{cfg}: {message}" in capsys.readouterr().err


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """`synth` and `run`, each in a new process under two hash seeds, write
    the same bytes: no output takes its order from iterating a set."""
    src = Path(__file__).resolve().parent.parent / "src"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("replicates = 2\nsweep = hops\nhops_values = 2, 4\n"
                   "auth_prob_per_hop = 0.9, 0.7, 0.5\nspread_prob_per_hop = 0.8\n",
                   encoding="utf-8")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        base = tmp_path / f"hash{hash_seed}"
        for stage in (["synth", "--communities", "4", "--nodes", "12",
                       "--intra-prob", "0.3", "--cross", "POR=4,SOR=3",
                       "--interest-prob", "0.8", "--noise-interests", "1",
                       "--seed", "7", "--out", str(base / "scenario")],
                      ["run", "--config", str(cfg), "--scenario", str(base / "scenario"),
                       "--out", str(base / "results")]):
            proc = subprocess.run([sys.executable, "-m", "siotsim.cli", *stage],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        outputs.append({p.relative_to(base): p.read_bytes()
                        for p in sorted(base.rglob("*")) if p.is_file()})
    assert len(outputs[0]) > 5
    assert outputs[0] == outputs[1]


def test_run_output_does_not_depend_on_input_line_order(tmp_path):
    """`run` writes the same bytes when the lines of every scenario file are
    shuffled (headers kept first) and half the device-edge and friendship
    lines name their endpoints the other way round."""
    scn = tmp_path / "scn"
    assert run_cli(["synth", "--communities", 6, "--nodes", 12, "--intra-prob", 0.3,
                    "--cross", "POR=4,SOR=3,C-LOR=2", "--interest-prob", 0.6,
                    "--noise-interests", 1, "--seed", 5, "--out", scn]) == 0
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    rnd = random.Random(21)
    for name, headed, sep in (("friendships.tsv", False, "\t"), ("devices.csv", True, None),
                              ("siot_graph.csv", False, ","), ("profiles.csv", True, None)):
        lines = (scn / name).read_text(encoding="utf-8").splitlines()
        head, body = (lines[:1], lines[1:]) if headed else ([], lines)
        rnd.shuffle(body)
        if sep:
            for i in rnd.sample(range(len(body)), len(body) // 2):
                a, b, *rest = body[i].split(sep)
                body[i] = sep.join([b, a, *rest])
        (shuffled / name).write_text("".join(line + "\n" for line in head + body),
                                     encoding="utf-8")
    assert read_all(shuffled) != read_all(scn)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("replicates = 3\nseed = 2\nsweep = kinds\n"
                   "kind_sets = OOR, SOR ; POR, OOR, C-LOR, SOR ; POR\n"
                   "origin_device = both\nspread_prob_per_hop = 0.7\n", encoding="utf-8")
    for base in (scn, shuffled):
        assert run_cli(["run", "--config", cfg, "--scenario", base,
                        "--out", tmp_path / f"{base.name}-run"]) == 0
    outputs = read_all(tmp_path / "scn-run")
    assert len(outputs) > 4
    assert read_all(tmp_path / "shuffled-run") == outputs


def test_ingest_lowers_activity_thresholds_by_flag(tmp_path):
    # one user with only 3 check-ins survives when the flags lower the
    # activity thresholds
    lines = [f"solo\t{iso(1000.0 * i)}\t10.0\t10.0\tpl{i}" for i in range(3)]
    checkins = tmp_path / "checkins.tsv"
    checkins.write_text("\n".join(lines) + "\n", encoding="utf-8")
    friendships = tmp_path / "friendships.tsv"
    friendships.write_text("", encoding="utf-8")
    poi = tmp_path / "poi.csv"
    poi.write_text("poi_id,lat,lon,keyword\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["ingest", "--checkins", checkins, "--friendships", friendships,
                    "--poi", poi, "--min-checkins", 1, "--min-places", 1,
                    "--out", out]) == 0
    homes = (out / "home_points.csv").read_text(encoding="utf-8")
    assert "solo" in homes


def test_only_run_reads_a_config_file(tmp_path):
    files = write_trace_fixture(tmp_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("replicates = 1\n", encoding="utf-8")
    assert run_cli(["ingest", "--checkins", files["checkins"],
                    "--friendships", files["friendships"], "--poi", files["poi"],
                    "--config", cfg, "--out", tmp_path / "ing2"]) == 2
    _ingest_and_build(tmp_path)
    assert run_cli(["build-graph", "--ingest", tmp_path / "ing",
                    "--models", files["models"], "--config", cfg,
                    "--out", tmp_path / "graph2"]) == 2


def test_kinds_naming_cior_gives_the_same_results(tmp_path):
    scn = tmp_path / "scn"
    assert run_cli(["synth", "--communities", 3, "--nodes", 6, "--intra-prob", 0.4,
                    "--cross", "POR=2,SOR=1", "--interest-prob", 0.7,
                    "--seed", 4, "--out", scn]) == 0
    results = {}
    for name, kinds in (("plain", "POR, SOR"), ("cior", "POR, C-IOR, SOR")):
        cfg = tmp_path / f"{name}.txt"
        cfg.write_text(f"replicates = 2\nseed = 3\nkinds = {kinds}\n"
                       "spread_prob_per_hop = 0.7\n", encoding="utf-8")
        assert run_cli(["run", "--config", cfg, "--scenario", scn,
                        "--out", tmp_path / name]) == 0
        results[name] = (tmp_path / name / "results.csv").read_bytes()
    assert results["cior"] == results["plain"]


def test_run_rejects_a_cior_line_in_the_device_graph(tmp_path, capsys):
    scn = tmp_path / "scn"
    assert run_cli(["synth", "--communities", 2, "--nodes", 3, "--seed", 1,
                    "--out", scn]) == 0
    graph = scn / "siot_graph.csv"
    lines = graph.read_text(encoding="utf-8").splitlines()
    lines.append("c00n000:mobile,c01n000:mobile,C-IOR")
    graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("replicates = 1\n", encoding="utf-8")
    rc = run_cli(["run", "--config", cfg, "--scenario", scn,
                  "--out", tmp_path / "out"])
    assert rc == 2
    assert f"{graph}:{len(lines)}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


def _series_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(path.read_text(encoding="utf-8").splitlines()))[1:]


def test_hop_curve_ends_at_the_headline_irn(tmp_path):
    # one-hop discovery passes: every node past the first hop is reached by
    # relaunches, beyond the configured max_hops
    scn = tmp_path / "scn"
    assert run_cli(["synth", "--communities", 3, "--nodes", 8, "--intra-prob", 0.3,
                    "--cross", "POR=1,SOR=1", "--interest-prob", 0.8,
                    "--seed", 2, "--out", scn]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("replicates = 3\nmax_hops = 1\nsweep = spread\n"
                   "spread_values = 1.0, 0.3\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli(["run", "--config", cfg, "--scenario", scn, "--out", out]) == 0
    headline = {(label, x): (y, ci)
                for label, x, y, ci in _series_rows(out / "irn_series.csv")}
    last = {}
    for label, hop, y, ci in _series_rows(out / "irn_by_hop.csv"):
        mode, kinds, value = label.split("|")
        last[(f"{mode}|{kinds}", "" if value == "-" else value)] = (int(hop), y, ci)
    assert set(last) == set(headline)
    for key, (_, y, ci) in last.items():
        assert (y, ci) == headline[key]
    assert max(hop for hop, _, _ in last.values()) > 1


def test_run_with_missing_scenario_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("replicates = 1\n", encoding="utf-8")
    rc = run_cli(["run", "--config", cfg, "--scenario", tmp_path / "ghost",
                  "--out", tmp_path / "out"])
    assert rc == 2
    assert "--scenario" in capsys.readouterr().err


def test_header_validation_of_csv_inputs(tmp_path):
    import pytest
    from siotsim.experiment import read_result_csv
    from siotsim.interests import load_macro_categories, load_poi_catalog
    from siotsim.siotgraph import load_model_catalog
    from siotsim.trace import read_colocations_csv, read_home_points_csv

    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n", encoding="utf-8")
    for loader in (load_poi_catalog, load_macro_categories, load_model_catalog,
                   read_colocations_csv, read_home_points_csv, read_result_csv):
        with pytest.raises(ValueError):
            loader(bad)


def test_every_subcommand_has_help(capsys):
    for sub in ("ingest", "build-graph", "synth", "run", "report"):
        rc = run_cli([sub, "--help"])
        assert rc == 0
        assert "--out" in capsys.readouterr().out


def test_run_seed_flag_overrides_the_config_seed(tmp_path):
    scn = tmp_path / "scn"
    assert run_cli(["synth", "--communities", 3, "--nodes", 6, "--intra-prob", 0.5,
                    "--cross", "POR=2,SOR=1", "--seed", 5, "--out", scn]) == 0
    config = "replicates = 2\nauth_prob_per_hop = 0.6, 0.3\nsources = 4\nseed = {}\n"

    def run(name, config_seed, *flags):
        cfg = tmp_path / f"{name}.txt"
        cfg.write_text(config.format(config_seed), encoding="utf-8")
        out = tmp_path / name
        assert run_cli(["run", "--config", cfg, "--scenario", scn,
                        "--out", out, *flags]) == 0
        return read_all(out)

    config_only = run("config1", 1)
    assert run("flag1", 9, "--seed", 1) == config_only
    assert run("flag2", 1, "--seed", 2) == run("config2", 2)
    assert run("flag2b", 1, "--seed", 2) != config_only


@pytest.mark.parametrize("flag, value", [
    ("--min-checkins", 0), ("--min-places", 0), ("--radius", 0),
    ("--window", 0), ("--poi-radius", -1), ("--interest-threshold", 0),
    ("--cell-deg", 0), ("--radius", -250), ("--window", "nan")])
def test_ingest_rejects_invalid_thresholds(tmp_path, capsys, flag, value):
    files = write_trace_fixture(tmp_path)
    rc = run_cli(["ingest", "--checkins", files["checkins"],
                  "--friendships", files["friendships"], "--poi", files["poi"],
                  flag, value, "--out", tmp_path / "ing"])
    assert rc == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--sor-threshold", 0),
                                         ("--clor-radius", -1)])
def test_build_graph_rejects_invalid_thresholds(tmp_path, capsys, flag, value):
    _ingest_and_build(tmp_path)
    rc = run_cli(["build-graph", "--ingest", tmp_path / "ing",
                  "--models", tmp_path / "models.csv", flag, value,
                  "--out", tmp_path / "graph2"])
    assert rc == 2
    assert flag in capsys.readouterr().err


def test_explicit_zero_poi_radius_is_not_replaced_by_the_default(tmp_path):
    # the only PoI lies about 11 m from every meeting, so a 0 m PoI radius
    # matches nothing while the 250 m default matches every co-location
    files = write_trace_fixture(tmp_path)
    outs = {}
    for name, flags in (("default", []), ("zero", ["--poi-radius", 0])):
        outs[name] = tmp_path / name
        assert run_cli(["ingest", "--checkins", files["checkins"],
                        "--friendships", files["friendships"],
                        "--poi", files["poi"], *flags, "--out", outs[name]]) == 0
    assert "u1,3,24,1" in (outs["default"] / "profiles.csv").read_text(encoding="utf-8")
    assert ",1\n" not in (outs["zero"] / "profiles.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("command", ["ingest", "build-graph", "synth", "run", "report"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, command, value):
    assert run_cli([command, "--threads", value, "--out", tmp_path / "out"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_is_accepted_only_where_it_is_read(tmp_path):
    files = write_trace_fixture(tmp_path)
    assert run_cli(["ingest", "--checkins", files["checkins"],
                    "--friendships", files["friendships"], "--poi", files["poi"],
                    "--seed", 1, "--out", tmp_path / "ing"]) == 2
    assert run_cli(["ingest", "--checkins", files["checkins"],
                    "--friendships", files["friendships"], "--poi", files["poi"],
                    "--threads", 1, "--out", tmp_path / "ing"]) == 0
