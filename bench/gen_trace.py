"""Trace-shaped input generator for the benchmark.

Writes the four files the trace pipeline reads, in the formats of the
README: check-ins TSV, friendships TSV, PoI catalog CSV and model catalog
CSV. Only `random.Random(seed)` is used, and every value is drawn in a
fixed order and printed with fixed precision, so the same seed gives
byte-identical files and a different seed gives different ones.

Why each parameter has its value:

- `MODELS = 10` uniform models. With two devices per user, each model
  holds about a tenth of all devices, so POR (same model) forms large
  cliques. That is the trace shape the device layer is slow on.
- `COMMUNITY = 25` users. Friendships stay inside a community except for
  a few bridges, so friendships-only reach stays low (a few percent IRN)
  and the device layer has something to bridge.
- `SLOTS_PER_DAY = 8` half-hour slots, two hours apart. Check-ins of one
  slot fall within the 1800 s co-location window of each other and never
  within that of another slot, so meetings happen at shared haunts,
  repeat (which creates SOR) and credit interests.
- PoI keywords come from the packaged macro-category table plus
  `OFF_TABLE_KEYWORDS`, which match no category, so some co-locations get
  no interest assignment.

The rest of the layout keeps the amount of work steady from one seed to
the next, because the benchmark compares runs made on different seeds:

- Each community has the same eight haunts (`HAUNT_KEYWORDS`) on a ring
  around its centre, far enough apart that only check-ins at the same
  haunt co-locate. How many users hold an interest then depends little
  on the seed. With a random keyword mix, a few haunts decided it, and
  the number of holders of one interest varied more than fourfold
  between seeds.
- Community centres sit near the middle of the cells of a grid, and
  users roam only within `ROAM_KM` of home, so communities seldom merge
  through co-locations.
- Every user visits at least `MIN_PLACES` distinct PoIs and so passes
  the activity filter. Losing a varying share of users changed the
  number of POR pairs by a third between seeds.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

CHECKINS_FILE = "checkins.tsv"
FRIENDSHIPS_FILE = "friendships.tsv"
POI_FILE = "poi.csv"
MODELS_FILE = "models.csv"

# Keywords of the packaged table (src/siotsim/data/macro_categories.csv),
# repeated here because the generator must not import the program.
TABLE_KEYWORDS = ("Pastelaria", "Ice Cream", "Yogurt", "Donut", "Dessert",
                  "Meatball", "Wine", "Pizza", "Bistro", "Breakfast", "Cafe",
                  "Tea Room", "Dive Bar", "Cupcake", "Coffee", "Bar")
OFF_TABLE_KEYWORDS = ("Pharmacy", "Bank", "Gas Station")
OFF_TABLE_SHARE = 0.2

# Each community owns one CELL_DEG square of a grid, so communities lie
# equally far apart at every size. The grid starts at (LAT0, LON0) and
# must fit inside one 0.25 degree home cell, so that each home point is
# the mean of all of a user's check-ins.
LAT0, LON0, CELL_DEG, MAX_SIDE_DEG = 38.78, -9.22, 0.02, 0.2
EPOCH = datetime(2026, 3, 2, tzinfo=timezone.utc).timestamp()
FIRST_SLOT_H, SLOT_GAP_H, SLOT_S = 8, 2, 1800
JITTER_DEG = 0.0002  # about 20 m: a check-in lies next to its PoI
HOME_SPREAD_DEG = 0.003  # homes scatter this much around the community centre
CHECKINS_PER_USER, COMMUNITY, MODELS, SLOTS_PER_DAY = 40, 25, 10, 8
INTRA_FRIEND_PROB, BRIDGE_FRIEND_PROB = 0.3, 0.02
# PoIs on a ring around each community's centre that its members share;
# adjacent haunts are more than the 250 m co-location radius apart
HAUNT_KEYWORDS = ("Pizza", "Wine", "Ice Cream", "Cafe", "Bar", "Coffee", "Donut", "Pharmacy")
HAUNT_RING_DEG = 0.005
HAUNT_SHARE = 0.8    # share of check-ins at the community's haunts
ROAM_KM = 0.6        # other check-ins go to any PoI this close to home
MIN_PLACES = 12      # distinct places per user, above the activity filter's 10


@dataclass(frozen=True)
class TraceSpec:
    users: int
    pois: int
    days: int


def _km(a: tuple[float, float], b: tuple[float, float]) -> float:
    dlat = (a[0] - b[0]) * 111.2
    dlon = (a[1] - b[1]) * 111.2 * math.cos(math.radians(LAT0))
    return math.hypot(dlat, dlon)


def _stamp(t: float) -> str:
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def generate(spec: TraceSpec, seed: int, out_dir: str | Path) -> dict[str, int]:
    """Write the four input files into `out_dir` and return their sizes."""
    r = random.Random(seed)
    n_comm = math.ceil(spec.users / COMMUNITY)
    grid = math.ceil(math.sqrt(n_comm))
    side = grid * CELL_DEG
    scattered = spec.pois - n_comm * len(HAUNT_KEYWORDS)
    if scattered < 0 or side > MAX_SIDE_DEG:
        raise ValueError(f"cannot lay out {spec.users} users and {spec.pois} PoIs")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    centres = [(LAT0 + (k // grid + 0.4 + 0.2 * r.random()) * CELL_DEG,
                LON0 + (k % grid + 0.4 + 0.2 * r.random()) * CELL_DEG)
               for k in range(n_comm)]
    places = []
    for c in centres:
        turn = r.random()
        for j, kw in enumerate(HAUNT_KEYWORDS):
            angle = 2.0 * math.pi * (turn + j / len(HAUNT_KEYWORDS))
            places.append((c[0] + HAUNT_RING_DEG * math.sin(angle),
                           c[1] + HAUNT_RING_DEG * math.cos(angle), kw))
    off = round(OFF_TABLE_SHARE * scattered)
    keywords = [OFF_TABLE_KEYWORDS[i % len(OFF_TABLE_KEYWORDS)] for i in range(off)]
    keywords += [TABLE_KEYWORDS[i % len(TABLE_KEYWORDS)] for i in range(scattered - off)]
    r.shuffle(keywords)
    places += [(LAT0 + r.random() * side, LON0 + r.random() * side, kw) for kw in keywords]
    pois = [(f"p{i:04d}", *place) for i, place in enumerate(places)]
    haunts = [range(k * len(HAUNT_KEYWORDS), (k + 1) * len(HAUNT_KEYWORDS))
              for k in range(n_comm)]

    users = [f"u{i:05d}" for i in range(spec.users)]
    slots = [(d, s) for d in range(spec.days) for s in range(SLOTS_PER_DAY)]
    checkins = []
    for ui, user in enumerate(users):
        ci = ui // COMMUNITY
        home = (centres[ci][0] + r.gauss(0.0, HOME_SPREAD_DEG),
                centres[ci][1] + r.gauss(0.0, HOME_SPREAD_DEG))
        # the PoIs within ROAM_KM, and never fewer than the MIN_PLACES nearest,
        # so that every user passes the activity filter
        near = sorted(range(spec.pois), key=lambda i: _km(home, pois[i][1:3]))
        roam = [i for k, i in enumerate(near)
                if k < MIN_PLACES or _km(home, pois[i][1:3]) <= ROAM_KM]
        own = [pois[i] for i in haunts[ci]]
        distinct = r.sample(roam, MIN_PLACES)
        for k in range(CHECKINS_PER_USER):
            if k < MIN_PLACES:
                poi = pois[distinct[k]]
            elif r.random() < HAUNT_SHARE:
                poi = r.choice(own)
            else:
                poi = pois[r.choice(roam)]
            day, slot = r.choice(slots)
            t = (EPOCH + day * 86400 + (FIRST_SLOT_H + SLOT_GAP_H * slot) * 3600
                 + r.randrange(SLOT_S))
            lat = poi[1] + r.uniform(-JITTER_DEG, JITTER_DEG)
            lon = poi[2] + r.uniform(-JITTER_DEG, JITTER_DEG)
            checkins.append((user, t, lat, lon, poi[0]))

    friendships = []
    for ci in range(n_comm):
        members = users[ci * COMMUNITY:(ci + 1) * COMMUNITY]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if r.random() < INTRA_FRIEND_PROB:
                    friendships.append((members[i], members[j]))
            if n_comm > 1 and r.random() < BRIDGE_FRIEND_PROB:
                other = r.choice([u for u in users if u not in members])
                friendships.append((members[i], other))

    with open(out / CHECKINS_FILE, "w", encoding="utf-8", newline="\n") as fh:
        for user, t, lat, lon, place in checkins:
            fh.write(f"{user}\t{_stamp(t)}\t{lat:.6f}\t{lon:.6f}\t{place}\n")
    with open(out / FRIENDSHIPS_FILE, "w", encoding="utf-8", newline="\n") as fh:
        for a, b in friendships:
            fh.write(f"{a}\t{b}\n")
    with open(out / POI_FILE, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["poi_id", "lat", "lon", "keyword"])
        for pid, lat, lon, keyword in pois:
            w.writerow([pid, f"{lat:.6f}", f"{lon:.6f}", keyword])
    with open(out / MODELS_FILE, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("model_id,probability\n")
        for m in range(MODELS):
            fh.write(f"model_{m:02d},{1.0 / MODELS!r}\n")
    return {"users": spec.users, "checkins": len(checkins),
            "friendships": len(friendships), "pois": spec.pois,
            "models": MODELS}

