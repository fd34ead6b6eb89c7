"""Check-in trace ingestion: parsing, activity filtering, co-location
detection and home-point estimation."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .geo import CellIndex, GeoPoint, haversine_m, midpoint

log = logging.getLogger(__name__)

T = TypeVar("T")

DEFAULT_COLOCATION_RADIUS_M = 250.0
DEFAULT_COLOCATION_WINDOW_S = 1800.0
DEFAULT_MIN_CHECKINS = 10
DEFAULT_MIN_PLACES = 10
DEFAULT_HOME_CELL_DEG = 0.25


@dataclass(frozen=True, slots=True)
class CheckIn:
    user_id: str
    timestamp: float  # seconds since epoch, UTC
    location: GeoPoint
    place_id: str

    def __post_init__(self) -> None:
        # the id becomes a field of comma-separated scenario lines, and
        # `read_friendships_tsv` strips each line
        if not self.user_id or "," in self.user_id or self.user_id != self.user_id.strip():
            raise ValueError(f"bad user id: {self.user_id!r}")
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp: {self.timestamp}")
        if not self.place_id:
            raise ValueError("empty place_id")


@dataclass(frozen=True, slots=True)
class CoLocation:
    """A meeting event: two check-ins by different users within the
    distance and time thresholds. user_a < user_b canonically."""

    user_a: str
    user_b: str
    time: float
    location: GeoPoint
    distance_m: float
    dt_s: float

    def sort_key(self) -> tuple:
        return (self.time, self.user_a, self.user_b, self.dt_s, self.distance_m,
                self.location.lat, self.location.lon)


@dataclass(frozen=True)
class TraceCorpus:
    checkins: tuple[CheckIn, ...]
    users: frozenset[str]
    friendships: frozenset[tuple[str, str]]
    malformed_lines: int = 0

    @staticmethod
    def build(checkins: Iterable[CheckIn], malformed_lines: int = 0) -> "TraceCorpus":
        """A corpus of the check-ins, sorted by user and time, without
        friendships; `parse_friendships` attaches them."""
        ordered = tuple(sorted(checkins, key=lambda c: (c.user_id, c.timestamp)))
        users = frozenset(c.user_id for c in ordered)
        return TraceCorpus(ordered, users, frozenset(), malformed_lines)


def _parse_timestamp(text: str) -> float:
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def parse_checkins(path: str | Path) -> TraceCorpus:
    """Parse a brightkite check-in file into a corpus.

    The file is UTF-8, tab-separated, one record per line:
    ``user_id <TAB> ISO-8601 timestamp <TAB> lat <TAB> lon <TAB> place_id``.
    Malformed lines, a user id that is empty, holds a comma or has
    whitespace at either end included, are skipped and counted; more than
    50% malformed lines is treated as a corrupt file.
    """
    checkins: list[CheckIn] = []
    ids: dict[str, str] = {}  # one string object per distinct id
    malformed = 0
    nonempty = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            nonempty += 1
            fields = line.split("\t")
            if len(fields) != 5:
                malformed += 1
                continue
            user, ts_text, lat_text, lon_text, place = fields
            try:
                checkins.append(CheckIn(
                    user_id=ids.setdefault(user, user),
                    timestamp=_parse_timestamp(ts_text),
                    location=GeoPoint(float(lat_text), float(lon_text)),
                    place_id=ids.setdefault(place, place),
                ))
            except ValueError:
                malformed += 1
    if malformed:
        log.warning("parse_checkins: skipped %d malformed of %d lines in %s",
                    malformed, nonempty, path)
    # a single bad line is a degenerate input, not a corrupt file
    if nonempty >= 2 and malformed > nonempty / 2:
        raise ValueError(
            f"{path}: {malformed} of {nonempty} lines malformed; refusing to continue")
    return TraceCorpus.build(checkins, malformed_lines=malformed)


def parse_friendships(path: str | Path, corpus: TraceCorpus) -> TraceCorpus:
    """Attach undirected friendships from a tab-separated pair file.

    Duplicates and self-loops are dropped with a warning, as are pairs
    whose endpoints have no check-ins in the corpus.
    """
    pairs: set[tuple[str, str]] = set()
    dropped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2 or fields[0] == fields[1]:
                dropped += 1
                continue
            a, b = fields
            if a not in corpus.users or b not in corpus.users:
                dropped += 1
                continue
            pair = (a, b) if a < b else (b, a)
            if pair in pairs:
                dropped += 1
                continue
            pairs.add(pair)
    if dropped:
        log.warning("parse_friendships: dropped %d lines (self-loop, duplicate or "
                    "unknown user) in %s", dropped, path)
    return TraceCorpus(corpus.checkins, corpus.users, frozenset(pairs),
                       corpus.malformed_lines)


def filter_active_users(corpus: TraceCorpus,
                        min_checkins: int = DEFAULT_MIN_CHECKINS,
                        min_places: int = DEFAULT_MIN_PLACES) -> TraceCorpus:
    """Keep only users with at least `min_checkins` check-ins at at least
    `min_places` distinct places; restrict friendships to survivors."""
    if min_checkins < 1 or min_places < 1:
        raise ValueError("thresholds must be >= 1")
    counts: dict[str, int] = {}
    places: dict[str, set[str]] = {}
    for c in corpus.checkins:
        counts[c.user_id] = counts.get(c.user_id, 0) + 1
        places.setdefault(c.user_id, set()).add(c.place_id)
    keep = {u for u in corpus.users
            if counts.get(u, 0) >= min_checkins and len(places.get(u, ())) >= min_places}
    checkins = tuple(c for c in corpus.checkins if c.user_id in keep)
    friendships = frozenset(p for p in corpus.friendships
                            if p[0] in keep and p[1] in keep)
    return TraceCorpus(checkins, frozenset(keep), friendships, corpus.malformed_lines)


def _make_colocation(x: CheckIn, y: CheckIn, distance: float) -> CoLocation:
    if x.user_id > y.user_id:
        x, y = y, x
    return CoLocation(
        user_a=x.user_id,
        user_b=y.user_id,
        time=(x.timestamp + y.timestamp) / 2.0,
        location=midpoint(x.location, y.location),
        distance_m=distance,
        dt_s=abs(x.timestamp - y.timestamp),
    )


def detect_colocations(corpus: TraceCorpus,
                       radius_m: float = DEFAULT_COLOCATION_RADIUS_M,
                       window_s: float = DEFAULT_COLOCATION_WINDOW_S) -> list[CoLocation]:
    """Find all check-in pairs of different users within `radius_m` meters
    and `window_s` seconds (both inclusive).

    Every qualifying pair yields one record; repeated meetings of the same
    user pair are kept. Output is sorted canonically and is invariant under
    permutation of the input check-ins.

    Candidates come from a time-sorted sweep over the cells of a
    `CellIndex`: each cell keeps its check-ins in time order with its own
    window start, and a check-in is compared with the earlier ones in the
    cells `near` it.
    """
    if radius_m <= 0 or window_s <= 0:
        raise ValueError("radius_m and window_s must be positive")
    ordered = sorted(corpus.checkins, key=lambda c: c.timestamp)
    grid = CellIndex(radius_m)
    members: dict[tuple[int, int], list[CheckIn]] = {}
    starts: dict[tuple[int, int], int] = {}
    out: list[CoLocation] = []
    for y in ordered:
        for key in grid.near(y.location):
            cell = members.get(key)
            if cell is None:
                continue
            lo = starts.get(key, 0)
            # advance with the same subtraction the inclusion predicate uses,
            # so window membership is bit-identical to the all-pairs oracle
            while lo < len(cell) and y.timestamp - cell[lo].timestamp > window_s:
                lo += 1
            starts[key] = lo
            for x in cell[lo:]:
                if x.user_id == y.user_id:
                    continue
                d = haversine_m(x.location, y.location)
                if d <= radius_m:
                    out.append(_make_colocation(x, y, d))
        members.setdefault(grid.cell(y.location), []).append(y)
    out.sort(key=CoLocation.sort_key)
    return out


def compute_home_points(corpus: TraceCorpus,
                        cell_deg: float = DEFAULT_HOME_CELL_DEG) -> dict[str, GeoPoint]:
    """Estimate each user's home location.

    Check-ins are binned into a `cell_deg` x `cell_deg` lat/lon grid; the
    densest cell wins (ties broken by the cell whose earliest check-in is
    oldest) and the home point is the mean of that cell's check-ins.
    """
    if cell_deg <= 0:
        raise ValueError("cell_deg must be positive")
    per_user: dict[str, dict[tuple[int, int], list[CheckIn]]] = {}
    for c in corpus.checkins:
        cell = (math.floor(c.location.lat / cell_deg), math.floor(c.location.lon / cell_deg))
        per_user.setdefault(c.user_id, {}).setdefault(cell, []).append(c)
    homes: dict[str, GeoPoint] = {}
    for user in sorted(corpus.users):
        cells = per_user.get(user)
        if not cells:
            log.warning("compute_home_points: user %s has no check-ins", user)
            continue
        best = min(cells.items(),
                   key=lambda kv: (-len(kv[1]), min(c.timestamp for c in kv[1])))
        points = best[1]
        homes[user] = GeoPoint(sum(c.location.lat for c in points) / len(points),
                               sum(c.location.lon for c in points) / len(points))
    return homes


# --- intermediate artifact files -------------------------------------------

def read_csv_rows(path: str | Path, header: list[str], what: str,
                  parse: Callable[[list[str]], T]) -> Iterator[T]:
    """Check the header of a headed CSV file now, and yield `parse(row)` for
    each later row as the result is iterated, so that no list of rows is
    held. A header other than `header` is an error naming the file, and a
    row for which `parse` raises `ValueError` one naming the file and line.
    """
    with open(path, encoding="utf-8") as fh:
        found = next(csv.reader(fh), None)
    if found != header:
        raise ValueError(f"{path}: unexpected {what} header {found}")

    def rows() -> Iterator[T]:
        with open(path, encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                try:
                    item = parse(row)
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: bad {what} row "
                                     f"{row!r} ({exc})") from exc
                yield item
    return rows()


def write_csv_rows(path: str | Path, header: list[str],
                   rows: Iterable[Sequence[object]]) -> None:
    """Write `header` and then `rows`, drawn one at a time, as a UTF-8 CSV
    file with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


COLOCATION_HEADER = ["user_a", "user_b", "time_s", "lat", "lon", "distance_m", "dt_s"]


def write_colocations_csv(colocs: Sequence[CoLocation], path: str | Path) -> None:
    write_csv_rows(path, COLOCATION_HEADER, (
        [c.user_a, c.user_b, repr(c.time), repr(c.location.lat), repr(c.location.lon),
         repr(c.distance_m), repr(c.dt_s)] for c in colocs))


def _parse_colocation(row: list[str]) -> CoLocation:
    user_a, user_b, time_s, lat, lon, distance_m, dt_s = row
    return CoLocation(user_a, user_b, float(time_s), GeoPoint(float(lat), float(lon)),
                      float(distance_m), float(dt_s))


def read_colocations_csv(path: str | Path) -> Iterator[CoLocation]:
    """The records of a `write_colocations_csv` file, read by
    `read_csv_rows`: one at a time, so that no list of them is held."""
    return read_csv_rows(path, COLOCATION_HEADER, "co-location", _parse_colocation)


def write_friendships_tsv(pairs: Iterable[tuple[str, str]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for a, b in sorted(pairs):
            fh.write(f"{a}\t{b}\n")


def read_friendships_tsv(path: str | Path) -> set[tuple[str, str]]:
    """Load a `write_friendships_tsv` file. A line without exactly two
    tab-separated fields, a self-loop, or a second line for a pair (in
    either order) is an error naming the file and line."""
    pairs: set[tuple[str, str]] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                problem = f"expected 2 tab-separated fields, got {len(fields)}"
            elif fields[0] == fields[1]:
                problem = "self-loop"
            else:
                a, b = fields
                pair = (a, b) if a < b else (b, a)
                if pair not in pairs:
                    pairs.add(pair)
                    continue
                problem = "second line for this pair"
            raise ValueError(f"{path}:{lineno}: bad friendship row {line!r} ({problem})")
    return pairs


HOME_POINT_HEADER = ["user_id", "lat", "lon"]


def write_home_points_csv(homes: dict[str, GeoPoint], path: str | Path) -> None:
    write_csv_rows(path, HOME_POINT_HEADER, (
        [user, repr(homes[user].lat), repr(homes[user].lon)] for user in sorted(homes)))


def read_home_points_csv(path: str | Path) -> dict[str, GeoPoint]:
    """Load a `write_home_points_csv` file. A malformed row or a second row
    for a user is an error naming the file and line."""
    homes: dict[str, GeoPoint] = {}

    def parse(row: list[str]) -> tuple[str, GeoPoint]:
        user, lat, lon = row
        if user in homes:
            raise ValueError(f"second row for user {user!r}")
        return user, GeoPoint(float(lat), float(lon))

    for user, home in read_csv_rows(path, HOME_POINT_HEADER, "home-point", parse):
        homes[user] = home
    return homes
