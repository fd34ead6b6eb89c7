"""Interest model: points of interest, macro-categories and per-user
interest profiles derived from meeting events."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .geo import CellIndex, GeoPoint, haversine_m
from .trace import CoLocation

log = logging.getLogger(__name__)

DEFAULT_POI_RADIUS_M = 250.0
DEFAULT_INTEREST_THRESHOLD = 10
DEFAULT_SIMILARITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class PoI:
    poi_id: str
    location: GeoPoint
    keyword: str

    def __post_init__(self) -> None:
        if not self.keyword:
            raise ValueError("PoI keyword must be non-empty")


@dataclass(frozen=True)
class MacroCategory:
    """A named group of PoI keywords. A keyword may belong to several
    macro-categories."""

    id: int
    name: str
    keywords: frozenset[str]

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ValueError(f"macro-category {self.id} has no keywords")


@dataclass(frozen=True)
class InterestDescriptor:
    """Interest profile of a user or device: per-category meeting counts
    plus the derived set of held categories.

    `owner` is None for anonymized copies that travel inside protocol
    messages.
    """

    owner: str | None
    weights: Mapping[int, int]
    held: frozenset[int]

    @staticmethod
    def from_counts(owner: str | None, counts: Mapping[int, int],
                    threshold: int) -> "InterestDescriptor":
        if threshold < 1:
            raise ValueError("interest threshold must be >= 1")
        if any(v < 0 for v in counts.values()):
            raise ValueError("negative category count")
        held = frozenset(k for k, v in counts.items() if v >= threshold)
        return InterestDescriptor(owner, dict(counts), held)

    @staticmethod
    def empty(owner: str | None = None) -> "InterestDescriptor":
        return InterestDescriptor(owner, {}, frozenset())

    def anonymized(self) -> "InterestDescriptor":
        return InterestDescriptor(None, dict(self.weights), self.held)


@dataclass(frozen=True, slots=True)
class InterestAssignment:
    """A co-location matched to its nearest PoI and the macro-categories
    containing that PoI's keyword."""

    coloc_index: int
    macro_ids: frozenset[int]
    poi_id: str
    match_distance_m: float


class PoiCatalog:
    """PoI collection supporting exact nearest-in-range queries.

    Entries are kept sorted by poi_id. A query takes its candidates from
    the cells of a `CellIndex`, built once per radius, tests them with
    `haversine_m` and returns the nearest PoI within the radius, boundary
    inclusive; a distance tie goes to the smaller poi_id.
    """

    def __init__(self, pois: Iterable[PoI]):
        self.pois = sorted(pois, key=lambda p: p.poi_id)
        self._grids: dict[float, tuple[CellIndex, dict[tuple[int, int], list[int]]]] = {}

    def __len__(self) -> int:
        return len(self.pois)

    def _grid(self, radius_m: float) -> tuple[CellIndex, dict[tuple[int, int], list[int]]]:
        """The cell index for `radius_m` and the catalog positions in each
        of its cells."""
        found = self._grids.get(radius_m)
        if found is None:
            grid = CellIndex(radius_m)
            found = self._grids[radius_m] = (grid, grid.bucket(p.location for p in self.pois))
        return found

    def nearest_in_range(self, point: GeoPoint, radius_m: float) -> tuple[PoI, float] | None:
        grid, members = self._grid(radius_m)
        best = None
        for key in grid.near(point):
            for i in members.get(key, ()):
                d = haversine_m(point, self.pois[i].location)
                # positions follow poi_id, so (d, i) breaks ties on it
                if d <= radius_m and (best is None or (d, i) < best):
                    best = (d, i)
        if best is None:
            return None
        return self.pois[best[1]], best[0]


def load_poi_catalog(path: str | Path) -> PoiCatalog:
    """Load a PoI catalog from CSV `poi_id,lat,lon,keyword`. A malformed
    row or invalid coordinates are an error naming the file and line."""
    pois: list[PoI] = []
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["poi_id", "lat", "lon", "keyword"]:
            raise ValueError(f"{path}: unexpected PoI header {header}")
        for row in reader:
            try:
                poi_id, lat, lon, keyword = row
                pois.append(PoI(poi_id, GeoPoint(float(lat), float(lon)), keyword))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: bad PoI row "
                                 f"{row!r} ({exc})") from exc
    return PoiCatalog(pois)


def load_macro_categories(path: str | Path) -> dict[int, MacroCategory]:
    """Load macro-categories from CSV `macro_id,name,keyword`, one keyword
    per row. A malformed row, or an id defined twice with different names,
    is an error naming the file and line."""
    names: dict[int, str] = {}
    keywords: dict[int, set[str]] = {}
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["macro_id", "name", "keyword"]:
            raise ValueError(f"{path}: unexpected macro-category header {header}")
        for row in reader:
            try:
                mid, name, keyword = row
                macro_id = int(mid)
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: bad macro-category row "
                                 f"{row!r} ({exc})") from exc
            if macro_id in names and names[macro_id] != name:
                raise ValueError(f"{path}:{reader.line_num}: macro id {macro_id} "
                                 "defined twice with different names")
            names[macro_id] = name
            keywords.setdefault(macro_id, set()).add(keyword)
    return {mid: MacroCategory(mid, names[mid], frozenset(kws))
            for mid, kws in keywords.items()}


def default_macro_categories() -> dict[int, MacroCategory]:
    """The macro-categories shipped with the package (a starter subset;
    full tables are supplied by the user)."""
    ref = resources.files("siotsim").joinpath("data/macro_categories.csv")
    with resources.as_file(ref) as path:
        return load_macro_categories(path)


def keyword_index(macros: Mapping[int, MacroCategory]) -> dict[str, frozenset[int]]:
    """Map each keyword to every macro-category containing it."""
    index: dict[str, set[int]] = {}
    for macro in macros.values():
        for kw in macro.keywords:
            index.setdefault(kw, set()).add(macro.id)
    return {kw: frozenset(ids) for kw, ids in index.items()}


def assign_colocation_interests(colocs: Sequence[CoLocation],
                                catalog: PoiCatalog,
                                macros: Mapping[int, MacroCategory],
                                poi_radius_m: float = DEFAULT_POI_RADIUS_M,
                                ) -> list[InterestAssignment]:
    """Assign each co-location to its nearest PoI within `poi_radius_m` and
    credit every macro-category containing that PoI's keyword. Co-locations
    with no PoI in range, or whose keyword matches no category, yield no
    assignment."""
    index = keyword_index(macros)
    unmatched: set[str] = set()
    out: list[InterestAssignment] = []
    for i, coloc in enumerate(colocs):
        hit = catalog.nearest_in_range(coloc.location, poi_radius_m)
        if hit is None:
            continue
        poi, dist = hit
        macro_ids = index.get(poi.keyword)
        if not macro_ids:
            unmatched.add(poi.keyword)
            continue
        out.append(InterestAssignment(i, macro_ids, poi.poi_id, dist))
    if unmatched:
        log.warning("assign_colocation_interests: %d PoI keywords match no "
                    "macro-category: %s", len(unmatched), sorted(unmatched))
    return out


def build_profiles(assignments: Sequence[InterestAssignment],
                   colocs: Sequence[CoLocation],
                   interest_threshold: int = DEFAULT_INTEREST_THRESHOLD,
                   ) -> dict[str, InterestDescriptor]:
    """Build per-user interest profiles.

    Each assigned co-location credits all its macro-categories for both
    participants; a category is held once its count reaches
    `interest_threshold`.
    """
    if interest_threshold < 1:
        raise ValueError("interest threshold must be >= 1")
    counts: dict[str, dict[int, int]] = {}
    for a in assignments:
        coloc = colocs[a.coloc_index]
        for user in (coloc.user_a, coloc.user_b):
            per_user = counts.setdefault(user, {})
            for mid in a.macro_ids:
                per_user[mid] = per_user.get(mid, 0) + 1
    return {user: InterestDescriptor.from_counts(user, per_user, interest_threshold)
            for user, per_user in counts.items()}


def cosine_similarity(a: InterestDescriptor, b: InterestDescriptor) -> float:
    """Cosine similarity of the binary held-category vectors; 0 when either
    profile holds nothing."""
    if not a.held or not b.held:
        return 0.0
    inter = len(a.held & b.held)
    # single sqrt of the integer product keeps boundary values exact
    return inter / math.sqrt(len(a.held) * len(b.held))


PROFILE_HEADER = ["owner", "macro_id", "count", "held"]


def write_profiles_csv(profiles: Mapping[str, InterestDescriptor],
                       path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(PROFILE_HEADER)
        for owner in sorted(profiles):
            d = profiles[owner]
            for mid in sorted(set(d.weights) | d.held):
                w.writerow([owner, mid, d.weights.get(mid, 0),
                            1 if mid in d.held else 0])


def read_profiles_csv(path: str | Path) -> dict[str, InterestDescriptor]:
    """Load a `write_profiles_csv` file. A malformed row, a negative count,
    a `held` flag other than 0 or 1, a second row for the same (owner,
    macro_id), or the first row whose flag no single interest threshold
    >= 1 gives with the rows before it (a held count must be at least 1
    and above every count not held) is an error naming the file and line."""
    weights: dict[str, dict[int, int]] = {}
    held: dict[str, set[int]] = {}
    lowest_held, highest_unheld = math.inf, 0
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PROFILE_HEADER:
            raise ValueError(f"{path}: unexpected profile header {header}")
        for row in reader:
            try:
                owner, mid, count, held_flag = row
                macro_id, weight = int(mid), int(count)
                if weight < 0:
                    raise ValueError("negative count")
                if held_flag not in ("0", "1"):
                    raise ValueError("held flag must be 0 or 1")
                if macro_id in weights.get(owner, ()):
                    raise ValueError(f"second row for macro_id {macro_id}")
                if held_flag == "1" and weight <= highest_unheld:
                    raise ValueError(f"held at count {weight}: no interest threshold >= 1 "
                                     f"holds it and leaves a count of {highest_unheld} unheld")
                if held_flag == "0" and weight >= lowest_held:
                    raise ValueError(f"not held at count {weight}: no interest threshold "
                                     f"holds a count of {lowest_held} and leaves it unheld")
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: bad profile row "
                                 f"{row!r} ({exc})") from exc
            weights.setdefault(owner, {})[macro_id] = weight
            if held_flag == "1":
                held.setdefault(owner, set()).add(macro_id)
                lowest_held = min(lowest_held, weight)
            else:
                highest_unheld = max(highest_unheld, weight)
    return {owner: InterestDescriptor(owner, w, frozenset(held.get(owner, ())))
            for owner, w in weights.items()}
