"""Interest model: points of interest, macro-categories and per-user
interest profiles derived from meeting events."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .geo import CellIndex, GeoPoint, haversine_m
from .trace import CoLocation, read_csv_rows, write_csv_rows

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
    """Interest profile of a user or device: the set of held categories.

    `owner` is None for anonymized copies that travel inside protocol
    messages.
    """

    owner: str | None
    held: frozenset[int]

    @staticmethod
    def from_counts(owner: str | None, counts: Mapping[int, int],
                    threshold: int) -> "InterestDescriptor":
        """The profile holding each category whose meeting count reaches
        `threshold`."""
        if threshold < 1:
            raise ValueError("interest threshold must be >= 1")
        if any(v < 0 for v in counts.values()):
            raise ValueError("negative category count")
        return InterestDescriptor(owner, frozenset(k for k, v in counts.items()
                                                   if v >= threshold))

    @staticmethod
    def empty() -> "InterestDescriptor":
        return InterestDescriptor(None, frozenset())

    def anonymized(self) -> "InterestDescriptor":
        return InterestDescriptor(None, self.held)


@dataclass(frozen=True, slots=True)
class InterestAssignment:
    """A co-location matched to its nearest PoI, as the macro-categories
    containing that PoI's keyword."""

    coloc_index: int
    macro_ids: frozenset[int]


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


def _parse_poi(row: list[str]) -> PoI:
    poi_id, lat, lon, keyword = row
    return PoI(poi_id, GeoPoint(float(lat), float(lon)), keyword)


def load_poi_catalog(path: str | Path) -> PoiCatalog:
    """Load a PoI catalog from CSV `poi_id,lat,lon,keyword`. A malformed
    row or invalid coordinates are an error naming the file and line."""
    return PoiCatalog(read_csv_rows(path, ["poi_id", "lat", "lon", "keyword"], "PoI",
                                    _parse_poi))


def load_macro_categories(path: str | Path) -> dict[int, MacroCategory]:
    """Load macro-categories from CSV `macro_id,name,keyword`, one keyword
    per row. A malformed row, or an id defined twice with different names,
    is an error naming the file and line."""
    names: dict[int, str] = {}
    keywords: dict[int, set[str]] = {}

    def parse(row: list[str]) -> tuple[int, str, str]:
        mid, name, keyword = row
        macro_id = int(mid)
        if macro_id in names and names[macro_id] != name:
            raise ValueError(f"macro id {macro_id} defined twice with different names")
        return macro_id, name, keyword

    for macro_id, name, keyword in read_csv_rows(path, ["macro_id", "name", "keyword"],
                                                 "macro-category", parse):
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
        keyword = hit[0].keyword
        macro_ids = index.get(keyword)
        if not macro_ids:
            unmatched.add(keyword)
            continue
        out.append(InterestAssignment(i, macro_ids))
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


PROFILE_HEADER = ["owner", "macro_id"]


def write_profiles_csv(profiles: Mapping[str, InterestDescriptor],
                       path: str | Path) -> None:
    """One row per held category; a profile that holds nothing has none."""
    write_csv_rows(path, PROFILE_HEADER, ([owner, mid]
                                          for owner, d in sorted(profiles.items())
                                          for mid in sorted(d.held)))


def read_profiles_csv(path: str | Path) -> dict[str, InterestDescriptor]:
    """Load a `write_profiles_csv` file: each owner's held categories. A
    malformed row or a second row for the same (owner, macro_id) is an
    error naming the file and line."""
    held: dict[str, set[int]] = {}

    def parse(row: list[str]) -> tuple[str, int]:
        owner, mid = row
        macro_id = int(mid)
        if macro_id in held.get(owner, ()):
            raise ValueError(f"second row for macro_id {macro_id}")
        return owner, macro_id

    for owner, macro_id in read_csv_rows(path, PROFILE_HEADER, "profile", parse):
        held.setdefault(owner, set()).add(macro_id)
    return {owner: InterestDescriptor(owner, frozenset(mids)) for owner, mids in held.items()}
