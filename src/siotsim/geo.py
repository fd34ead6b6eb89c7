"""Geographic primitives: points, great-circle distance and a cell index
for fixed-radius neighbour search."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

EARTH_RADIUS_M = 6371000.0

# CellIndex widens its rows and cells by this share, so that rounding in
# haversine_m or in the cell arithmetic cannot put a pair that passes
# `haversine_m(x, y) <= radius` two rows or two cells apart.
_CELL_MARGIN = 1e-6
# Cells are never sized for less than this radius, so that a radius of 0
# still gives cells of positive size.
_MIN_CELL_RADIUS_M = 1.0


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A latitude/longitude pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinates: ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in meters."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def midpoint(a: GeoPoint, b: GeoPoint) -> GeoPoint:
    """Arithmetic midpoint of two points, the short way round in longitude;
    adequate at sub-kilometer scales. Longitudes more than 180 degrees
    apart are averaged across the antimeridian."""
    lon_b = b.lon
    if abs(a.lon - lon_b) > 180.0:
        lon_b += 360.0 if lon_b < a.lon else -360.0
    lon = (a.lon + lon_b) / 2.0
    if lon > 180.0:
        lon -= 360.0
    elif lon < -180.0:
        lon += 360.0
    return GeoPoint((a.lat + b.lat) / 2.0, lon)


class CellIndex:
    """Candidate cells for fixed-radius neighbour search on the sphere.

    Latitude rows are at least `radius_m` tall. Each row is cut into `n`
    equal longitude cells, numbered modulo `n` so that the antimeridian is
    no edge, and each at least as wide as two points within `radius_m` of
    each other can lie apart in longitude when both lie in the row or in
    one of its two neighbours. A row at or next to a pole, or a radius too
    large for two cells, gives the row a single cell.

    Two points within `radius_m` then lie in neighbouring rows, and in the
    row of either point they lie in the same or neighbouring cells. So
    `near(p)` names every cell that can hold a point within `radius_m` of
    `p`; the caller still applies the exact distance test.
    """

    def __init__(self, radius_m: float):
        theta = max(radius_m, _MIN_CELL_RADIUS_M) / EARTH_RADIUS_M * (1.0 + _CELL_MARGIN)
        self._row_deg = math.degrees(theta)
        self._half_chord = math.sin(min(theta, math.pi) / 2.0)
        self._cells_in_row: dict[int, int] = {}

    def _cells(self, row: int) -> int:
        """The number of longitude cells of `row`."""
        n = self._cells_in_row.get(row)
        if n is None:
            # the largest |latitude| in this row and its two neighbours
            top = max(abs(row - 1), abs(row + 2)) * self._row_deg
            n = 1
            if top < 90.0:
                # sin²(d/2) >= cos(lat_x)cos(lat_y)sin²(dlon/2) bounds the
                # longitude gap of a pair within the radius
                s = self._half_chord / math.cos(math.radians(top))
                if s < 1.0:
                    width = math.degrees(2.0 * math.asin(s)) * (1.0 + _CELL_MARGIN)
                    n = max(1, math.floor(360.0 / width))
            self._cells_in_row[row] = n
        return n

    def cell(self, p: GeoPoint) -> tuple[int, int]:
        """The (row, column) of the cell holding `p`."""
        row = math.floor(p.lat / self._row_deg)
        n = self._cells(row)
        return row, math.floor((p.lon + 180.0) * n / 360.0) % n

    def bucket(self, points: Iterable[GeoPoint]) -> dict[tuple[int, int], list[int]]:
        """The positions of `points`, in order, in each cell holding any."""
        members: dict[tuple[int, int], list[int]] = {}
        for i, p in enumerate(points):
            members.setdefault(self.cell(p), []).append(i)
        return members

    def near(self, p: GeoPoint) -> list[tuple[int, int]]:
        """The distinct cells that can hold a point within the radius of
        `p`, its own included: three rows, three cells in each, each row
        cut by its own width."""
        row = math.floor(p.lat / self._row_deg)
        cells = []
        for r in (row - 1, row, row + 1):
            n = self._cells(r)
            c = math.floor((p.lon + 180.0) * n / 360.0) % n
            if n >= 3:
                cells += ((r, (c - 1) % n), (r, c), (r, (c + 1) % n))
            else:
                cells += ((r, k) for k in range(n))
        return cells
