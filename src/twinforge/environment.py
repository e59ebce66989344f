"""Terrain heightmap, obstacle bodies, ray-casting, and the weather /
time-of-day model that drives visibility and ambient light.

Everything here is immutable after scenario construction: the world is
static.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Non-authoritative tables, one per axis, chosen so the sweep spans
# near-certain detection down to near-certain miss. A weather is its
# visibility factor (the share of light the air lets through) and its fog
# density; a time of day is its ambient light. The key order is the matrix
# order.
WEATHER = {
    "clear": (1.0, 0.0), "cloudy": (0.9, 0.1), "thin_fog": (0.6, 0.5),
    "thick_fog": (0.25, 0.9), "light_rain": (0.8, 0.2), "heavy_rain": (0.5, 0.4),
    "light_snow": (0.75, 0.2), "heavy_snow": (0.45, 0.4),
}
TIME_LIGHT = {"00:00": 0.15, "06:00": 0.6, "12:00": 1.0, "18:00": 0.7}
WEATHERS = tuple(WEATHER)
TIMES_OF_DAY = tuple(TIME_LIGHT)


class TerrainQueryError(RuntimeError):
    """Raised when a height query leaves the terrain bounds (episode fault)."""


@dataclass(frozen=True)
class EnvironmentCondition:
    weather_visibility: float
    ambient_light: float
    fog_density: float


def condition_derive(weather: str, time_of_day: str) -> EnvironmentCondition:
    """Deterministic (weather, time) -> the condition's three factors."""
    if weather not in WEATHER:
        raise ValueError(f"unknown weather {weather!r}")
    if time_of_day not in TIME_LIGHT:
        raise ValueError(f"unknown time_of_day {time_of_day!r}")
    visibility, fog = WEATHER[weather]
    return EnvironmentCondition(visibility, TIME_LIGHT[time_of_day], fog)


class TerrainHeightmap:
    """Regular-grid heightmap with bilinear interpolation.

    heights[iy, ix] is the height at (origin_x + ix*cell, origin_y + iy*cell).
    """

    def __init__(self, heights: np.ndarray, cell: float, origin: tuple[float, float] = (0.0, 0.0)):
        heights = np.ascontiguousarray(heights, dtype=np.float64)
        if heights.ndim != 2 or heights.shape[0] < 2 or heights.shape[1] < 2:
            raise ValueError("heightmap needs at least a 2x2 grid")
        if not np.all(np.isfinite(heights)):
            raise ValueError("heightmap contains non-finite values")
        self.heights = heights
        self.cell = float(cell)
        self.origin = x0, y0 = (float(origin[0]), float(origin[1]))
        ny, nx = heights.shape
        self.bounds = (x0, y0, x0 + (nx - 1) * self.cell, y0 + (ny - 1) * self.cell)
        self._z_max = float(heights.max())
        # What the height queries read, unpacked in one go; the heights are a
        # memoryview of the grid (no copy), read as Python floats.
        self._grid = (*self.bounds, self.cell, nx, nx - 2, ny - 2, memoryview(heights.reshape(-1)))

    def __reduce__(self):
        # A memoryview cannot be pickled; rebuild the map from its grid.
        return type(self), (self.heights, self.cell, self.origin)

    def contains(self, x, y):
        """Whether (x, y) lies on the map; elementwise over arrays."""
        x0, y0, x1, y1 = self.bounds
        return (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)

    def height_and_gradient(self, x: float, y: float) -> tuple[float, float, float]:
        """Bilinear height and the analytic gradient of the bilinear patch.

        Raises `TerrainQueryError` exactly where `contains` is false. Where
        `(max - origin) / cell` rounds past the last grid index, the last
        patch is extrapolated, as in `heights_at`. The corners are read as
        Python floats from the flat buffer, so all arithmetic is on floats.
        """
        ox, oy, max_x, max_y, cell, nx, ix_last, iy_last, h = self._grid
        if not (ox <= x <= max_x and oy <= y <= max_y):
            raise TerrainQueryError(f"terrain query ({x:.2f}, {y:.2f}) out of bounds {self.bounds}")
        fx = (x - ox) / cell
        fy = (y - oy) / cell
        ix = int(fx)
        iy = int(fy)
        if ix > ix_last:
            ix = ix_last
        if iy > iy_last:
            iy = iy_last
        u = fx - ix
        v = fy - iy
        k = iy * nx + ix
        h00 = h[k]
        h10 = h[k + 1]
        h01 = h[k + nx]
        h11 = h[k + nx + 1]
        iu = 1 - u
        iv = 1 - v
        z = (h00 * iu * iv + h10 * u * iv
             + h01 * iu * v + h11 * u * v)
        dzdx = ((h10 - h00) * iv + (h11 - h01) * v) / cell
        dzdy = ((h01 - h00) * iu + (h11 - h10) * u) / cell
        return z, dzdx, dzdy

    def height_or_none(self, x: float, y: float):
        if not self.contains(x, y):
            return None
        return self.height_and_gradient(x, y)[0]

    def heights_at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Bilinear heights at in-bounds points, with `height_and_gradient`'s
        arithmetic in the same order, so each equals its scalar height."""
        ox, oy, _, _, cell, nx, ix_last, iy_last, _ = self._grid
        fx = (xs - ox) / cell
        fy = (ys - oy) / cell
        ix = np.minimum(fx.astype(np.intp), ix_last)
        iy = np.minimum(fy.astype(np.intp), iy_last)
        u = fx - ix
        v = fy - iy
        iu = 1 - u
        iv = 1 - v
        k = iy * nx + ix
        h = self.heights.reshape(-1)
        return (h.take(k) * iu * iv + h.take(k + 1) * u * iv
                + h.take(k + nx) * iu * v + h.take(k + nx + 1) * u * v)

    def raycast(self, origins, directions, r_max: float) -> np.ndarray:
        """March every ray in half-cell steps against the surface in lockstep;
        bisect each ray's first sign change.

        directions is (n, 3) with unit rows, origins (n, 3), one per ray, or
        one (3,) for all, and r_max >= 0. Returns (n,) hit distances, inf for
        a miss, each finite one a sample or the midpoint of two, so at most
        r_max. The origin is sample 0: a ray's first sample on the map at or
        below the surface is its hit, bisected back to the sample before if
        that one is on the map, so an origin there hits at 0.

        Whole rays are marched in chunks of at most 2**14 samples (one ray's
        samples if it has more), and the bracketed rays of all chunks are
        bisected together.
        """
        step = self.cell * 0.5
        d = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
        o = np.broadcast_to(np.asarray(origins, dtype=np.float64), d.shape)
        out = np.full(len(d), np.inf)
        ts = np.add.accumulate(np.r_[0.0, np.full(int(r_max / step) + 1, step)])
        ts = ts[ts <= r_max]
        brackets = [(np.zeros(0, np.intp),) * 2]  # so that a cast of no rays concatenates
        per_chunk = max(1, 2 ** 14 // len(ts))
        for first in range(0, len(d), per_chunk):
            chunk = slice(first, first + per_chunk)
            (ox, oy, oz), (dx, dy, dz) = o[chunk].T[:, :, None], d[chunk].T[:, :, None]
            xs = ox + dx * ts
            ys = oy + dy * ts
            zs = oz + dz * ts
            # A ray that climbs above all terrain misses, before its height query;
            # zs does not decrease along it, so it stays above.
            climb = (dz >= 0.0) & (zs > self._z_max)
            inside = self.contains(xs, ys) & ~climb
            ground = np.zeros_like(inside)
            ground[inside] = zs[inside] - self.heights_at(xs[inside], ys[inside]) <= 0.0
            event = climb | ground
            rays = np.flatnonzero(event.any(axis=1))
            k = event[rays].argmax(axis=1)
            hit = ground[rays, k]
            rays, k = rays[hit], k[hit]
            out[first + rays] = ts[k]
            # From the sample before, if it is on the map (and so above the surface),
            # bisect the crossing; sample 0 has none before it.
            bracketed = (k > 0) & inside[rays, k - 1]
            brackets.append((first + rays[bracketed], k[bracketed]))
        rays, k = (np.concatenate(b) for b in zip(*brackets))
        lo = ts[k - 1]
        hi = ts[k]
        (ox, oy, oz), (dx, dy, dz) = o[rays].T, d[rays].T
        for _ in range(64):
            live = hi - lo > 1e-6
            if not live.any():
                break
            tm = 0.5 * (lo + hi)
            x = ox + dx * tm
            y = oy + dy * tm
            above = ~self.contains(x, y)
            on = ~above
            above[on] = (oz[on] + dz[on] * tm[on]) - self.heights_at(x[on], y[on]) > 0.0
            lo = np.where(live & above, tm, lo)
            hi = np.where(live & ~above, tm, hi)
        out[rays] = 0.5 * (lo + hi)
        return out


@dataclass(frozen=True, eq=False)
class Obstacle:
    """A static box. Its position is a float tuple, and its 2D corners and
    homogeneous 3D corners are built once, with the obstacle."""
    obstacle_id: str
    cls: str
    extents: tuple[float, float, float]  # full sizes along local x, y, z
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    yaw: float = 0.0

    def __post_init__(self):
        if min(self.extents) <= 0:
            raise ValueError("obstacle extents must be positive")
        px, py, pz = position = tuple(float(v) for v in self.position)
        hx, hy, hz = (e / 2.0 for e in self.extents)
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        pts = [(px + c * lx - s * ly, py + s * lx + c * ly, pz + lz)
               for lx in (-hx, hx) for ly in (-hy, hy) for lz in (-hz, hz)]
        homo = np.hstack([np.array(pts), np.ones((8, 1))]).T  # (4, 8): columns [x, y, z, 1]
        homo.flags.writeable = False
        init = functools.partial(object.__setattr__, self)
        init("position", position)
        init("_corners_2d", tuple(footprint_corners(px, py, self.yaw, *self.extents[:2])))
        init("_corners_3d", homo)

    def corners_2d(self) -> tuple[tuple[float, float], ...]:
        return self._corners_2d

    def corners_3d(self) -> np.ndarray:
        """Homogeneous world corners, (4, 8): one column [x, y, z, 1] each."""
        return self._corners_3d

    def raycast(self, origins, directions) -> np.ndarray:
        """Slab test of every ray in the obstacle's local frame; exact for the
        box. directions is (n, 3) and origins (n, 3) or (3,); returns (n,)
        entry distances, inf for a miss (0 from inside the box)."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        d = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
        ox, oy, oz = (np.asarray(origins, dtype=np.float64) - self.position).T
        lo = (c * ox + s * oy, -s * ox + c * oy, oz)
        ld = (c * d[:, 0] + s * d[:, 1], -s * d[:, 0] + c * d[:, 1], d[:, 2])
        t_min = np.zeros(len(d))
        t_max = np.full(len(d), math.inf)
        miss = np.zeros(len(d), dtype=bool)
        for o, dd, e in zip(lo, ld, self.extents):
            h = e / 2.0
            parallel = np.abs(dd) < 1e-12
            miss |= parallel & ((o < -h) | (o > h))
            dd = np.where(parallel, 1.0, dd)
            t1 = (-h - o) / dd
            t2 = (h - o) / dd
            t1, t2 = np.minimum(t1, t2), np.maximum(t1, t2)
            t_min = np.where(~parallel & (t1 > t_min), t1, t_min)
            t_max = np.where(~parallel & (t2 < t_max), t2, t_max)
        miss |= t_min > t_max
        return np.where(miss, math.inf, t_min)


def env_raycast(terrain: TerrainHeightmap, obstacles, origins, directions,
                r_max: float) -> np.ndarray:
    """Distance along each of the (n, 3) directions, from origins (n, 3) or
    (3,), to the nearest hit among the terrain surface and all obstacle
    boxes: (n,), inf where nothing is hit within r_max. The terrain's
    distances are within r_max already; an obstacle's are not."""
    best = terrain.raycast(origins, directions, r_max)
    for obs in obstacles:
        d = obs.raycast(origins, directions)
        best = np.where((d <= r_max) & (d < best), d, best)
    return best


def rectangles_overlap(corners_a, corners_b) -> bool:
    """Separating-axis test for two convex quads in the plane.

    Each quad's four edge normals are candidate axes; both quads' corners are
    projected onto each axis as c_x * axis_x + c_y * axis_y.
    """
    for quad in (corners_a, corners_b):
        for (x1, y1), (x2, y2) in zip(quad, [*quad[1:], quad[0]]):
            ux = y1 - y2
            uy = x2 - x1
            pa = [cx * ux + cy * uy for cx, cy in corners_a]
            pb = [cx * ux + cy * uy for cx, cy in corners_b]
            if max(pa) < min(pb) or max(pb) < min(pa):
                return False
    return True


def footprint_corners(x: float, y: float, yaw: float, length: float, width: float,
                      center_x: float = 0.0) -> list[tuple[float, float]]:
    """World-frame corners of a vehicle footprint box."""
    hx, hy = length / 2.0, width / 2.0
    c, s = math.cos(yaw), math.sin(yaw)
    out = []
    for lx, ly in ((hx, hy), (hx, -hy), (-hx, -hy), (-hx, hy)):
        bx = lx + center_x
        out.append((x + c * bx - s * ly, y + s * bx + c * ly))
    return out
