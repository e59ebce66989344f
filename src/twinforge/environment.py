"""Terrain heightmap, obstacle bodies, ray-casting, and the weather /
time-of-day model that drives visibility and ambient light.

Everything here is immutable after scenario construction except obstacle
positions, which a collision can displace when the obstacle is dynamic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WEATHERS = ("clear", "cloudy", "thin_fog", "thick_fog",
            "light_rain", "heavy_rain", "light_snow", "heavy_snow")
TIMES_OF_DAY = ("00:00", "06:00", "12:00", "18:00")

# Non-authoritative visibility tables; chosen so the sweep spans near-certain
# detection down to near-certain miss.
WEATHER_VISIBILITY = {
    "clear": 1.0, "cloudy": 0.9, "thin_fog": 0.6, "thick_fog": 0.25,
    "light_rain": 0.8, "heavy_rain": 0.5, "light_snow": 0.75, "heavy_snow": 0.45,
}
TIME_LIGHT = {"00:00": 0.15, "06:00": 0.6, "12:00": 1.0, "18:00": 0.7}
WEATHER_FOG = {
    "clear": 0.0, "cloudy": 0.1, "thin_fog": 0.5, "thick_fog": 0.9,
    "light_rain": 0.2, "heavy_rain": 0.4, "light_snow": 0.2, "heavy_snow": 0.4,
}


class TerrainQueryError(RuntimeError):
    """Raised when a height query leaves the terrain bounds (episode fault)."""


@dataclass
class EnvironmentCondition:
    weather: str
    time_of_day: str
    visibility: float
    ambient_light: float
    fog_density: float


def condition_derive(weather: str, time_of_day: str) -> EnvironmentCondition:
    """Deterministic (weather, time) -> (visibility, ambient_light, fog_density)."""
    if weather not in WEATHERS:
        raise ValueError(f"unknown weather {weather!r}")
    if time_of_day not in TIMES_OF_DAY:
        raise ValueError(f"unknown time_of_day {time_of_day!r}")
    light = TIME_LIGHT[time_of_day]
    fog = WEATHER_FOG[weather]
    visibility = min(1.0, max(0.0, light * WEATHER_VISIBILITY[weather]))
    return EnvironmentCondition(weather, time_of_day, visibility, light, fog)


class TerrainHeightmap:
    """Regular-grid heightmap with bilinear interpolation.

    heights[iy, ix] is the height at (origin_x + ix*cell, origin_y + iy*cell).
    """

    def __init__(self, heights: np.ndarray, cell: float, origin: tuple[float, float] = (0.0, 0.0)):
        heights = np.asarray(heights, dtype=np.float64)
        if heights.ndim != 2 or heights.shape[0] < 2 or heights.shape[1] < 2:
            raise ValueError("heightmap needs at least a 2x2 grid")
        if not np.all(np.isfinite(heights)):
            raise ValueError("heightmap contains non-finite values")
        self.heights = heights
        self.cell = float(cell)
        self.origin = (float(origin[0]), float(origin[1]))
        self._ny, self._nx = heights.shape
        self._max_x = self.origin[0] + (self._nx - 1) * self.cell
        self._max_y = self.origin[1] + (self._ny - 1) * self.cell
        self._z_max = float(heights.max())

    @classmethod
    def flat(cls, height: float = 0.0, size: float = 200.0, cell: float = 2.0,
             origin: tuple[float, float] = (-100.0, -100.0)) -> "TerrainHeightmap":
        n = int(size / cell) + 1
        return cls(np.full((n, n), float(height)), cell, origin)

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (self.origin[0], self.origin[1], self._max_x, self._max_y)

    def contains(self, x: float, y: float) -> bool:
        return (self.origin[0] <= x <= self._max_x) and (self.origin[1] <= y <= self._max_y)

    def height_and_gradient(self, x: float, y: float) -> tuple[float, float, float]:
        """Bilinear height and the analytic gradient of the bilinear patch."""
        fx = (x - self.origin[0]) / self.cell
        fy = (y - self.origin[1]) / self.cell
        ix = int(fx)
        iy = int(fy)
        if fx < 0.0 or fy < 0.0 or ix > self._nx - 2 and fx > self._nx - 1 or iy > self._ny - 2 and fy > self._ny - 1:
            raise TerrainQueryError(f"terrain query ({x:.2f}, {y:.2f}) out of bounds {self.bounds}")
        if ix > self._nx - 2:
            ix = self._nx - 2
        if iy > self._ny - 2:
            iy = self._ny - 2
        u = fx - ix
        v = fy - iy
        h = self.heights
        h00 = h[iy, ix]
        h10 = h[iy, ix + 1]
        h01 = h[iy + 1, ix]
        h11 = h[iy + 1, ix + 1]
        z = (h00 * (1 - u) * (1 - v) + h10 * u * (1 - v)
             + h01 * (1 - u) * v + h11 * u * v)
        dzdx = ((h10 - h00) * (1 - v) + (h11 - h01) * v) / self.cell
        dzdy = ((h01 - h00) * (1 - u) + (h11 - h10) * u) / self.cell
        return float(z), float(dzdx), float(dzdy)

    def height_or_none(self, x: float, y: float):
        if not self.contains(x, y):
            return None
        return self.height_and_gradient(x, y)[0]

    def raycast(self, origin, direction, r_max: float):
        """March the ray in half-cell steps against the surface; bisect the
        first sign change.

        Returns hit distance or None. Assumes |direction| == 1.
        """
        step = self.cell * 0.5
        ox, oy, oz = float(origin[0]), float(origin[1]), float(origin[2])
        dx, dy, dz = float(direction[0]), float(direction[1]), float(direction[2])
        prev_t = 0.0
        h = self.height_or_none(ox, oy)
        prev_diff = None if h is None else oz - h
        if prev_diff is not None and prev_diff <= 0.0:
            return 0.0  # started at/below the surface
        t = step
        while t <= r_max:
            x = ox + dx * t
            y = oy + dy * t
            z = oz + dz * t
            if dz >= 0.0 and z > self._z_max and (prev_diff is None or prev_diff > 0.0):
                return None  # climbing above all terrain
            hzt = self.height_or_none(x, y)
            if hzt is None:
                prev_diff = None
                prev_t = t
                t += step
                continue
            diff = z - hzt
            if diff <= 0.0 and prev_diff is not None and prev_diff > 0.0:
                return self._bisect(origin, direction, prev_t, t)
            if diff <= 0.0 and prev_diff is None:
                return t  # entered the map below the surface; best estimate
            prev_diff = diff
            prev_t = t
            t += step
        return None

    def _bisect(self, origin, direction, t_lo: float, t_hi: float, tol: float = 1e-6) -> float:
        ox, oy, oz = origin
        dx, dy, dz = direction
        for _ in range(64):
            if t_hi - t_lo <= tol:
                break
            tm = 0.5 * (t_lo + t_hi)
            h = self.height_or_none(ox + dx * tm, oy + dy * tm)
            if h is None:
                t_lo = tm
                continue
            if (oz + dz * tm) - h > 0.0:
                t_lo = tm
            else:
                t_hi = tm
        return 0.5 * (t_lo + t_hi)


@dataclass
class Obstacle:
    obstacle_id: str
    cls: str
    extents: tuple[float, float, float]  # full sizes along local x, y, z
    position: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    yaw: float = 0.0
    dynamic: bool = False

    def __post_init__(self):
        if min(self.extents) <= 0:
            raise ValueError("obstacle extents must be positive")
        self.position = [float(v) for v in self.position]

    def corners_2d(self) -> list[tuple[float, float]]:
        hx, hy = self.extents[0] / 2.0, self.extents[1] / 2.0
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        out = []
        for lx, ly in ((hx, hy), (hx, -hy), (-hx, -hy), (-hx, hy)):
            out.append((self.position[0] + c * lx - s * ly,
                        self.position[1] + s * lx + c * ly))
        return out

    def corners_3d(self) -> np.ndarray:
        hx, hy, hz = (e / 2.0 for e in self.extents)
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        pts = []
        for lx in (-hx, hx):
            for ly in (-hy, hy):
                for lz in (-hz, hz):
                    pts.append((self.position[0] + c * lx - s * ly,
                                self.position[1] + s * lx + c * ly,
                                self.position[2] + lz))
        return np.array(pts)

    def raycast(self, origin, direction) -> float | None:
        """Slab test in the obstacle's local frame; exact for the box."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        ox = origin[0] - self.position[0]
        oy = origin[1] - self.position[1]
        oz = origin[2] - self.position[2]
        lo = (c * ox + s * oy, -s * ox + c * oy, oz)
        ld = (c * direction[0] + s * direction[1],
              -s * direction[0] + c * direction[1], direction[2])
        t_min, t_max = 0.0, math.inf
        for o, d, e in zip(lo, ld, self.extents):
            h = e / 2.0
            if abs(d) < 1e-12:
                if o < -h or o > h:
                    return None
                continue
            t1 = (-h - o) / d
            t2 = (h - o) / d
            if t1 > t2:
                t1, t2 = t2, t1
            t_min = max(t_min, t1)
            t_max = min(t_max, t2)
            if t_min > t_max:
                return None
        return t_min if t_max >= t_min else None


def env_raycast(terrain: TerrainHeightmap | None, obstacles, origin, direction,
                r_max: float) -> float | None:
    """Distance to the nearest hit among the terrain surface and all obstacle
    boxes, or None when nothing is hit within r_max."""
    best_d = math.inf
    if terrain is not None:
        d = terrain.raycast(origin, direction, r_max)
        if d is not None and d <= r_max:
            best_d = d
    for obs in obstacles:
        d = obs.raycast(origin, direction)
        if d is not None and d <= r_max and d < best_d:
            best_d = d
    return best_d if math.isfinite(best_d) else None


def _project_interval(corners, axis) -> tuple[float, float]:
    vals = [c[0] * axis[0] + c[1] * axis[1] for c in corners]
    return min(vals), max(vals)


def rectangles_overlap(corners_a, corners_b) -> bool:
    """Separating-axis test for two convex quads in the plane."""
    for corners in (corners_a, corners_b):
        for i in range(4):
            x1, y1 = corners[i]
            x2, y2 = corners[(i + 1) % 4]
            axis = (y1 - y2, x2 - x1)
            a_lo, a_hi = _project_interval(corners_a, axis)
            b_lo, b_hi = _project_interval(corners_b, axis)
            if a_hi < b_lo or b_hi < a_lo:
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
