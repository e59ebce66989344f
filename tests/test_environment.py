"""The batched terrain march and obstacle slab test, the plain-float height
query and the inline separating-axis test against the versions they
replaced, which live on here as the reference; and the weather and
time-of-day tables.

Equality is exact: the new code does the reference's arithmetic in the same
order, so every distance and height must match bit for bit (a reference
miss, None, is inf in the batch).
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from twinforge.documents import from_doc
from twinforge.environment import (
    TIME_LIGHT,
    TIMES_OF_DAY,
    WEATHER,
    WEATHERS,
    EnvironmentCondition,
    Obstacle,
    TerrainHeightmap,
    TerrainQueryError,
    condition_derive,
    env_raycast,
    footprint_corners,
    rectangles_overlap,
)
from twinforge.scenarios import ScenarioConfig, build_scenario, builtin_scenario_doc


# -- the scalar reference ------------------------------------------------------

def ref_terrain_raycast(terrain, origin, direction, r_max):
    step = terrain.cell * 0.5
    ox, oy, oz = float(origin[0]), float(origin[1]), float(origin[2])
    dx, dy, dz = float(direction[0]), float(direction[1]), float(direction[2])
    prev_t = 0.0
    h = terrain.height_or_none(ox, oy)
    prev_diff = None if h is None else oz - h
    if prev_diff is not None and prev_diff <= 0.0:
        return 0.0
    t = step
    while t <= r_max:
        x = ox + dx * t
        y = oy + dy * t
        z = oz + dz * t
        if dz >= 0.0 and z > terrain._z_max and (prev_diff is None or prev_diff > 0.0):
            return None
        hzt = terrain.height_or_none(x, y)
        if hzt is None:
            prev_diff = None
            prev_t = t
            t += step
            continue
        diff = z - hzt
        if diff <= 0.0 and prev_diff is not None and prev_diff > 0.0:
            return ref_bisect(terrain, origin, direction, prev_t, t)
        if diff <= 0.0 and prev_diff is None:
            return t
        prev_diff = diff
        prev_t = t
        t += step
    return None


def ref_bisect(terrain, origin, direction, t_lo, t_hi, tol=1e-6):
    ox, oy, oz = origin
    dx, dy, dz = direction
    for _ in range(64):
        if t_hi - t_lo <= tol:
            break
        tm = 0.5 * (t_lo + t_hi)
        h = terrain.height_or_none(ox + dx * tm, oy + dy * tm)
        if h is None:
            t_lo = tm
            continue
        if (oz + dz * tm) - h > 0.0:
            t_lo = tm
        else:
            t_hi = tm
    return 0.5 * (t_lo + t_hi)


def ref_obstacle_raycast(obs, origin, direction):
    c, s = math.cos(obs.yaw), math.sin(obs.yaw)
    ox = origin[0] - obs.position[0]
    oy = origin[1] - obs.position[1]
    oz = origin[2] - obs.position[2]
    lo = (c * ox + s * oy, -s * ox + c * oy, oz)
    ld = (c * direction[0] + s * direction[1],
          -s * direction[0] + c * direction[1], direction[2])
    t_min, t_max = 0.0, math.inf
    for o, d, e in zip(lo, ld, obs.extents):
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


def ref_env_raycast(terrain, obstacles, origin, direction, r_max):
    best_d = math.inf
    d = ref_terrain_raycast(terrain, origin, direction, r_max)
    if d is not None and d <= r_max:
        best_d = d
    for obs in obstacles:
        d = ref_obstacle_raycast(obs, origin, direction)
        if d is not None and d <= r_max and d < best_d:
            best_d = d
    return best_d


def ref_height_and_gradient(terrain, x, y):
    """The bilinear patch on numpy scalars, as the query computed it before it
    read Python floats from the flat buffer, and its error off the map. It reads
    only the map's public grid: heights, cell, origin and bounds."""
    x0, y0, x1, y1 = terrain.bounds
    if not (x0 <= x <= x1 and y0 <= y <= y1):
        raise TerrainQueryError(f"terrain query ({x:.2f}, {y:.2f}) out of bounds {terrain.bounds}")
    ny, nx = terrain.heights.shape
    fx = (x - terrain.origin[0]) / terrain.cell
    fy = (y - terrain.origin[1]) / terrain.cell
    ix = min(int(fx), nx - 2)
    iy = min(int(fy), ny - 2)
    u = fx - ix
    v = fy - iy
    h = terrain.heights
    h00 = h[iy, ix]
    h10 = h[iy, ix + 1]
    h01 = h[iy + 1, ix]
    h11 = h[iy + 1, ix + 1]
    z = (h00 * (1 - u) * (1 - v) + h10 * u * (1 - v)
         + h01 * (1 - u) * v + h11 * u * v)
    dzdx = ((h10 - h00) * (1 - v) + (h11 - h01) * v) / terrain.cell
    dzdy = ((h01 - h00) * (1 - u) + (h11 - h10) * u) / terrain.cell
    return float(z), float(dzdx), float(dzdy)


def _project_interval(corners, axis):
    vals = [c[0] * axis[0] + c[1] * axis[1] for c in corners]
    return min(vals), max(vals)


def ref_rectangles_overlap(corners_a, corners_b):
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


def _inf(d):
    return math.inf if d is None else d


# -- inputs --------------------------------------------------------------------

def _builtin_terrain(name):
    return build_scenario(from_doc(ScenarioConfig, builtin_scenario_doc(name)), 2.0)[0]


def _random_terrain(cell):
    rng = np.random.default_rng(int(cell * 10))
    return TerrainHeightmap(rng.normal(0.0, 1.5, (23, 31)), cell, (-7.3, 4.1))


TERRAINS = {
    "default": lambda: _builtin_terrain("default"),
    "slope": lambda: _builtin_terrain("slope"),
    "random-cell-0.7": lambda: _random_terrain(0.7),
    "random-cell-3.3": lambda: _random_terrain(3.3),
    # Half a cell halved 20 times is the bisection's 1e-6 tolerance, so the
    # rounding of each ray's interval decides whether it halves once more.
    "random-cell-2.097152": lambda: _random_terrain(2.097152),
}

# Exactly horizontal and axis-parallel rays: dz == 0 exactly, and in an
# unrotated box's frame two of three components are 0 (the slab's
# parallel-axis branch).
SPECIAL_DIRECTIONS = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
                      (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.6, 0.8, 0.0), (-0.8, 0.6, 0.0)]


def _directions(rng, n):
    az = rng.uniform(-math.pi, math.pi, n)
    el = np.concatenate([rng.uniform(-0.5, 0.15, n - n // 3),   # lidar-like, mostly down
                         rng.uniform(-1.5, 1.5, n // 3)])
    d = np.column_stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
    return np.vstack([d, SPECIAL_DIRECTIONS])


def _origins(rng, terrain, n):
    """Above the surface in the map, above all terrain in the map (a ray that
    does not descend climbs at sample 0), off the map (high and low), and at or
    below the surface."""
    x0, y0, x1, y1 = terrain.bounds
    span = min(x1 - x0, 150.0)
    xs = rng.uniform(x0, x0 + span, n)
    ys = rng.uniform(y0, y1, n)
    out = []
    for x, y in zip(xs, ys):
        h = terrain.height_or_none(x, y)
        out.append(("above", (x, y, h + rng.uniform(0.2, 4.0))))
        out.append(("below", (x, y, h - rng.uniform(0.0, 1.0))))
        out.append(("above-all", (x, y, terrain._z_max + rng.uniform(0.1, 2.0))))
    out.append(("surface", (xs[0], ys[0], terrain.height_or_none(xs[0], ys[0]))))
    for x in xs[:3]:
        edge = terrain.height_or_none(x, y1 - 0.01)
        side = y1 + rng.uniform(0.5, 15.0)
        out.append(("off-high", (x, side, edge + rng.uniform(0.5, 3.0))))
        out.append(("off-low", (x, side, edge - 1.0)))
        out.append(("off-above-all", (x, y0 - rng.uniform(0.5, 15.0), terrain._z_max + 0.5)))
        out.append(("off-behind", (x0 - rng.uniform(0.5, 10.0), ys[0], h + 1.0)))
    return out


# -- tests ---------------------------------------------------------------------

@pytest.mark.parametrize("name", TERRAINS)
def test_terrain_raycast_equals_the_scalar_march(name):
    terrain = TERRAINS[name]()
    rng = np.random.default_rng(11)
    r_max = 80.0 if name in ("default", "slope") else 30.0
    branches = set()
    origins, rays, wants = [], [], []
    for kind, origin in _origins(rng, terrain, 6):
        origin = np.array(origin)
        dirs = _directions(rng, 40)
        got = terrain.raycast(origin, dirs, r_max)
        want = [_inf(ref_terrain_raycast(terrain, origin, d, r_max)) for d in dirs]
        assert got.tolist() == want, kind
        assert (got[np.isfinite(got)] <= r_max).all()
        branches.update(f"{kind}:{'hit' if math.isfinite(w) else 'miss'}" for w in want)
        origins += [origin] * len(dirs)
        rays.append(dirs)
        wants += want
    # Each kind of origin saw hits and misses, except those at or below the
    # surface, which hit, and those above all terrain, of which only the misses
    # (the climb at sample 0) are sure on every map.
    assert {"above:hit", "above:miss", "above-all:miss", "off-high:hit", "off-high:miss",
            "off-low:hit", "below:hit", "surface:hit"} <= branches
    # All the rays in one cast, each from its own origin, and a cast of none.
    assert terrain.raycast(np.array(origins), np.vstack(rays), r_max).tolist() == wants
    assert terrain.raycast(origins[0], np.zeros((0, 3)), r_max).shape == (0,)


def test_a_cast_across_march_chunks_equals_the_scalar_march():
    """A march chunk holds 2**14 samples: 202 rays of 81, the origin's and 80
    more, at r_max 80 on the default map's 2 m cell. 615 rays from origins
    above the surface take four chunks, and rays of more than one chunk bisect
    their crossing."""
    terrain = _builtin_terrain("default")
    rng = np.random.default_rng(15)
    origins, dirs = [], []
    for x, y in zip(rng.uniform(-50.0, 400.0, 3), rng.uniform(-20.0, 20.0, 3)):
        origins += [(x, y, terrain.height_or_none(x, y) + rng.uniform(0.5, 3.0))] * 205
        dirs.append(_directions(rng, 197))
    origins, dirs = np.array(origins), np.vstack(dirs)
    got = terrain.raycast(origins, dirs, 80.0)
    want = [_inf(ref_terrain_raycast(terrain, o, d, 80.0)) for o, d in zip(origins, dirs)]
    assert got.tolist() == want
    # The samples lie at whole metres, so a hit off them was bisected.
    bisected = [i for i, w in enumerate(want) if math.isfinite(w) and w % 1.0]
    assert len({i // (2 ** 14 // 81) for i in bisected}) > 1


@pytest.mark.parametrize("name", TERRAINS)
def test_r_max_shorter_than_one_step(name):
    terrain = TERRAINS[name]()
    rng = np.random.default_rng(12)
    r_max = terrain.cell * 0.5 * 0.9
    for _, origin in _origins(rng, terrain, 3):
        dirs = _directions(rng, 12)
        got = terrain.raycast(origin, dirs, r_max)
        assert got.tolist() == [_inf(ref_terrain_raycast(terrain, origin, d, r_max))
                                for d in dirs]


def _obstacles():
    return [Obstacle("box0", "moose", (0.8, 2.4, 1.8), [10.0, 0.5, 0.9]),
            Obstacle("box1", "rock", (2.0, 1.0, 0.6), [4.0, -6.0, 0.3], yaw=0.7),
            Obstacle("box2", "rock", (1.5, 1.5, 3.0), [-5.0, 3.0, 1.0], yaw=-2.1)]


def test_obstacle_raycast_equals_the_scalar_slab_test():
    rng = np.random.default_rng(13)
    hits = 0
    for obs in _obstacles():
        origins, rays, wants = [], [], []
        for origin in [(0.0, 0.0, 1.0), obs.position, (obs.position[0], 0.0, 5.0),
                       *rng.uniform(-12.0, 12.0, (6, 3))]:
            dirs = _directions(rng, 60)
            to_box = np.asarray(obs.position) - origin
            if np.linalg.norm(to_box) > 0:
                aimed = to_box + rng.normal(0.0, 0.5, (40, 3))
                dirs = np.vstack([dirs, aimed / np.linalg.norm(aimed, axis=1, keepdims=True)])
            got = obs.raycast(np.asarray(origin), dirs)
            want = [_inf(ref_obstacle_raycast(obs, origin, d)) for d in dirs]
            assert got.tolist() == want
            hits += sum(math.isfinite(w) for w in want)
            origins += [origin] * len(dirs)
            rays.append(dirs)
            wants += want
        # All the rays in one cast, each from its own origin, and a cast of none.
        assert obs.raycast(np.array(origins), np.vstack(rays)).tolist() == wants
        assert obs.raycast(origins[0], np.zeros((0, 3))).shape == (0,)
    assert hits > 100


def test_env_raycast_equals_the_scalar_nearest_hit():
    terrain = _builtin_terrain("default")
    rng = np.random.default_rng(14)
    obstacles = []
    for i, (x, y) in enumerate([(415.0, 0.0), (430.0, 8.0), (405.0, -4.0)]):
        obstacles.append(Obstacle(f"box{i}", "rock", (1.5, 2.0, 1.8),
                                  [x, y, terrain.height_or_none(x, y) + 0.9], yaw=0.3 * i))
    hits = 0
    for r_max in (80.0, 20.0):
        origins, rays, wants = [], [], []
        for _ in range(4):
            x, y = rng.uniform(395.0, 410.0), rng.uniform(-5.0, 5.0)
            origin = np.array([x, y, terrain.height_or_none(x, y) + 1.6])
            aimed = np.vstack([o.position - origin + rng.normal(0.0, 0.3, (20, 3))
                               for o in obstacles])
            dirs = np.vstack([_directions(rng, 60),
                              aimed / np.linalg.norm(aimed, axis=1, keepdims=True)])
            got = env_raycast(terrain, obstacles, origin, dirs, r_max)
            want = [ref_env_raycast(terrain, obstacles, origin, d, r_max) for d in dirs]
            assert got.tolist() == want
            assert (got[np.isfinite(got)] <= r_max).all()
            hits += sum(any(_inf(ref_obstacle_raycast(o, origin, d)) == w for o in obstacles)
                        for d, w in zip(dirs, want))
            origins += [origin] * len(dirs)
            rays.append(dirs)
            wants += want
        # All the rays in one cast, each from its own origin, and a cast of none.
        assert env_raycast(terrain, obstacles, np.array(origins), np.vstack(rays), r_max).tolist() == wants
        assert env_raycast(terrain, obstacles, origin, np.zeros((0, 3)), r_max).shape == (0,)
    assert hits > 50


@pytest.mark.parametrize("name", TERRAINS)
def test_heights_at_equals_the_scalar_height(name):
    terrain = TERRAINS[name]()
    rng = np.random.default_rng(15)
    x0, y0, x1, y1 = terrain.bounds
    # The max edges themselves: at a non-power-of-two cell they can round
    # past the last grid index, and both queries clamp there.
    xs = np.concatenate([rng.uniform(x0, x1, 500), [x1, x1, x0], rng.uniform(x0, x1, 3),
                         [x1] * 3])
    ys = np.concatenate([rng.uniform(y0, y1, 500), [y1, y0, y1], [y1] * 3,
                         rng.uniform(y0, y1, 3)])
    got = terrain.heights_at(xs, ys)
    assert got.tolist() == [terrain.height_and_gradient(x, y)[0] for x, y in zip(xs, ys)]


@pytest.mark.parametrize("name", TERRAINS)
def test_height_and_gradient_equals_the_numpy_formula(name):
    terrain = TERRAINS[name]()
    rng = np.random.default_rng(16)
    x0, y0, x1, y1 = terrain.bounds
    points = list(zip(rng.uniform(x0, x1, 5000).tolist(), rng.uniform(y0, y1, 5000).tolist()))
    points += [(x0, y0), (x1, y1), (x0, y1), (x1, y0)]
    for x, y in points:
        got = terrain.height_and_gradient(x, y)
        assert all(type(g) is float for g in got)
        assert got == ref_height_and_gradient(terrain, x, y)


def test_max_edge_inside_the_map_reads_the_clamped_height():
    # (max - origin) / cell rounds past the last grid index here.
    terrain = _random_terrain(0.7)
    assert terrain.contains(13.7, 19.5)
    assert terrain.height_and_gradient(13.7, 19.5)[0] == \
        terrain.heights_at(np.array([13.7]), np.array([19.5]))[0]
    assert terrain.height_or_none(13.7, 19.5) is not None


def test_heightmap_survives_a_pickle_round_trip():
    terrain = _random_terrain(0.7)
    back = pickle.loads(pickle.dumps(terrain))
    assert back.bounds == terrain.bounds
    assert back.height_and_gradient(1.0, 10.0) == terrain.height_and_gradient(1.0, 10.0)


@pytest.mark.parametrize("name", TERRAINS)
def test_height_query_raises_exactly_off_the_map(name):
    terrain = TERRAINS[name]()
    x0, y0, x1, y1 = terrain.bounds
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    edges = [(x0, ym, 0, -1), (x1, ym, 0, 1), (xm, y0, 1, -1), (xm, y1, 1, 1)]
    for x, y, axis, out in edges:
        for steps in (0, 1, 2):
            point = [x, y]
            for _ in range(steps):
                point[axis] = float(np.nextafter(point[axis], out * math.inf))
            for probe in (point, [x, y]):
                if terrain.contains(*probe):
                    terrain.height_and_gradient(*probe)
                else:
                    with pytest.raises(TerrainQueryError):
                        terrain.height_and_gradient(*probe)
            assert terrain.contains(*point) == (steps == 0)
    for bad in ((math.nan, ym), (xm, math.inf), (-math.inf, ym)):
        with pytest.raises(TerrainQueryError):
            terrain.height_and_gradient(*bad)


@pytest.mark.parametrize("heights, message", [
    (np.zeros((1, 5)), "heightmap needs at least a 2x2 grid"),
    (np.array([[0.0, 1.0], [math.nan, 2.0]]), "heightmap contains non-finite values"),
])
def test_a_heightmap_needs_a_finite_2x2_grid(heights, message):
    with pytest.raises(ValueError) as err:
        TerrainHeightmap(heights, 1.0)
    assert str(err.value) == message


def test_an_obstacle_with_a_zero_extent_is_rejected():
    with pytest.raises(ValueError) as err:
        Obstacle("box0", "rock", (1.0, 0.0, 1.0))
    assert str(err.value) == "obstacle extents must be positive"


def _quad(rng, scale=3.0):
    return footprint_corners(*rng.uniform(-scale, scale, 2).tolist(),
                             float(rng.uniform(-math.pi, math.pi)),
                             *rng.uniform(0.3, 4.0, 2).tolist(), float(rng.uniform(-0.5, 0.5)))


def _shifted(corners, d, k=1.0):
    return [(x + k * d[0], y + k * d[1]) for x, y in corners]


def test_rectangles_overlap_equals_the_projection_reference():
    rng = np.random.default_rng(17)
    pairs = [(_quad(rng), _quad(rng)) for _ in range(3000)]
    for _ in range(200):
        a = _quad(rng)
        c0, c1, c2, c3 = a
        along = (c0[0] - c3[0], c0[1] - c3[1])
        diagonal = (c0[0] - c2[0], c0[1] - c2[1])
        pairs.append((a, _shifted(a, along)))     # face to face
        pairs.append((a, _shifted(a, diagonal)))  # corner to corner
        far0, far1 = _shifted([c0, c1], along, rng.uniform(0.2, 3.0))
        pairs.append((a, [c1, c0, far0, far1]))   # another length on a's first edge
        pairs.append((a, list(a)))                # identical
    pairs.append(([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                  [(1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)]))
    outcomes = set()
    for a, b in pairs:
        want = ref_rectangles_overlap(a, b)
        assert rectangles_overlap(a, b) == want
        assert rectangles_overlap(b, a) == ref_rectangles_overlap(b, a)
        outcomes.add(want)
    assert outcomes == {True, False}
    assert rectangles_overlap(*pairs[-1])  # unit squares that share an edge touch


# -- weather and time of day ---------------------------------------------------

def test_a_condition_is_its_three_factors():
    assert WEATHERS == ("clear", "cloudy", "thin_fog", "thick_fog",
                        "light_rain", "heavy_rain", "light_snow", "heavy_snow")
    assert TIMES_OF_DAY == ("00:00", "06:00", "12:00", "18:00")
    assert [f.name for f in dataclasses.fields(EnvironmentCondition)] == [
        "weather_visibility", "ambient_light", "fog_density"]
    for weather, (visibility, fog) in WEATHER.items():
        for time_of_day, light in TIME_LIGHT.items():
            assert condition_derive(weather, time_of_day) == \
                EnvironmentCondition(visibility, light, fog)
    with pytest.raises(dataclasses.FrozenInstanceError):
        condition_derive("clear", "12:00").ambient_light = 0.0


@pytest.mark.parametrize("weather, time_of_day", [("sleet", "12:00"), ("clear", "12:30")])
def test_an_unknown_weather_or_time_is_a_value_error(weather, time_of_day):
    with pytest.raises(ValueError):
        condition_derive(weather, time_of_day)
