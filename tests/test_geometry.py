import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compbss import geometry
from compbss.channel import drop_link_budget
from compbss.geometry import (NetworkLayout, _wrap_angle_in_place, build_layout,
                              drop_batch_size, drop_users, link_geometry)

from helpers import dense_image_search, einsum_region_membership

ISD = 500.0


def test_layout_has_49_sites(layout):
    assert layout.n_bs == 49
    assert layout.n_sectors == 147


def test_center_cluster_is_first_seven(layout):
    assert list(layout.center_cluster_bs_ids) == [1, 2, 3, 4, 5, 6, 7]
    center = layout.bs_xy[3]
    assert np.allclose(center, 0.0)
    ring = [b for b in range(7) if b != 3]
    d = np.linalg.norm(layout.bs_xy[ring] - center, axis=1)
    assert np.allclose(d, ISD)


def test_cluster_pairwise_distances(layout):
    expected = {ISD, math.sqrt(3) * ISD, 2 * ISD}
    got = set()
    for a, b in itertools.combinations(range(7), 2):
        got.add(round(float(np.linalg.norm(layout.bs_xy[a] - layout.bs_xy[b])), 6))
    assert got == {round(v, 6) for v in expected}


def test_sector_bs_bijection(layout):
    for s in range(1, 148):
        assert layout.sector_bs[s - 1] + 1 == math.ceil(s / 3)
    for b in range(1, 50):
        sectors = np.flatnonzero(layout.sector_bs == b - 1) + 1
        assert sectors.tolist() == [3 * b - 2, 3 * b - 1, 3 * b]


def test_wrap_shifts_magnitude(layout):
    assert np.allclose(np.linalg.norm(layout.wrap_shifts, axis=1), 7 * ISD)


def test_wraparound_image_lattice_has_no_collisions(layout):
    shifts = np.vstack([np.zeros(2), layout.wrap_shifts])
    pts = (layout.bs_xy[None, :, :] + shifts[:, None, :]).reshape(-1, 2)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() == pytest.approx(ISD, rel=1e-9)


def test_bs_pairs_have_unique_min_image(layout):
    shifts = np.vstack([np.zeros(2), layout.wrap_shifts])
    for a in range(layout.n_bs):
        diff = layout.bs_xy[a] - layout.bs_xy - shifts[:, None, :]   # (7, B, 2)
        d = np.linalg.norm(diff, axis=-1)
        best = d.min(axis=0)
        n_at_min = (np.abs(d - best[None, :]) < 1e-6).sum(axis=0)
        mask = np.ones(layout.n_bs, dtype=bool)
        mask[a] = False
        assert np.all(n_at_min[mask] == 1)


def test_wraparound_distance_symmetric(layout):
    dist, _ = link_geometry(layout, layout.bs_xy)     # BS to BS, min image
    assert dist == pytest.approx(dist.T, rel=1e-12)
    assert np.all(np.diag(dist) == 1.0)               # clamped from 0


def test_min_image_not_longer_than_direct(layout):
    dist, _ = link_geometry(layout, layout.bs_xy)
    for a, b in [(1, 49), (2, 45), (10, 30)]:
        direct = float(np.linalg.norm(layout.bs_xy[a - 1] - layout.bs_xy[b - 1]))
        assert dist[a - 1, b - 1] <= direct + 1e-9


def test_min_image_matches_bruteforce_shift_scan(layout):
    """Oracle: plain loop over the 7 images."""
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3000, 3000, size=(30, 2))
    dist, az = link_geometry(layout, pts)
    shifts = [np.zeros(2)] + list(layout.wrap_shifts)
    for i, p in enumerate(pts):
        for b in range(layout.n_bs):
            best = min(float(np.linalg.norm(p - (layout.bs_xy[b] + s))) for s in shifts)
            assert dist[i, b] == pytest.approx(max(best, 1.0), rel=1e-9)


def _wrap(angle):
    """``_wrap_angle_in_place`` on a copy of ``angle``, as a 1-d array."""
    y = np.array(angle, dtype=float, ndmin=1)
    return _wrap_angle_in_place(y, np.empty_like(y))


def _sector_link(layout, point, sector_id):
    """Distance and boresight offset of one link, from ``link_geometry``."""
    dist, az = link_geometry(layout, np.array([point], dtype=float))
    b = layout.sector_bs[sector_id - 1]
    return dist[0, b], _wrap(az[0, b] - layout.sector_boresight_deg[sector_id - 1])[0]


def test_user_on_boresight_has_zero_offset(layout):
    # sector 10: centre BS, boresight 0 degrees
    d, phi = _sector_link(layout, (200.0, 0.0), 10)
    assert d == pytest.approx(200.0)
    assert phi == pytest.approx(0.0, abs=1e-9)


def test_user_at_antipodal_bearing(layout):
    d, phi = _sector_link(layout, (-150.0, 0.0), 10)
    assert abs(phi) == pytest.approx(180.0)


def test_far_user_snaps_to_wraparound_image(layout):
    # beyond half the wrap distance the image is closer than the direct path
    p = (3000.0, 0.0)
    d, _ = _sector_link(layout, p, 10)
    direct = float(np.linalg.norm(p))
    assert d < direct


def test_distance_clamped_to_one_meter(layout):
    d, _ = _sector_link(layout, (0.0, 0.0), 10)
    assert d == 1.0


def test_layout_config_validation():
    for isd in (-1.0, 0.0, float("nan"), float("inf"), 1.0e-200, 0.5):
        with pytest.raises(ValueError, match=re.escape(f"inter_site_distance_m={isd!r}")):
            build_layout(isd)


def test_drop_deterministic(layout):
    d1 = drop_users(layout, 60.0, 12345)
    d2 = drop_users(layout, 60.0, 12345)
    assert np.array_equal(d1.positions, d2.positions)
    assert np.array_equal(d1.link_dist_m, d2.link_dist_m)
    assert np.array_equal(d1.link_az_deg, d2.link_az_deg)


def test_drop_count_is_the_drop_size(layout):
    """The count that the realization stream sizes a drop's first draw by,
    without dropping the users."""
    for density, seed in itertools.product([1e-3, 20.0, 160.0], range(5)):
        key = np.random.SeedSequence(7, spawn_key=(0, seed))
        n_users = drop_users(layout, density, key).n_users
        assert geometry.drop_count(layout, density, key) == n_users


def test_drop_density_scaling(layout):
    n20 = np.mean([drop_users(layout, 20.0, s).n_users for s in range(40)])
    n160 = np.mean([drop_users(layout, 160.0, s).n_users for s in range(40)])
    assert n160 / n20 == pytest.approx(8.0, rel=0.1)


def test_drop_mean_count_matches_density(layout):
    """Law of large numbers: 500 drops at low density."""
    density = 5.0
    counts = [drop_users(layout, density, s).n_users for s in range(500)]
    expected = density * layout.region_area_m2 / 1e6
    assert np.mean(counts) == pytest.approx(expected, rel=0.05)


def test_drop_positions_inside_region(layout):
    drop = drop_users(layout, 40.0, 7)
    dist, _ = link_geometry(layout, drop.positions)
    # nearest site of every accepted point is the un-shifted one by construction
    nearest = dist.min(axis=1)
    assert np.all(nearest <= layout.hex_circumradius_m + 1e-9)


@pytest.mark.parametrize("density", [20.0, 60.0, 160.0])
def test_drop_keeps_link_geometry_bit_for_bit(layout, density):
    """The drop's users, distances and bearings have the bits of the dense
    search over all 343 images, and each user's nearest BS (the least link
    distance) is the dense search's nearest site."""
    for seed in range(4):
        drop = drop_users(layout, density, seed)
        accept, nearest, dist, az, _ = dense_image_search(layout, drop.positions)
        assert drop.link_dist_m.shape == (drop.n_users, layout.n_bs)
        assert accept.all()
        assert np.array_equal(drop.link_dist_m.argmin(axis=1), nearest)
        assert np.array_equal(drop.link_dist_m, np.maximum(dist, 1.0))
        assert np.array_equal(drop.link_az_deg, az)


def _rotated_preset(deg=10.0):
    """The preset with its positions and wrap shifts rotated by ``deg``: a
    layout whose sites and shifts the preset's axes do not line up with."""
    preset = build_layout()
    a = math.radians(deg)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    return NetworkLayout(bs_xy=preset.bs_xy @ rot.T, cluster_id=preset.cluster_id,
                         wrap_shifts=preset.wrap_shifts @ rot.T,
                         inter_site_distance_m=preset.inter_site_distance_m)


def test_layout_off_the_site_lattice_is_refused():
    """The region test locates candidates on the site lattice, so a layout
    whose image sites are not distinct lattice points is refused."""
    preset = build_layout()
    moved = preset.bs_xy.copy()
    moved[5] += 1.0
    with pytest.raises(ValueError, match="one hexagonal lattice"):
        NetworkLayout(bs_xy=moved, cluster_id=preset.cluster_id,
                      wrap_shifts=preset.wrap_shifts, inter_site_distance_m=500.0)


def _ring(centres, radius, n_dirs=6):
    """Points at ``radius`` from every centre, in ``n_dirs`` directions."""
    ang = np.radians(np.arange(n_dirs) * 360.0 / n_dirs + 0.5)
    ring = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return (centres[:, None, :] + ring[None, :, :]).reshape(-1, 2)


def _adversarial_points(layout, rng):
    """Inputs that sit on or next to every decision the search makes."""
    isd = layout.inter_site_distance_m
    shifts = np.vstack([np.zeros(2), layout.wrap_shifts])
    sites = (layout.bs_xy[None, :, :] + shifts[:, None, :]).reshape(-1, 2)
    # hex vertices (3-way ties) and edge midpoints (2-way ties) of every cell:
    # the edge normals point at the six neighbours, 30 degrees off the
    # vertices
    ang = np.radians(60.0 * np.arange(6))
    preset = build_layout().wrap_shifts[0]
    rot = math.atan2(layout.wrap_shifts[0, 1], layout.wrap_shifts[0, 0]) \
        - math.atan2(preset[1], preset[0])
    normal = np.stack([np.cos(ang + rot + math.pi / 6), np.sin(ang + rot + math.pi / 6)], axis=1)
    vert = isd / math.sqrt(3.0) * np.stack([np.cos(ang + rot), np.sin(ang + rot)], axis=1)
    ties = (sites[:, None, :] + np.vstack([vert, isd / 2.0 * normal])[None, :, :]).reshape(-1, 2)
    # midpoints between two images of one BS (ties between its images)
    k, m = np.triu_indices(7, 1)
    per_bs = layout.bs_xy[:, None, :] + shifts[None, :, :]
    ties = np.vstack([ties, (0.5 * (per_bs[:, k] + per_bs[:, m])).reshape(-1, 2)])
    ties = np.vstack([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
    # the slab hexagon of every site image: its vertices and a point on each
    # edge, and one ulp either side of each
    t = layout.images
    along = np.stack([-normal[:, 1], normal[:, 0]], axis=1) * t.half_width / math.sqrt(3.0)
    slab = np.vstack([t.half_width * normal - along, t.half_width * normal + 0.5 * along])
    slab = (sites[:, None, :] + slab[None, :, :]).reshape(-1, 2)
    slab = np.vstack([slab, np.nextafter(slab, np.inf), np.nextafter(slab, -np.inf)])
    # rings one ulp either side of the slab half-width and the certified radius
    rho = math.sqrt(t.image_rho2)
    radii = [np.nextafter(r, -np.inf) for r in (t.half_width, rho)] + [t.half_width, rho] \
        + [np.nextafter(r, np.inf) for r in (t.half_width, rho)]
    rings = np.vstack([_ring(sites, r) for r in radii])
    # lattice points that are no image site
    i, j = (c.reshape(-1, 1) for c in np.meshgrid(np.arange(-25, 26), np.arange(-25, 26)))
    lattice = layout.bs_xy[0] + isd * (i * normal[0] + j * normal[1])
    gap = np.linalg.norm(lattice[:, None, :] - sites[None, :, :], axis=-1).min(axis=1)
    lattice = lattice[gap > 0.5 * isd]
    # the drop box, its corners and random points in and around it
    pad = layout.hex_circumradius_m
    lo = layout.bs_xy.min(axis=0) - pad
    hi = layout.bs_xy.max(axis=0) + pad
    corners = np.array([lo, hi, [lo[0], hi[1]], [hi[0], lo[1]]])
    uniform = rng.uniform(lo - 7 * isd, hi + 7 * isd, size=(2000, 2))
    return np.vstack([sites, ties, slab, rings, lattice, corners, uniform])


@pytest.mark.parametrize("make_layout", [
    build_layout,
    lambda: build_layout(250.0),
    lambda: build_layout(1732.05),
    _rotated_preset,
], ids=["isd500", "isd250", "isd1732", "rotated-file"])
def test_image_search_matches_dense_oracle(make_layout, monkeypatch):
    """The certified search gives the dense search's accept flag, nearest BS,
    distance, bearing and image index, bit for bit, on sites, ties, the site
    hexagons' slab edges and vertices, points one ulp either side of those and
    of each certified radius, lattice points that are no image site and random
    points, and both its certified and its dense paths run."""
    layout = make_layout()
    pts = _adversarial_points(layout, np.random.default_rng(5))
    dense_rows = []
    dense = geometry._image_d2

    def counted(x, y, p, *tables):
        dense_rows.append(p.shape[0])
        return dense(x, y, p, *tables)

    monkeypatch.setattr(geometry, "_image_d2", counted)
    got, want = [], []
    for chunk in np.array_split(pts, 8):    # bounds the oracle's (N, 7, B, 2) tensor
        got.append(geometry._region_test(layout, chunk)
                   + geometry._image_geometry(layout, chunk))
        want.append(dense_image_search(layout, chunk))
    got = [np.concatenate(f) for f in zip(*got)]
    want = [np.concatenate(f) for f in zip(*want)]
    for name, g, w in zip(("accept", "nearest", "dist", "az", "shift"), got, want):
        assert np.array_equal(g, w), name
    accept, nearest, _, _, shift = got
    # the region test decided some candidates from the lattice alone (each
    # chunk is located twice, since _image_geometry locates it again) ...
    assert 0 < sum(dense_rows) < 2 * pts.shape[0]
    # ... and some accepted (point, BS) pairs left the image their nearest
    # site's table row guessed, which only the 7-image rows can do
    guess = layout.images.guess_k[nearest[accept]]
    assert np.any(shift[accept] != guess) and np.any(shift[accept] == guess)


def test_lattice_locates_every_drop_box_candidate(layout, monkeypatch):
    """Inside the drop box, the lattice certifies every candidate: none but
    those within the slab margin of a hexagon edge, of which a uniform draw
    has about none, takes the dense search."""
    calls = []
    monkeypatch.setattr(geometry, "_image_d2", lambda *args: calls.append(args))
    lo, hi, _ = geometry._drop_box(layout)
    geometry._region_test(layout, np.random.default_rng(8).uniform(lo, hi, size=(20_000, 2)))
    assert calls == []


def _replay_drop(layout, density, seed, batch_size):
    """The drop's random stream, read in batches of ``batch_size(count)``
    candidates through the offset-tensor region test: (count, accepted
    positions, their nearest BS, accepted candidates of the first batch)."""
    pad = layout.hex_circumradius_m
    lo = layout.bs_xy.min(axis=0) - pad
    hi = layout.bs_xy.max(axis=0) + pad
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(density * layout.region_area_m2 / 1e6))
    pts, nearest = [], []
    while sum(p.shape[0] for p in pts) < count:
        cand = rng.uniform(lo, hi, size=(batch_size(count), 2))
        ok, bs_idx = einsum_region_membership(layout, cand)
        pts.append(cand[ok])
        nearest.append(bs_idx[ok])
    return count, np.vstack(pts)[:count], np.concatenate(nearest)[:count], pts[0].shape[0]


@pytest.mark.parametrize("density", [20.0, 160.0])
def test_drop_accepts_what_the_einsum_oracle_accepts(layout, density):
    """Replay the drop's random stream through the offset-tensor region test.

    The drop sizes its batches from the acceptance rate; replays at other
    batch sizes (the former max(256, 2 * count) and one draw of 4 * count)
    must keep the same users, since the uniform stream does not depend on how
    it is split.
    """
    for seed in range(3):
        drop = drop_users(layout, density, seed)
        for batch_size in (lambda count: max(256, 2 * count), lambda count: 4 * count):
            count, pts, nearest, _ = _replay_drop(layout, density, seed, batch_size)
            assert drop.n_users == count
            assert np.array_equal(drop.positions, pts)
            assert np.array_equal(drop.link_dist_m.argmin(axis=1), nearest)


def test_drop_tops_up_a_short_first_batch(layout):
    """At seed 151 the first acceptance-sized batch keeps too few users, so
    the drop draws a second batch; the users still match a one-batch replay."""
    pad = layout.hex_circumradius_m
    box = np.prod(layout.bs_xy.max(axis=0) - layout.bs_xy.min(axis=0) + 2 * pad)
    rate = layout.region_area_m2 / box
    count, _, _, first = _replay_drop(layout, 60.0, 151,
                                      lambda n: drop_batch_size(n, rate))
    assert first < count
    _, pts, nearest, _ = _replay_drop(layout, 60.0, 151, lambda n: 4 * n)
    drop = drop_users(layout, 60.0, 151)
    assert np.array_equal(drop.positions, pts)
    assert np.array_equal(drop.link_dist_m.argmin(axis=1), nearest)


def test_empty_drop_has_empty_link_geometry(layout):
    drop = drop_users(layout, 1e-4, 0)
    assert drop.n_users == 0
    assert drop.link_dist_m.shape == (0, layout.n_bs)
    assert drop.link_az_deg.shape == (0, layout.n_bs)
    assert drop_link_budget(layout, drop).shape == (0, layout.n_sectors)


@settings(max_examples=50, deadline=None)
@given(angle=st.floats(min_value=-540, max_value=540, exclude_max=True, allow_nan=False))
@example(np.nextafter(-180.0, -np.inf))
@example(-540.0)
@example(np.nextafter(540.0, 0.0))
def test_wrap_angle_range(angle):
    w = float(_wrap(angle)[0])
    assert -180.0 <= w < 180.0
    assert abs((w - angle) % 360.0) < 1e-6 or abs((w - angle) % 360.0 - 360.0) < 1e-6


def _remainder_wrap(x):
    """(x + 180) % 360 - 180, with the 180.0 it rounds to just below -180 mapped
    to -180."""
    w = np.asarray((x + 180.0) % 360.0 - 180.0)
    w[w == 180.0] = -180.0
    return w


def test_wrap_angle_matches_remainder_bitwise():
    """The compare-and-add wrap gives the bits of (x + 180) % 360 - 180 on its
    domain [-540, 540), edges and their neighbours included, except that it
    never returns 180."""
    edges = np.array([-540.0, -420.0, -180.0, 0.0, 180.0, -0.0, -360.0, 360.0, 540.0])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf),
                            np.nextafter(edges, -np.inf), [-180.0 - 1e-300, -180.0 + 1e-300]])
    edges = edges[(edges >= -540.0) & (edges < 540.0)]
    x = np.concatenate([edges, np.linspace(-540.0, 540.0, 600_001)[:-1],
                        np.random.default_rng(0).uniform(-540.0, 540.0, 400_000)])
    assert _wrap(x).tobytes() == _remainder_wrap(x).tobytes()
    for v in edges:
        assert _wrap(v).tobytes() == _remainder_wrap(np.array([v])).tobytes()


def test_degrees_by_multiplication_keeps_every_bit():
    """The bearings are converted as ``np.multiply(x, 180 / np.pi)``: the bits
    of ``np.degrees`` on ``arctan2`` outputs, signed zeros, +-pi and
    subnormals included."""
    tiny = np.array([5e-324, 1e-310, 2.2250738585072014e-308])
    y = np.concatenate([[0.0, -0.0, 1.0, -1.0], tiny, -tiny,
                        np.random.default_rng(3).normal(size=200_000)])
    x = np.concatenate([[-1.0, -1.0, 0.0, 0.0], np.ones(6),
                        np.random.default_rng(4).normal(size=200_000)])
    angles = np.concatenate([np.arctan2(y, x), [math.pi, -math.pi, 0.0, -0.0],
                             np.nextafter(math.pi, 0.0) * np.array([1.0, -1.0]),
                             tiny, -tiny])
    assert np.multiply(angles, 180 / np.pi).tobytes() == np.degrees(angles).tobytes()
