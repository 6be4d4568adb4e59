"""Hexagonal 49-site wraparound layout, user drops, and link geometry.

The network is a centre cluster of 7 tri-sector base stations surrounded by
6 translated clusters (49 BSs, 147 sectors).  The whole field wraps around:
every user-to-site link is evaluated on the minimum-distance image among the
identity placement and the 6 wrap translations.

One image search per user drop serves both the region test that accepts
candidate positions and the link geometry (distance and bearing) of the
accepted users, which :class:`UserDrop` keeps for the link budget.

The search is certified by bounds that the layout derives from its own 343
image sites (:class:`ImageTables`), each shrunk by a relative 1e-9 so float
rounding cannot flip a decision.  The image sites lie on one hexagonal
lattice, spanned by two nearest-neighbour vectors of the identity sites 60
degrees apart: the region test cube-rounds a candidate to its nearest
lattice point, looks up the image site there, and takes it as the strict
nearest when the offset lies inside the site's hexagon, ``|offset . e| <
ISD / 2`` on each of its three edge normals ``e``.  A (user, BS) pair closer
than ``rho``, half the smallest distance between two images of one BS, to
the image that the per-site table names for the user's nearest site keeps
that image.  The rest take the dense search with the first-minimum tie rule,
so ties still go to the identity image: candidates outside the hexagon or at
a lattice point that is no image site (about none in a drop box) over all
343 images, and pairs beyond ``rho`` (about 14 % at the preset) over the 7
images of their BS.  Offsets, distances and bearings come from the same
expressions on either path, so the result has the bits of a dense search
over all 343 images.

A campaign passes one grow-only :class:`DropScratch` to every drop, and the
drop and fading stages (here and in :mod:`compbss.channel`) write their
large arrays into it with ``out=`` instead of allocating fresh ones.  Its
buffers are shared by role, in units of one (users, BSs) float table: the
drop's distances and bearings come first, and the path loss, the link
budget and the antenna gain that becomes the draw table follow.  Until the
link budget is built, everything after the bearings is free, so the dense
region search's tables and the image search's offsets and rows take it.
The fading draws of a drop alternate between that draw table and a buffer
of their own, :meth:`DropScratch.first_draw`, so that a helper thread can
make the next draw while the current one is read; the first-draw buffer
takes a drop's first draw, which the helper can make while the drop itself
is built (the realization stream, ``campaign._realizations``).  The same
ufuncs run on the same operands in the same order, so every bit is kept.
A drop's arrays and budget stay valid until the next drop on the same
scratch, and a draw until the next draw into its table (or buffer) or the
next drop; a call without a scratch returns fresh arrays.  On a 2-core
Xeon the fig4 benchmark grid (10 drops of one draw) took 5k-12k minor page
faults per CLI campaign with fresh arrays whenever glibc returned its heap
pages (most of them in this module, the rest in the link budget), and under
10 with the scratch (medians of 30 in-process campaigns).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# Ring sites listed counter-clockwise from 30 degrees.  The in-cluster BS ids
# are chosen so that the shipped CoMP sector groups are mutually facing
# sectors; the cluster centre is local id 4.
_RING_LOCAL_IDS = (3, 6, 7, 5, 2, 1)

# Boresights of the 3 sectors of every BS.
BORESIGHTS_DEG = (0.0, 120.0, 240.0)

# 7 clusters of 7 sites.
N_SITES = 49
MIN_DISTANCE_M = 1.0    # every link's floor, and the shortest inter-site distance
# The longest inter-site distance: far above any real network, and far below
# the roughly 1e152 m at which the layout's squared site spacings overflow.
MAX_DISTANCE_M = 1e9


# Relative shrink of the certified bounds: far above the float rounding of the
# squared distances they are compared with (a few 1e-16), far below any gap a
# layout has between its sites.
_RADIUS_SAFETY = 1.0 - 1e-9

_OFF_LATTICE = "the image sites are not distinct points of one hexagonal lattice"


@dataclass(frozen=True, eq=False)
class ImageTables:
    """Tables of the certified image search, derived from a layout.

    ``x``/``y`` place every BS at the identity placement (image 0) and the 6
    wraps, as (7, B); ``bs_x``/``bs_y`` hold the same as (B, 7).  The site
    lattice (see the module docstring): ``to_ij`` maps a point to lattice
    coordinates, at which ``site_of`` holds the flat (image, BS) index of
    the image site or -1; a point inside that site's slabs,
    ``|offset . normals[m]| < half_width``, has it as strict nearest.
    ``image_rho2`` is the squared ``rho``.  ``guess_k[j, b]`` is the image of
    BS b nearest to identity site j, at ``guess_x[j, b]``, ``guess_y[j, b]``.
    """

    x: np.ndarray           # (7, B)
    y: np.ndarray           # (7, B)
    bs_x: np.ndarray        # (B, 7)
    bs_y: np.ndarray        # (B, 7)
    to_ij: tuple            # (a, b, c, d, e, f): i = a*x + b*y + c, j = d*x + e*y + f
    site_of: np.ndarray     # (I, J) flat image index or -1
    normals: np.ndarray     # (3, 2) unit edge normals of a site's hexagon
    half_width: float
    image_rho2: float
    guess_k: np.ndarray     # (B, B) image index
    guess_x: np.ndarray     # (B, B)
    guess_y: np.ndarray     # (B, B)

    @classmethod
    def build(cls, bs_xy: np.ndarray, wrap_shifts: np.ndarray) -> "ImageTables":
        """Derive the tables from the site positions and the 6 wrap shifts."""
        shifts = np.vstack([np.zeros(2), wrap_shifts])
        xy = bs_xy[None, :, :] + shifts[:, None, :]
        n = bs_xy.shape[0]
        x, y = np.ascontiguousarray(xy[..., 0]), np.ascontiguousarray(xy[..., 1])
        # the site lattice: two nearest-neighbour vectors of the identity
        # sites, 60 degrees apart (of the six, the largest cos + sin from e1)
        d = (bs_xy[:, None, :] - bs_xy[None, :, :]).reshape(-1, 2)
        r2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        nn2 = r2[r2 > 0].min()
        near = d[abs(r2 - nn2) < 1e-6 * nn2]
        e1 = near[0]
        e2 = near[np.argmax((e1[0] - e1[1]) * near[:, 0] + (e1[0] + e1[1]) * near[:, 1])]
        det = e1[0] * e2[1] - e1[1] * e2[0]
        if det < 0.8 * nn2:     # nn2 * sin(60 degrees) on a hexagonal lattice
            raise ValueError(_OFF_LATTICE)
        inv = np.array([[e2[1], -e2[0]], [-e1[1], e1[0]]]) / det
        ij = inv[:, 0] * x.reshape(-1, 1) + inv[:, 1] * y.reshape(-1, 1)
        c = -ij.min(axis=0)
        ij += c
        at = np.rint(ij).astype(np.intp)
        if np.abs(ij - at).max() > 1e-12:
            raise ValueError(_OFF_LATTICE)
        site_of = np.full(at.max(axis=0) + 1, -1)
        site_of[at[:, 0], at[:, 1]] = np.arange(at.shape[0])
        if np.count_nonzero(site_of >= 0) < at.shape[0]:
            raise ValueError(_OFF_LATTICE)
        edges = np.array([e1, e2, e2 - e1])
        # rho: every pair of the 7 images of one BS
        ix = x.T[:, :, None] - x.T[:, None, :]
        iy = y.T[:, :, None] - y.T[:, None, :]
        img2 = ix * ix + iy * iy
        img2[:, np.arange(7), np.arange(7)] = np.inf
        image_rho = 0.5 * math.sqrt(img2.min()) * _RADIUS_SAFETY
        guess_k = _image_d2(x, y, bs_xy).argmin(axis=1)
        cols = np.arange(n)[None, :]
        return cls(x=x, y=y, bs_x=np.ascontiguousarray(x.T), bs_y=np.ascontiguousarray(y.T),
                   to_ij=(*inv[0], c[0], *inv[1], c[1]), site_of=site_of,
                   normals=edges / np.sqrt((edges * edges).sum(axis=1))[:, None],
                   half_width=0.5 * math.sqrt(nn2) * _RADIUS_SAFETY,
                   image_rho2=image_rho * image_rho,
                   guess_k=guess_k, guess_x=x[guess_k, cols], guess_y=y[guess_k, cols])


@dataclass(frozen=True, eq=False)
class NetworkLayout:
    """Immutable site geometry shared read-only by all workers.

    BS, sector and cluster ids are 1-based in every public/file interface;
    array indices are 0-based.  Sector s belongs to BS ceil(s/3).
    """

    bs_xy: np.ndarray                 # (B, 2) metres
    cluster_id: np.ndarray            # (B,) 1-based cluster membership
    wrap_shifts: np.ndarray           # (6, 2) field translation vectors
    inter_site_distance_m: float
    sector_bs: np.ndarray = field(init=False)            # (S,) 0-based BS index
    sector_boresight_deg: np.ndarray = field(init=False)  # (S,)
    images: ImageTables = field(init=False, repr=False)

    def __post_init__(self):
        n = self.bs_xy.shape[0]
        object.__setattr__(self, "sector_bs", np.repeat(np.arange(n), 3))
        object.__setattr__(self, "sector_boresight_deg", np.tile(BORESIGHTS_DEG, n))
        object.__setattr__(self, "images", ImageTables.build(self.bs_xy, self.wrap_shifts))

    @property
    def n_bs(self) -> int:
        return self.bs_xy.shape[0]

    @property
    def n_sectors(self) -> int:
        return 3 * self.n_bs

    @property
    def center_cluster_bs_ids(self) -> np.ndarray:
        """1-based ids of the centre-cluster BSs."""
        return np.flatnonzero(self.cluster_id == 1) + 1

    @property
    def center_cluster_sector_ids(self) -> np.ndarray:
        """1-based ids of the centre-cluster sectors (set W_q)."""
        bs0 = np.flatnonzero(self.cluster_id == 1)
        return (3 * bs0[:, None] + np.arange(1, 4)[None, :]).ravel()

    @property
    def hex_circumradius_m(self) -> float:
        return self.inter_site_distance_m / math.sqrt(3.0)

    @property
    def region_area_m2(self) -> float:
        """Area of the drop region: one hexagonal cell per BS."""
        return drop_region_area_m2(self.inter_site_distance_m)


def _rotate(vec: np.ndarray, deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([c * vec[0] - s * vec[1], s * vec[0] + c * vec[1]])


def drop_region_area_m2(inter_site_distance_m: float) -> float:
    """Area of the drop region of the layout at this ISD: one hexagonal cell
    per BS."""
    return N_SITES * (math.sqrt(3.0) / 2.0) * inter_site_distance_m ** 2


def expected_users(density_per_km2: float, inter_site_distance_m: float) -> float:
    """Mean user count of a drop: the density times the drop-region area."""
    return density_per_km2 * (drop_region_area_m2(inter_site_distance_m) / 1e6)


def _is_finite_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def inter_site_distance_error(isd) -> str | None:
    """Why ``isd`` is refused as the inter-site distance, or None."""
    if _is_finite_number(isd) and MIN_DISTANCE_M <= isd <= MAX_DISTANCE_M:
        return None
    return (f"inter_site_distance_m={isd!r} must be a finite number in "
            f"[{MIN_DISTANCE_M:g}, {MAX_DISTANCE_M:g}] m")


def build_layout(inter_site_distance_m: float = 500.0) -> NetworkLayout:
    """Build the 49-BS wraparound layout, 7 clusters of 7 sites.

    The centre cluster occupies BS ids 1..7 with the centre site at the
    origin; the 6 surrounding clusters are translated copies placed on the
    7-cluster hexagonal tiling.
    """
    isd = inter_site_distance_m
    if problem := inter_site_distance_error(isd):
        raise ValueError(problem)

    local_xy = np.zeros((7, 2))
    for k, local in enumerate(_RING_LOCAL_IDS):
        ang = math.radians(30.0 + 60.0 * k)
        local_xy[local - 1] = (isd * math.cos(ang), isd * math.sin(ang))

    # Cluster tiling shift: sqrt(7)*ISD; field wrap shift: 7*ISD.
    u = np.array([isd * math.cos(math.radians(30.0)), isd * math.sin(math.radians(30.0))])
    v = np.array([0.0, isd])
    cluster_shift = 2 * u + v
    wrap_base = 3 * u + 5 * v

    centers = [np.zeros(2)] + [_rotate(cluster_shift, 60.0 * k) for k in range(6)]
    bs_xy = np.vstack([c + local_xy for c in centers])
    cluster_id = np.repeat(np.arange(1, 8), 7)
    wrap_shifts = np.vstack([_rotate(wrap_base, 60.0 * k) for k in range(6)])

    return NetworkLayout(bs_xy=bs_xy, cluster_id=cluster_id, wrap_shifts=wrap_shifts,
                         inter_site_distance_m=isd)


# Where each role of a DropScratch starts, for a drop of n users on B sites,
# in units of one (n, B) float table; a (user, sector) array spans three.
# The drop's own temporaries start at _PATH_LOSS, which is free until the
# link budget is built, and run as far as they need.  The antenna gain's
# three tables at _DRAW become the draw table once the budget exists.
_DIST, _AZ, _PATH_LOSS, _BUDGET, _DRAW, _END = 0, 1, 2, 3, 6, 9


class DropScratch:
    """Grow-only float64 workspace of the drop and fading stages of one
    campaign (see the module docstring for its roles and lifetime).

    A drop that needs more than the buffer holds grows it first (it is
    never shrunk); arrays handed out before keep the old buffer alive.  A
    temporary that still does not fit, such as an unusually large dense
    search, gets a fresh array.
    """

    def __init__(self, n_floats: int = 0):
        self._buf = np.empty(n_floats)
        self._first = np.empty(0)

    @classmethod
    def for_density(cls, layout: NetworkLayout, density_per_km2: float) -> "DropScratch":
        """A scratch that holds a drop of the mean user count at this density
        plus four Poisson standard deviations, so that drops of that density
        and below rarely grow it."""
        mean = expected_users(density_per_km2, layout.inter_site_distance_m)
        return cls(_drop_floats(layout, math.ceil(mean + 4.0 * math.sqrt(mean))))

    def reserve(self, n_floats: int) -> None:
        """Grow the buffer to at least ``n_floats``."""
        if n_floats > self._buf.size:
            self._buf = np.empty(n_floats)

    def first_draw(self, shape) -> np.ndarray:
        """A float64 ``shape`` array over a buffer of its own, for a drop's
        even fading draws, the first of them made while the drop itself is
        built; the array stays valid until the next call.  The buffer grows to fit, and at
        least to the drop buffer's draw table (three of its nine tables)."""
        n = math.prod(shape)
        if n > self._first.size:
            self._first = np.empty(max(n, self._buf.size // 3))
        return self._first[:n].reshape(shape)

    def array(self, start: int, shape, dtype=np.float64) -> np.ndarray:
        """A C-ordered ``shape`` array over the buffer from float ``start``,
        or a fresh one past its end."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        stop = start + -(-nbytes // 8)
        if stop > self._buf.size:
            return np.empty(shape, dtype)
        return self._buf[start:stop].view(np.uint8)[:nbytes].view(dtype).reshape(shape)


def _drop_floats(layout: NetworkLayout, n_users: int) -> int:
    """Floats that the roles of a drop of ``n_users`` take."""
    return _END * n_users * layout.n_bs


def _array(scratch: DropScratch | None, start: int, shape, dtype=np.float64) -> np.ndarray:
    """``scratch.array(start, shape, dtype)``, or a fresh array without a
    scratch."""
    if scratch is None:
        return np.empty(shape, dtype)
    return scratch.array(start, shape, dtype)


def _image_d2(x: np.ndarray, y: np.ndarray, pts: np.ndarray, dx=None, dy=None) -> np.ndarray:
    """Squared distance from every point to every BS image at the (7, B)
    ``x``, ``y``, (N, 7, B): the dense search, run on the points the certified
    bounds leave open.  Written over ``dx``, with ``dy`` as its second table,
    when given."""
    dx = np.subtract(pts[:, 0, None, None], x, out=dx)
    dy = np.subtract(pts[:, 1, None, None], y, out=dy)
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _region_test(layout: NetworkLayout, pts: np.ndarray, scratch=None, start: int = 0):
    """Accept points whose nearest site image is an un-shifted BS.

    Returns (accept, nearest), each (N,): nearest is the BS of the nearest
    site image, as the flat argmin over all 343 images gives it (ties prefer
    the identity image).  The union of the 49 hexagonal cells is a
    fundamental domain of the wrap lattice, so accepted points are uniform on
    the torus.  The dense search's tables go to ``scratch`` from float
    ``start``.
    """
    t = layout.images
    px, py = pts[:, 0], pts[:, 1]
    a, b, c, d, e, f = t.to_ij
    # cube-round the lattice coordinates (i, j, -i - j) to the nearest lattice
    # point: the one that rounds farthest is set from the other two
    i, j = a * px + b * py + c, d * px + e * py + f
    k = -i - j
    ri, rj, rk = np.rint(i), np.rint(j), np.rint(k)
    di, dj, dk = np.abs(ri - i), np.abs(rj - j), np.abs(rk - k)
    ri = np.where((di > dj) & (di > dk), -rj - rk, ri)
    rj = np.where((dj > di) & (dj > dk), -ri - rk, rj)
    # its image site is the strict nearest when the offset lies inside the
    # site's slabs (past the table, the clipped lookup's site fails them)
    site = t.site_of.take((ri * t.site_of.shape[1] + rj).astype(np.intp), mode="clip")
    ox, oy = px - t.x.ravel()[site], py - t.y.ravel()[site]
    ok = site >= 0
    for nx, ny in t.normals:
        ok &= np.abs(ox * nx + oy * ny) < t.half_width
    accept = ok & (site < layout.n_bs)
    nearest = site % layout.n_bs
    dense = np.flatnonzero(~ok)
    if dense.size:
        shape = (dense.size, 7, layout.n_bs)
        d2 = _image_d2(t.x, t.y, pts[dense], _array(scratch, start, shape),
                       _array(scratch, start + math.prod(shape), shape))
        best = d2.reshape(dense.size, -1).argmin(axis=1)
        accept[dense] = best < layout.n_bs
        nearest[dense] = best % layout.n_bs
    return accept, nearest


def _best_image(layout: NetworkLayout, pts: np.ndarray, nearest: np.ndarray,
                dist: np.ndarray, az: np.ndarray, scratch=None, start: int = 0):
    """Distance and bearing from the nearest image of every BS to the points,
    written into the (N, B) ``dist`` and ``az``.

    ``nearest`` is the BS of each point's nearest site image, whose table
    row guesses the images.  The offsets go to ``scratch`` from float ``start``.
    Returns (pair, k): the flat (point, BS) indices that the dense 7-image
    search decided and the image it picked for each (0 denotes the identity
    image, and ties prefer it).
    """
    t = layout.images
    table = dist.size
    px, py = pts[:, 0, None], pts[:, 1, None]
    dx = np.take(t.guess_x, nearest, axis=0, out=_array(scratch, start, dist.shape),
                 mode="clip")
    dy = np.take(t.guess_y, nearest, axis=0, out=_array(scratch, start + table, dist.shape),
                 mode="clip")
    np.subtract(px, dx, out=dx)
    np.subtract(py, dy, out=dy)
    free = start + 2 * table    # past dx and dy
    d2 = np.multiply(dx, dx, out=dist)
    d2 += np.multiply(dy, dy, out=_array(scratch, free, dist.shape))
    shut = np.less(d2, t.image_rho2, out=_array(scratch, free, dist.shape, bool))
    pair = np.flatnonzero(np.logical_not(shut, out=shut))
    # the pairs the bound leaves open: all 7 images of the BS, as rows
    u, b = np.divmod(pair, dist.shape[1])
    rows7 = [_array(scratch, free + 7 * i * pair.size, (pair.size, 7)) for i in range(4)]
    ex = np.take(t.bs_x, b, axis=0, out=rows7[0], mode="clip")
    ey = np.take(t.bs_y, b, axis=0, out=rows7[1], mode="clip")
    np.subtract(px[u], ex, out=ex)
    np.subtract(py[u], ey, out=ey)
    del u, b
    e2 = np.multiply(ex, ex, out=rows7[2])
    e2 += np.multiply(ey, ey, out=rows7[3])
    k = e2.argmin(axis=1)
    at = np.arange(0, 7 * pair.size, 7)
    at += k     # the picked image of each row, as a flat index
    dx.reshape(-1)[pair] = ex.take(at)
    dy.reshape(-1)[pair] = ey.take(at)
    d2.reshape(-1)[pair] = e2.take(at)
    np.sqrt(d2, out=d2)
    np.multiply(np.arctan2(dy, dx, out=az), 180 / np.pi, out=az)
    return pair, k


def _image_geometry(layout: NetworkLayout, points: np.ndarray):
    """Distance and bearing from every BS (best wraparound image) to points.

    Returns (dist, az_deg, shift_idx), each (N, B); shift_idx 0 denotes the
    identity image and ties prefer it.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    nearest = _region_test(layout, pts)[1]
    dist, az = np.empty((pts.shape[0], layout.n_bs)), np.empty((pts.shape[0], layout.n_bs))
    pair, k = _best_image(layout, pts, nearest, dist, az)
    shift_idx = layout.images.guess_k[nearest]
    shift_idx.reshape(-1)[pair] = k
    return dist, az, shift_idx


def _wrap_angle_in_place(y, scratch):
    """Wrap the float angles in ``y`` to [-180, 180), in place; ``scratch``
    is a float array of y's shape that the wrap may overwrite.

    Requires y + 180 in [-360, 720), one turn either side of [0, 360).  The
    boresight offsets of the link budget lie in [-420, 180]: bearings from
    ``arctan2`` lie in [-180, 180] and the boresights in [0, 240].
    """
    y += 180.0
    # Adding 360 * ([y < 0] - [y >= 360]) gives the bits of y % 360 (fmod is
    # exact there and % adds 360 to the same negative y; adding 0.0 can only
    # turn -0.0 into 0.0, which -180 maps to the same value).  Both terms
    # come from y before it is shifted.  A float shift, not a masked add:
    # np.add(where=) over a mask that is a third true costs five times as much.
    # Only a bearing of 180 off a 0 boresight reaches 360.  Testing for it
    # spares the drop stage a bool temporary that made a fig4 campaign take
    # 2.5 times the page faults and 15-25 % longer (2-core Xeon).
    np.less(y, 0.0, out=scratch)
    if y.size and y.max() >= 360.0:
        scratch -= y >= 360.0
    scratch *= 360.0
    y += scratch
    y -= 180.0
    # A y just below 0 rounds to 360.0: that angle is -180.  The mask of
    # those goes into the scratch, which is free again.
    at_180 = scratch.reshape(-1).view(np.uint8)[:y.size].view(bool).reshape(y.shape)
    y[np.equal(y, 180.0, out=at_180)] = -180.0
    return y


def link_geometry(layout: NetworkLayout, points: np.ndarray):
    """Vectorised per-(user, BS) distance and bearing for gain construction.

    Distances are clamped to MIN_DISTANCE_M to stay inside the path-loss domain.
    """
    dist, az, _ = _image_geometry(layout, points)
    return np.maximum(dist, MIN_DISTANCE_M), az


@dataclass(frozen=True, eq=False)
class UserDrop:
    """One uniform user realization over the drop region: the positions and
    the link geometry of the link budget.

    ``link_dist_m`` and ``link_az_deg`` are :func:`link_geometry` of the
    positions, kept from the image search that accepted them.  That search
    is certified (see the module docstring), so every field has the bits of
    a dense search over all 343 images.  A drop holds no metric set: that
    depends on each fading draw (``scheduler.center_cluster_users``).
    """

    positions: np.ndarray          # (N, 2) metres
    link_dist_m: np.ndarray        # (N, B) best-image distance, clamped to >= 1 m
    link_az_deg: np.ndarray        # (N, B) bearing from the best BS image

    @property
    def n_users(self) -> int:
        return self.positions.shape[0]


def drop_batch_size(n_missing: int, accept_rate: float) -> int:
    """Candidates to draw for ``n_missing`` more users at the region's
    acceptance rate: the mean number needed plus three standard deviations
    (and a few spare), so a second batch is rarely drawn."""
    sd = math.sqrt(n_missing * (1.0 - accept_rate)) / accept_rate
    return int(math.ceil(n_missing / accept_rate + 3.0 * sd)) + 8


def _drop_box(layout: NetworkLayout):
    """(lo, hi, accept_rate): the box that drop candidates are drawn from and
    the share of it that the drop region covers."""
    pad = layout.hex_circumradius_m
    lo = layout.bs_xy.min(axis=0) - pad
    hi = layout.bs_xy.max(axis=0) + pad
    return lo, hi, layout.region_area_m2 / float(np.prod(hi - lo))


def _user_count(rng: np.random.Generator, layout: NetworkLayout,
                density_per_km2: float) -> int:
    """The Poisson user count of a drop, the first value of its stream."""
    return int(rng.poisson(expected_users(density_per_km2, layout.inter_site_distance_m)))


def drop_count(layout: NetworkLayout, density_per_km2: float, seed) -> int:
    """The number of users that :func:`drop_users` drops under ``seed``,
    without dropping them."""
    return _user_count(np.random.default_rng(seed), layout, density_per_km2)


def drop_users(layout: NetworkLayout, density_per_km2: float, seed,
               scratch: DropScratch | None = None) -> UserDrop:
    """Drop a Poisson number of users uniformly over the 49-cell region.

    Deterministic for a given seed.  The image search of the region test
    also gives the nearest site whose table row starts the link geometry
    search of the accepted users.  With a ``scratch``, the link distances and
    bearings live in it and stay valid until the next drop on it.
    """
    if density_per_km2 <= 0:
        raise ValueError("density must be > 0")
    rng = np.random.default_rng(seed)
    count = _user_count(rng, layout, density_per_km2)
    lo, hi, accept_rate = _drop_box(layout)

    if scratch is not None:
        scratch.reserve(_drop_floats(layout, count))
    table = count * layout.n_bs
    dist = _array(scratch, _DIST * table, (count, layout.n_bs))
    az = _array(scratch, _AZ * table, (count, layout.n_bs))
    accepted = [np.empty((0, 2))]
    n_have = 0
    while n_have < count:
        # The uniform stream does not depend on how it is split into batches,
        # so the batch size changes only how many draws are wasted.
        cand = rng.uniform(lo, hi, size=(drop_batch_size(count - n_have, accept_rate), 2))
        ok, bs_idx = _region_test(layout, cand, scratch, _PATH_LOSS * table)
        # the drop keeps only the first ``count`` accepted candidates
        keep = np.flatnonzero(ok)[:count - n_have]
        rows = slice(n_have, n_have + keep.size)
        _best_image(layout, cand[keep], bs_idx[keep], dist[rows], az[rows], scratch,
                    _PATH_LOSS * table)
        accepted.append(cand[keep])
        n_have += keep.size
    return UserDrop(
        positions=np.vstack(accepted),
        link_dist_m=np.maximum(dist, 1.0, out=dist),
        link_az_deg=az,
    )
