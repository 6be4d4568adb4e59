"""Hexagonal 49-site wraparound layout, user drops, and link geometry.

The network is a centre cluster of 7 tri-sector base stations surrounded by
6 translated clusters (49 BSs, 147 sectors).  The whole field wraps around:
every user-to-site link is evaluated on the minimum-distance image among the
identity placement and the 6 wrap translations.

One image search per user drop serves both the region test that accepts
candidate positions and the link geometry (distance and bearing) of the
accepted users, which :class:`UserDrop` keeps for the link budget.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

# Ring sites listed counter-clockwise from 30 degrees.  The in-cluster BS ids
# are chosen so that the shipped CoMP sector groups are mutually facing
# sectors; the cluster centre is local id 4.
_RING_LOCAL_IDS = (3, 6, 7, 5, 2, 1)
_CENTER_LOCAL_ID = 4


class LayoutError(ValueError):
    """Raised for invalid layout configurations."""


@dataclass(frozen=True)
class LayoutConfig:
    """Parameters of the hexagonal multi-cluster layout.

    Only the 7 clusters x 7 BSs preset ships; other sizes require explicit
    positions via :func:`layout_from_file`.
    """

    inter_site_distance_m: float = 500.0
    cluster_size: int = 7
    num_clusters: int = 7
    boresights_deg: tuple[float, float, float] = (0.0, 120.0, 240.0)

    def __post_init__(self):
        if self.inter_site_distance_m <= 0:
            raise LayoutError("inter_site_distance_m must be > 0")
        if len(self.boresights_deg) != 3:
            raise LayoutError("exactly 3 sector boresights per BS")
        b = sorted(a % 360.0 for a in self.boresights_deg)
        gaps = {round((b[1] - b[0]) % 360.0, 6), round((b[2] - b[1]) % 360.0, 6),
                round((b[0] - b[2]) % 360.0, 6)}
        if gaps != {120.0}:
            raise LayoutError("boresights must be mutually 120 degrees apart")
        if self.cluster_size != 7 or self.num_clusters != 7:
            raise LayoutError(
                "only the 7x7 preset ships; supply custom positions for other sizes"
            )


@dataclass(frozen=True, eq=False)
class NetworkLayout:
    """Immutable site geometry shared read-only by all workers.

    BS, sector and cluster ids are 1-based in every public/file interface;
    array indices are 0-based.  Sector s belongs to BS ceil(s/3).
    """

    bs_xy: np.ndarray                 # (B, 2) metres
    cluster_id: np.ndarray            # (B,) 1-based cluster membership
    wrap_shifts: np.ndarray           # (6, 2) field translation vectors
    boresights_deg: tuple[float, float, float]
    inter_site_distance_m: float
    sector_bs: np.ndarray = field(init=False)            # (S,) 0-based BS index
    sector_boresight_deg: np.ndarray = field(init=False)  # (S,)

    def __post_init__(self):
        n = self.bs_xy.shape[0]
        object.__setattr__(self, "sector_bs", np.repeat(np.arange(n), 3))
        object.__setattr__(
            self, "sector_boresight_deg",
            np.tile(np.asarray(self.boresights_deg, dtype=float), n),
        )

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

    def sectors_of_bs(self, bs_id: int) -> tuple[int, int, int]:
        return (3 * bs_id - 2, 3 * bs_id - 1, 3 * bs_id)

    def bs_of_sector(self, sector_id: int) -> int:
        return (sector_id + 2) // 3

    @property
    def hex_circumradius_m(self) -> float:
        return self.inter_site_distance_m / math.sqrt(3.0)

    @property
    def region_area_m2(self) -> float:
        """Area of the drop region: one hexagonal cell per BS."""
        return self.n_bs * (math.sqrt(3.0) / 2.0) * self.inter_site_distance_m ** 2

    def sector_active_mask(self, bs_on: np.ndarray) -> np.ndarray:
        """Expand a per-BS on/off mask to the 3 sectors of each BS."""
        return np.asarray(bs_on, dtype=bool)[self.sector_bs]


def _rotate(vec: np.ndarray, deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([c * vec[0] - s * vec[1], s * vec[0] + c * vec[1]])


def build_layout(config: LayoutConfig | None = None) -> NetworkLayout:
    """Build the 49-BS wraparound layout.

    The centre cluster occupies BS ids 1..7 with the centre site at the
    origin; the 6 surrounding clusters are translated copies placed on the
    7-cluster hexagonal tiling.
    """
    config = config or LayoutConfig()
    isd = config.inter_site_distance_m

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

    return NetworkLayout(
        bs_xy=bs_xy,
        cluster_id=cluster_id,
        wrap_shifts=wrap_shifts,
        boresights_deg=config.boresights_deg,
        inter_site_distance_m=isd,
    )


def _site_images(layout: NetworkLayout) -> np.ndarray:
    """Every BS at the identity placement (image 0) and the 6 wraps, (7, B, 2)."""
    shifts = np.vstack([np.zeros(2), layout.wrap_shifts])
    return layout.bs_xy[None, :, :] + shifts[:, None, :]


def _image_d2(images: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Squared distance from every point to every BS image, (N, 7, B)."""
    dx = pts[:, 0, None, None] - images[None, :, :, 0]
    dy = pts[:, 1, None, None] - images[None, :, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _best_image(images: np.ndarray, pts: np.ndarray, d2: np.ndarray):
    """Distance and bearing from the nearest image of every BS to the points.

    ``d2`` is :func:`_image_d2` of ``pts``.  Returns (dist, az_deg, shift_idx),
    each (N, B); shift_idx 0 denotes the identity image and ties prefer it.
    """
    shift_idx = d2.argmin(axis=1)                                  # (N, B)
    n_idx = np.arange(pts.shape[0])[:, None]
    b_idx = np.arange(images.shape[1])[None, :]
    dist = np.sqrt(d2[n_idx, shift_idx, b_idx])
    diff = pts[:, None, :] - images[shift_idx, b_idx]              # (N, B, 2)
    az = np.degrees(np.arctan2(diff[..., 1], diff[..., 0]))
    return dist, az, shift_idx


def _image_geometry(layout: NetworkLayout, points: np.ndarray):
    """Distance and bearing from every BS (best wraparound image) to points.

    Returns (dist, az_deg, shift_idx), each (N, B).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    images = _site_images(layout)
    return _best_image(images, pts, _image_d2(images, pts))


def wrap_angle_deg(angle):
    """Wrap angles to [-180, 180) (antipodal bearings map to -180)."""
    y = np.asarray(angle, dtype=float) + 180.0
    if np.ndim(y) and y.size and y.min() >= -360.0 and y.max() < 720.0:
        # One turn either way: a compare-and-add gives the bits of y % 360
        # (fmod is exact there and % adds 360 to the same negative y).  Both
        # masks come from y before it is shifted in place.
        below, above = y < 0.0, y >= 360.0
        np.add(y, 360.0, out=y, where=below)
        np.subtract(y, 360.0, out=y, where=above)
    else:
        y = np.asarray(y % 360.0)
    y -= 180.0
    # A y just below 0 rounds to 360.0 on either path: that angle is -180.
    y[y == 180.0] = -180.0
    return y[()]


def bs_distance(layout: NetworkLayout, a_id: int, b_id: int) -> float:
    """Wraparound (minimum-image) distance between two BSs, 1-based ids."""
    dist, _, _ = _image_geometry(layout, layout.bs_xy[a_id - 1])
    return float(dist[0, b_id - 1])


def user_sector_geometry(layout: NetworkLayout, point, sector_id: int):
    """Distance (clamped to >= 1 m) and boresight offset angle for one link.

    The offset is the angle in [-180, 180) between the user bearing, taken
    from the minimum-distance image of the sector's BS, and the sector
    boresight.
    """
    if not 1 <= sector_id <= layout.n_sectors:
        raise LayoutError(f"invalid sector id {sector_id}")
    b = layout.bs_of_sector(sector_id) - 1
    dist, az, _ = _image_geometry(layout, point)
    bore = layout.sector_boresight_deg[sector_id - 1]
    return max(float(dist[0, b]), 1.0), float(wrap_angle_deg(az[0, b] - bore))


def link_geometry(layout: NetworkLayout, points: np.ndarray):
    """Vectorised per-(user, BS) distance and bearing for gain construction.

    Distances are clamped to 1 m to stay inside the path-loss domain.
    """
    dist, az, _ = _image_geometry(layout, points)
    return np.maximum(dist, 1.0), az


@dataclass(frozen=True, eq=False)
class UserDrop:
    """One uniform user realization over the drop region.

    ``link_dist_m`` and ``link_az_deg`` are :func:`link_geometry` of the
    positions, kept from the image search that accepted them.
    """

    positions: np.ndarray          # (N, 2) metres
    density_per_km2: float
    seed: object
    nearest_bs_idx: np.ndarray     # (N,) 0-based candidacy tag
    nearest_cluster_id: np.ndarray  # (N,) 1-based
    link_dist_m: np.ndarray        # (N, B) best-image distance, clamped to >= 1 m
    link_az_deg: np.ndarray        # (N, B) bearing from the best BS image

    @property
    def n_users(self) -> int:
        return self.positions.shape[0]

    @property
    def is_empty(self) -> bool:
        """True when no user is a centre-cluster candidate."""
        return not bool(np.any(self.nearest_cluster_id == 1))


def _region_membership(n_bs: int, d2: np.ndarray):
    """Accept points whose nearest site image is an un-shifted BS.

    ``d2`` is :func:`_image_d2` of the points; ties prefer the identity image.
    The union of the 49 hexagonal cells is a fundamental domain of the wrap
    lattice, so accepted points are uniform on the torus.
    """
    best = d2.reshape(d2.shape[0], -1).argmin(axis=1)
    return best // n_bs == 0, best % n_bs


def drop_batch_size(n_missing: int, accept_rate: float) -> int:
    """Candidates to draw for ``n_missing`` more users at the region's
    acceptance rate: the mean number needed plus three standard deviations
    (and a few spare), so a second batch is rarely drawn."""
    sd = math.sqrt(n_missing * (1.0 - accept_rate)) / accept_rate
    return int(math.ceil(n_missing / accept_rate + 3.0 * sd)) + 8


def drop_users(layout: NetworkLayout, density_per_km2: float, seed) -> UserDrop:
    """Drop a Poisson number of users uniformly over the 49-cell region.

    Deterministic for a given seed.  Each user is tagged with its nearest BS
    (serving-cluster candidacy); callers skip realizations whose centre
    cluster ends up empty.  The image search of the region test also gives
    the link geometry of the accepted users.
    """
    if density_per_km2 <= 0:
        raise ValueError("density must be > 0")
    rng = np.random.default_rng(seed)
    area_km2 = layout.region_area_m2 / 1e6
    count = int(rng.poisson(density_per_km2 * area_km2))

    pad = layout.hex_circumradius_m
    lo = layout.bs_xy.min(axis=0) - pad
    hi = layout.bs_xy.max(axis=0) + pad
    images = _site_images(layout)
    accept_rate = layout.region_area_m2 / float(np.prod(hi - lo))

    accepted, nearest = [np.empty((0, 2))], [np.empty(0, dtype=int)]
    dists, azs = [np.empty((0, layout.n_bs))], [np.empty((0, layout.n_bs))]
    n_have = 0
    while n_have < count:
        # The uniform stream does not depend on how it is split into batches,
        # so the batch size changes only how many draws are wasted.
        cand = rng.uniform(lo, hi, size=(drop_batch_size(count - n_have, accept_rate), 2))
        d2 = _image_d2(images, cand)
        ok, bs_idx = _region_membership(layout.n_bs, d2)
        # the drop keeps only the first ``count`` accepted candidates
        keep = np.flatnonzero(ok)[:count - n_have]
        dist, az, _ = _best_image(images, cand[keep], d2[keep])
        accepted.append(cand[keep])
        nearest.append(bs_idx[keep])
        dists.append(dist)
        azs.append(az)
        n_have += keep.size
    nearest_bs = np.concatenate(nearest)
    return UserDrop(
        positions=np.vstack(accepted),
        density_per_km2=density_per_km2,
        seed=seed,
        nearest_bs_idx=nearest_bs,
        nearest_cluster_id=layout.cluster_id[nearest_bs],
        link_dist_m=np.maximum(np.vstack(dists), 1.0),
        link_az_deg=np.vstack(azs),
    )


def export_positions_csv(layout: NetworkLayout, path) -> None:
    """Write site positions as rows of (bs_id, x_m, y_m, cluster_id)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bs_id", "x_m", "y_m", "cluster_id"])
        for i in range(layout.n_bs):
            w.writerow([i + 1, f"{layout.bs_xy[i, 0]:.6f}", f"{layout.bs_xy[i, 1]:.6f}",
                        int(layout.cluster_id[i])])


def layout_from_file(path) -> NetworkLayout:
    """Load a layout, optionally with custom positions, from a YAML/JSON file.

    Recognised keys: inter_site_distance_m, cluster_size, num_clusters,
    boresights_deg, bs_positions, cluster_membership, wrap_shift_vectors.
    Without custom positions the file must describe the shipped 7x7 preset.
    """
    with open(path) as f:
        raw = yaml.safe_load(f) or {}
    if not isinstance(raw, dict):
        raise LayoutError(f"{path}: expected a mapping of layout keys")
    known = {"inter_site_distance_m", "cluster_size", "num_clusters", "boresights_deg",
             "bs_positions", "cluster_membership", "wrap_shift_vectors"}
    unknown = set(raw) - known
    if unknown:
        raise LayoutError(f"{path}: unknown layout keys {sorted(unknown)}")

    isd = float(raw.get("inter_site_distance_m", 500.0))
    boresights = tuple(raw.get("boresights_deg", (0.0, 120.0, 240.0)))
    if "bs_positions" in raw:
        bs_xy = np.asarray(raw["bs_positions"], dtype=float)
        if bs_xy.ndim != 2 or bs_xy.shape[1] != 2:
            raise LayoutError(f"{path}: bs_positions must be a list of [x, y] pairs")
        if "cluster_membership" not in raw or "wrap_shift_vectors" not in raw:
            raise LayoutError(
                f"{path}: custom positions need cluster_membership and wrap_shift_vectors"
            )
        cluster = np.asarray(raw["cluster_membership"], dtype=int)
        shifts = np.asarray(raw["wrap_shift_vectors"], dtype=float)
        if cluster.shape[0] != bs_xy.shape[0]:
            raise LayoutError(f"{path}: cluster_membership length mismatch")
        if shifts.shape != (6, 2):
            raise LayoutError(f"{path}: wrap_shift_vectors must be 6 [x, y] pairs")
        if len(boresights) != 3:
            raise LayoutError(f"{path}: exactly 3 boresights required")
        return NetworkLayout(
            bs_xy=bs_xy, cluster_id=cluster, wrap_shifts=shifts,
            boresights_deg=boresights, inter_site_distance_m=isd,
        )
    config = LayoutConfig(
        inter_site_distance_m=isd,
        cluster_size=int(raw.get("cluster_size", 7)),
        num_clusters=int(raw.get("num_clusters", 7)),
        boresights_deg=boresights,
    )
    return build_layout(config)
