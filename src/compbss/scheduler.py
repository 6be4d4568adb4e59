"""Alpha-fair user scheduling for CoMP virtual clusters.

Given link rates, the optimal time fractions have closed forms: within a
pool (one sector's non-CoMP users, or one virtual cluster's CoMP users)
each user receives t_u / sum(t_v) with t = r^((1-alpha)/alpha), and the
share of time a virtual cluster devotes to joint transmission is
theta = delta / (1 + delta) with
delta = [sum_c (r*beta)^(1-alpha) / sum_nc (r*beta)^(1-alpha)]^(1/alpha).
The scheduling pipeline here applies those forms to a whole field of
sectors at once; it is independent of the site topology.

Only the users that share a pool with the metric set V_q can change its
rates, its coverage or the theta of a multi-sector cluster.  T holds the
sectors that serve a V_q user under some sleep pattern and every sector of a
multi-sector cluster; the pool users (:func:`pool_users`) are the users that
some pattern serves from a sector of T.  Each sector pool, CoMP pool and
cluster theta that an output reads then sums over pool users only, in field
order, so the stages after association may run on the pool users alone and
keep every bit.  The joint power is the exception: :func:`cluster_links`
multiplies the whole draw, because the BLAS kernels sum a row of a product in
an order that depends on the row's position in the operand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import McsTable, from_db, to_db
from .clusters import CompConfiguration, sector_vclusters
from .geometry import NetworkLayout

DEFAULT_GAMMA_D_RANGE_DB = (-6.5, 10.0)
# Supported fairness values, with margin on both sides: a small alpha
# overflows r**((1-alpha)/alpha) (from about 0.02 at the top MCS rate), and a
# large one underflows (r*beta)**(1-alpha) to 0 (seen at 50), which zeroes
# theta and turns served CoMP users into outage.
ALPHA_RANGE = (0.1, 10.0)


def alpha_range_error(alpha) -> str | None:
    """Why ``alpha`` is refused, or None when it lies in ALPHA_RANGE."""
    lo, hi = ALPHA_RANGE
    if lo <= alpha <= hi:
        return None
    return f"alpha={alpha!r} outside the supported range [{lo:g}, {hi:g}]"


@dataclass(frozen=True)
class SchedulerParams:
    """Fairness parameter and CoMP SINR threshold."""

    alpha: float = 1.0
    gamma_d_db: float = -1.0
    gamma_d_range_db: tuple[float, float] = DEFAULT_GAMMA_D_RANGE_DB

    def __post_init__(self):
        problem = alpha_range_error(self.alpha)
        if problem:
            raise ValueError(problem)
        lo, hi = self.gamma_d_range_db
        if not lo <= self.gamma_d_db <= hi:
            raise ValueError(
                f"gamma_d_db={self.gamma_d_db} outside the permitted range [{lo}, {hi}]"
            )


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Static scheduling context: sector ownership, virtual clusters, PHY."""

    sector_bs: np.ndarray        # (S,) 0-based BS index of each sector
    vc_of_sector: np.ndarray     # (S,) 0-based virtual-cluster id
    vc_sizes: np.ndarray         # (K,) configured sizes (CoMP only if > 1)
    multi_vc_ids: np.ndarray     # ids of the multi-sector clusters
    noise_w: float
    mcs: McsTable
    rate_per_bits_symbol: float

    @property
    def n_sectors(self) -> int:
        return self.sector_bs.shape[0]

    @property
    def n_vclusters(self) -> int:
        return self.vc_sizes.shape[0]


def build_system_model(layout: NetworkLayout, config: CompConfiguration,
                       noise_w: float, mcs: McsTable,
                       rate_per_bits_symbol: float) -> SystemModel:
    vc_of_sector, vc_sizes, multi_ids = sector_vclusters(config, layout)
    return SystemModel(
        sector_bs=layout.sector_bs, vc_of_sector=vc_of_sector, vc_sizes=vc_sizes,
        multi_vc_ids=multi_ids, noise_w=noise_w, mcs=mcs,
        rate_per_bits_symbol=rate_per_bits_symbol,
    )


@dataclass(frozen=True, eq=False)
class SchedulingSolution:
    """Association, CoMP split, optimal time fractions, and user rates.

    One scheduling point has (U,) user arrays and (K,) cluster arrays; a
    batch of R points (see :func:`allocate`) has (R, U) and (R, K) arrays.
    """

    assoc_sector: np.ndarray   # (U,) 0-based serving sector (x)
    comp: np.ndarray           # (U,) bool CoMP flags (z)
    beta: np.ndarray           # (U,) fraction within the user's pool
    theta: np.ndarray          # (K,) joint-transmission share per cluster
    lam: np.ndarray            # (U,) scheduled rate, bits/s
    outage: np.ndarray         # (U,) bool: zero link rate, excluded from pools
    coverage_sinr: np.ndarray  # (U,) linear; joint SINR for CoMP users
    vc: np.ndarray             # (U,) 0-based serving virtual cluster

    @property
    def n_users(self) -> int:
        return self.lam.shape[-1]

    @property
    def n_comp(self) -> np.ndarray:
        """(K,) CoMP head-count per cluster."""
        return self._per_cluster(self.comp)

    @property
    def n_noncomp(self) -> np.ndarray:
        """(K,) non-CoMP head-count per cluster."""
        return self._per_cluster(~self.comp)

    def _per_cluster(self, users: np.ndarray) -> np.ndarray:
        n_rows = self.theta.size // self.theta.shape[-1]
        ids = _row_ids(self.vc.reshape(n_rows, -1), self.theta.shape[-1])
        return np.bincount(ids[users.reshape(n_rows, -1)],
                           minlength=self.theta.size).reshape(self.theta.shape)

    def row(self, i: int) -> "SchedulingSolution":
        """Scheduling point ``i`` of a batch."""
        return SchedulingSolution(
            assoc_sector=self.assoc_sector[i], comp=self.comp[i], beta=self.beta[i],
            theta=self.theta[i], lam=self.lam[i], outage=self.outage[i],
            coverage_sinr=self.coverage_sinr[i], vc=self.vc[i])

    def theta_mean(self, multi_vc_ids) -> float:
        """Average joint-transmission share over the CoMP-capable clusters."""
        ids = np.asarray(multi_vc_ids, dtype=int)
        if ids.size == 0:
            return 0.0
        return float(self.theta[ids].mean())


def associate_max_sinr(sinr: np.ndarray) -> np.ndarray:
    """Serving sector per user: argmax SINR over active sectors.

    Inactive sectors must be -inf columns.  Ties resolve to the lowest
    sector index.
    """
    if sinr.shape[1] == 0 or not np.isfinite(sinr.max(axis=1)).all():
        raise ValueError("no active sector available for association")
    return sinr.argmax(axis=1)


def classify_comp(sinr: np.ndarray, assoc: np.ndarray, vc_of_sector: np.ndarray,
                  vc_sizes: np.ndarray, gamma_d_db: float) -> np.ndarray:
    """CoMP flags: serving SINR at or below the threshold, in a CoMP group."""
    g_serv = sinr[np.arange(sinr.shape[0]), assoc]
    in_comp_group = vc_sizes[vc_of_sector[assoc]] > 1
    return in_comp_group & (g_serv <= from_db(gamma_d_db))


def optimal_time_fractions(rates, alpha: float) -> np.ndarray:
    """Closed-form alpha-fair split of one pool's unit time budget.

    Works for both pools of the scheduler: the non-CoMP users of one sector
    and the CoMP users of one virtual cluster.
    """
    r = np.asarray(rates, dtype=float)
    if r.size == 0:
        return r.copy()
    if np.any(r <= 0):
        raise ValueError("time fractions require strictly positive rates")
    if alpha == 1.0:
        return np.full(r.shape, 1.0 / r.size)
    t = r ** ((1.0 - alpha) / alpha)
    return t / t.sum()


def optimal_comp_share(noncomp_scheduled, comp_scheduled, alpha: float) -> float:
    """Optimal joint-transmission time share theta for one virtual cluster.

    Arguments are the r*beta products of the cluster's scheduled non-CoMP
    and CoMP users.  Empty CoMP pool gives 0; empty non-CoMP pool gives 1.
    """
    nc = np.asarray(noncomp_scheduled, dtype=float)
    c = np.asarray(comp_scheduled, dtype=float)
    if c.size == 0 and nc.size == 0:
        return 0.0
    if c.size == 0:
        return 0.0
    if nc.size == 0:
        return 1.0
    if alpha == 1.0:
        return c.size / (c.size + nc.size)
    delta = float((np.sum(c ** (1.0 - alpha)) / np.sum(nc ** (1.0 - alpha)))
                  ** (1.0 / alpha))
    return delta / (1.0 + delta)


def alpha_fair_utility(lams, alpha: float) -> float:
    """Sum of per-user alpha-fair utilities; rates must be positive."""
    lam = np.asarray(lams, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("utility requires strictly positive rates")
    if alpha == 1.0:
        return float(np.sum(np.log(lam)))
    return float(np.sum(lam ** (1.0 - alpha)) / (1.0 - alpha))


def _pool_fractions(rates: np.ndarray, pool_ids: np.ndarray, n_pools: int,
                    alpha: float) -> np.ndarray:
    """Vectorised optimal_time_fractions across many pools at once."""
    if alpha == 1.0:
        share = np.bincount(pool_ids, minlength=n_pools).astype(float)[pool_ids]
        return np.divide(1.0, share, out=share)
    t = rates ** ((1.0 - alpha) / alpha)
    sums = np.bincount(pool_ids, weights=t, minlength=n_pools)
    return np.divide(t, sums[pool_ids], out=t)


def _row_ids(ids: np.ndarray, stride: int) -> np.ndarray:
    """Offset the per-user ids of row r by r * stride.

    One bincount over the offset ids then sums each row's bins over the same
    users in the same order as a bincount of that row alone.
    """
    return ids + stride * np.arange(ids.shape[0])[:, None]


@dataclass(frozen=True, eq=False)
class Association:
    """Pattern stage: max-SINR association under each of P sets of active
    sectors (one per sleep pattern), one row per set.

    It depends on neither the CoMP configuration, gamma_d nor alpha, so one
    association serves every scheduling point of a sleep pattern.
    """

    active_sector: np.ndarray  # (P, S) bool
    total_w: np.ndarray        # (P, U) power received from all active sectors
    sector: np.ndarray         # (P, U) 0-based serving sector
    sinr: np.ndarray           # (P, U) serving SINR, linear


@dataclass(frozen=True, eq=False)
class ClusterLinks:
    """Configuration stage: each user's serving virtual cluster and the joint
    SINR its active members would give, one row per pattern of the
    association; shared by every gamma_d and alpha."""

    vc: np.ndarray             # (P, U) 0-based serving virtual cluster
    capable: np.ndarray        # (P, U) bool: serving cluster has several sectors
    joint_sinr: np.ndarray     # (P, U) linear; 0 where not capable
    n_vclusters: int           # cluster ids of the configuration


@dataclass(frozen=True, eq=False)
class LinkRates:
    """Threshold stage: CoMP split and link rates, one row per
    (pattern, configuration, gamma_d) point."""

    comp: np.ndarray           # (R, U) bool CoMP flags (z)
    sinr: np.ndarray           # (R, U) effective SINR: joint for CoMP users
    rate: np.ndarray           # (R, U) link rate, bits/s
    outage: np.ndarray         # (R, U) bool: zero link rate
    sector: np.ndarray         # (R, U) 0-based serving sector
    vc: np.ndarray             # (R, U) 0-based serving virtual cluster
    pool: np.ndarray           # (R, U) sector pool, or S + cluster for CoMP users
    n_vclusters: int           # cluster ids per row (the largest configuration's)
    n_pools: int               # pool ids per row: sectors + clusters


def _serving_sectors(rx_w: np.ndarray, act: np.ndarray, strongest: np.ndarray) -> np.ndarray:
    """(P, U) strongest active sector of each user under each row of the
    (P, S) masks: the strongest sector of the field, re-picked among the
    active ones for each sleeping (pattern, user) pair."""
    assoc = np.tile(strongest, (act.shape[0], 1))
    p_asleep, u_asleep = np.nonzero(~act[:, strongest])
    if p_asleep.size:
        cand = rx_w[u_asleep]
        cand[~act[p_asleep]] = -np.inf
        assoc[p_asleep, u_asleep] = cand.argmax(axis=1)
    return assoc


def associate(rx_w: np.ndarray, active_sectors: np.ndarray, noise_w: float,
              strongest: np.ndarray) -> Association:
    """Serve every user from its strongest active sector, for each row of
    the (P, S) active-sector masks.

    With uniform transmit power the max-SINR sector is the max received
    power sector; ties resolve to the lowest sector index.  ``strongest`` is
    ``rx_w.argmax(axis=1)``, which every pattern of a fading draw shares.
    The rows of ``rx_w`` may be any subset of a draw's users (see
    :func:`pool_users`) of at least two users: every value is computed per
    user, and the totals below only sum along the sector axis.
    """
    act = np.asarray(active_sectors, dtype=bool)
    if not act.any(axis=1).all():
        raise ValueError("at least one BS must be active")
    # rx_w[:, a].sum(axis=1) adds the active columns one after another, left
    # to right: the boolean copy is laid out by column.  A row gather of the
    # transposed draw sums in that same order, so the totals keep their bits.
    rx_t = np.ascontiguousarray(rx_w.T)
    total = np.empty((act.shape[0], rx_w.shape[0]))
    for a, out in zip(act, total):
        np.sum(rx_t[a], axis=0, out=out)
    assoc = _serving_sectors(rx_w, act, strongest)
    w_serv = rx_w[np.arange(rx_w.shape[0]), assoc]
    return Association(active_sector=act, total_w=total, sector=assoc,
                       sinr=w_serv / (total - w_serv + noise_w))


def pool_users(rx_w: np.ndarray, strongest: np.ndarray, vq: np.ndarray,
               active_sectors: np.ndarray, models) -> np.ndarray:
    """Sorted rows of the users that can change a metric-set output.

    T holds the sectors that serve a metric-set (``vq``) user under some row
    of the (P, S) masks, plus every sector of a multi-sector cluster of any
    of ``models``.  The pool users are the users that some row serves from a
    sector of T.  Under each row, a metric-set user's sector pool, its
    cluster's CoMP pool and theta, and the theta of every multi-sector
    cluster sum over users served from sectors of T only, and all of those
    are pool users.  Scheduling the pool users alone thus fills every pool
    that an output reads with the same members in the same order, and its
    bincount sums keep their bits.

    At least two rows are kept when the draw has two users: the sector sums
    of :func:`associate` over a single user's column would run along the
    contiguous axis, which numpy sums pairwise, not left to right.
    """
    act = np.asarray(active_sectors, dtype=bool)
    serving = _serving_sectors(rx_w, act, strongest)
    in_t = np.zeros(act.shape[1], dtype=bool)
    in_t[serving[:, vq]] = True
    for model in models:
        in_t[model.vc_sizes[model.vc_of_sector] > 1] = True
    keep = in_t[serving].any(axis=0)
    if np.count_nonzero(keep) == 1 and keep.size > 1:
        keep[1 if keep[0] else 0] = True
    return np.flatnonzero(keep)


def cluster_members(model: SystemModel, active_sectors: np.ndarray) -> np.ndarray:
    """(P, S, n_multi) 0/1 matrices of the active sectors of each multi-sector
    cluster, one per row of the (P, S) active-sector masks."""
    return ((model.vc_of_sector[:, None] == model.multi_vc_ids[None, :])
            & np.asarray(active_sectors, dtype=bool)[..., None]).astype(float)


def cluster_links(model: SystemModel, rx_w: np.ndarray, assoc: Association,
                  member: np.ndarray, users=None) -> ClusterLinks:
    """Joint SINR of each user's serving multi-sector cluster (active members).

    ``member`` is :func:`cluster_members` of the association's active sectors,
    and ``users`` lists the rows of the draw ``rx_w`` that the association
    covers (default: all).  The joint power is one ``np.matmul`` of the whole
    draw with the (P, S, n_multi) member stack, which multiplies pattern by
    pattern, and is read at those rows afterwards: a product over a subset of
    rows, or over several patterns' members at once, sums in another order.
    """
    vc_user = model.vc_of_sector[assoc.sector]
    capable = model.vc_sizes[vc_user] > 1
    p_joint = np.zeros(vc_user.shape)
    p_cap, u_cap = np.nonzero(capable)
    if p_cap.size:
        rows = u_cap if users is None else np.asarray(users)[u_cap]
        col = np.searchsorted(model.multi_vc_ids, vc_user[p_cap, u_cap])
        p_joint[p_cap, u_cap] = np.matmul(rx_w, member)[p_cap, rows, col]
    return ClusterLinks(vc=vc_user, capable=capable,
                        joint_sinr=p_joint / (assoc.total_w - p_joint + model.noise_w),
                        n_vclusters=model.n_vclusters)


def link_rates(model: SystemModel, assoc: Association, links, gamma_ds_db) -> LinkRates:
    """CoMP flags from each threshold, then MCS link rates of every user.

    ``links`` lists one :class:`ClusterLinks` per configuration; the rows of
    the result run over the association's patterns (outer), the
    configurations and ``gamma_ds_db`` (inner).  ``model`` gives the sector
    count and the PHY, which every configuration shares.  Users whose link
    rate is zero (SINR below the MCS floor) are in outage.
    """
    capable = np.stack([l.capable for l in links], axis=1)[:, :, None]   # (P, C, 1, U)
    joint = np.stack([l.joint_sinr for l in links], axis=1)[:, :, None]
    vc = np.stack([l.vc for l in links], axis=1)[:, :, None]
    # one scalar from_db per threshold: the same value a single point compares
    thr = np.array([from_db(g) for g in gamma_ds_db])[:, None]          # (G, 1)
    sinr = assoc.sinr[:, None, None]                                    # (P, 1, 1, U)
    comp = capable & (sinr <= thr)                                      # (P, C, G, U)
    sinr_eff = np.where(comp, joint, sinr)
    # Each user's rate is its joint link's (CoMP-capable users only) or its
    # serving link's, each looked up once for every gamma_d.
    r_joint = np.zeros(joint.shape)
    with np.errstate(divide="ignore"):
        r_joint[capable] = (model.mcs.efficiency(to_db(joint[capable]))
                            * model.rate_per_bits_symbol)
        r_serv = model.mcs.efficiency(to_db(sinr)) * model.rate_per_bits_symbol
    r_user = np.where(comp, r_joint, r_serv)
    sector = np.broadcast_to(assoc.sector[:, None, None], comp.shape)
    vc = np.broadcast_to(vc, comp.shape)
    pool = vc + model.n_sectors
    np.copyto(pool, sector, where=~comp)
    shape = (-1, comp.shape[-1])
    n_vc = max(l.n_vclusters for l in links)
    return LinkRates(
        comp=comp.reshape(shape), sinr=sinr_eff.reshape(shape), rate=r_user.reshape(shape),
        outage=(r_user <= 0.0).reshape(shape), sector=sector.reshape(shape),
        vc=vc.reshape(shape), pool=pool.reshape(shape),
        n_vclusters=n_vc, n_pools=model.n_sectors + n_vc)


def allocate(rates: LinkRates, alpha: float) -> SchedulingSolution:
    """Fairness stage: optimal time fractions, shares and user rates.

    One pass over all rows of ``rates`` for one alpha, so every power keeps a
    scalar exponent; the solution has the same rows.  Users in outage are
    excluded from every pool and receive lambda = 0.
    """
    n_rows, n_users = rates.rate.shape
    n_vc = rates.n_vclusters
    comp, r_user, outage = rates.comp, rates.rate, rates.outage
    sched = ~outage
    vc_ids = _row_ids(rates.vc, n_vc)
    n_bins = n_rows * n_vc

    # Pools: one per sector for non-CoMP users, one per cluster for CoMP users.
    beta = np.zeros((n_rows, n_users))
    if sched.any():
        beta[sched] = _pool_fractions(r_user[sched], _row_ids(rates.pool, rates.n_pools)[sched],
                                      n_rows * rates.n_pools, alpha)

    # Joint-transmission share per cluster from the scheduled products.
    c_s = comp & sched
    nc_s = ~comp & sched
    theta = np.zeros(n_bins)
    if alpha == 1.0:
        n_c = np.bincount(vc_ids[c_s], minlength=n_bins).astype(float)
        n_nc = np.bincount(vc_ids[nc_s], minlength=n_bins).astype(float)
        both = (n_c > 0) & (n_nc > 0)
        theta[both] = n_c[both] / (n_c[both] + n_nc[both])
        theta[(n_c > 0) & (n_nc == 0)] = 1.0
    else:
        prod = r_user * beta
        e = 1.0 - alpha
        a_c = np.bincount(vc_ids[c_s], weights=prod[c_s] ** e, minlength=n_bins)
        a_nc = np.bincount(vc_ids[nc_s], weights=prod[nc_s] ** e, minlength=n_bins)
        both = (a_c > 0) & (a_nc > 0)
        delta = (a_c[both] / a_nc[both]) ** (1.0 / alpha)
        theta[both] = delta / (1.0 + delta)
        theta[(a_c > 0) & (a_nc == 0)] = 1.0
    # Singleton clusters have no CoMP users, so their theta stays 0.

    # lambda = theta * beta * r for CoMP users, (1 - theta) * beta * r otherwise
    lam = theta[vc_ids]
    np.subtract(1.0, lam, out=lam, where=~comp)
    lam *= beta
    lam *= r_user
    lam[outage] = 0.0
    return SchedulingSolution(
        assoc_sector=rates.sector, comp=comp, beta=beta, theta=theta.reshape(n_rows, n_vc),
        lam=lam, outage=outage, coverage_sinr=rates.sinr, vc=rates.vc)


def schedule(model: SystemModel, rx_w: np.ndarray, active_bs: np.ndarray,
             params: SchedulerParams) -> SchedulingSolution:
    """Associate, classify, and allocate optimal time fractions for all users.

    One scheduling point over every user of the draw; a sweep that holds the
    earlier stages' inputs fixed calls the stages once and batches the later
    ones.
    """
    act = np.asarray(active_bs, dtype=bool)[model.sector_bs][None]
    assoc = associate(rx_w, act, model.noise_w, rx_w.argmax(axis=1))
    links = cluster_links(model, rx_w, assoc, cluster_members(model, act))
    return allocate(link_rates(model, assoc, [links], [params.gamma_d_db]),
                    params.alpha).row(0)


def center_cluster_users(model: SystemModel, strongest: np.ndarray,
                         center_sector_idx: np.ndarray) -> np.ndarray:
    """Metric set V_q: users whose all-on max-SINR sector is in the cluster.

    With uniform transmit power the max-SINR sector equals the max received
    power sector, so the benchmark association needs no mask: ``strongest``
    is ``rx_w.argmax(axis=1)``.
    """
    in_cluster = np.zeros(model.n_sectors, dtype=bool)
    in_cluster[np.asarray(center_sector_idx, dtype=int)] = True
    return in_cluster[strongest]
