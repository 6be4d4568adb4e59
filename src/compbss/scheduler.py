"""Alpha-fair user scheduling for CoMP virtual clusters.

Given link rates, the optimal time fractions have closed forms: within a
pool (one sector's non-CoMP users, or one virtual cluster's CoMP users)
each user receives t_u / sum(t_v) with t = r^((1-alpha)/alpha), and the
share of time a virtual cluster devotes to joint transmission is
theta = delta / (1 + delta) with
delta = [sum_c (r*beta)^(1-alpha) / sum_nc (r*beta)^(1-alpha)]^(1/alpha).
The scheduling pipeline here applies those forms to a whole field of
sectors at once; it is independent of the site topology.  One fading draw
runs :func:`draw_pool` (pool users and their received powers) and
:func:`draw_rates` (association, cluster links, link rates), and then
:func:`allocate` once per alpha; :func:`draw_rates` states the rules that
let it schedule part of the field and keep every bit.  A draw arrives in dB
(``channel.draw_gain_matrix``): the strongest sectors are picked on the dB
values, and only the pool users' rows become watts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import MCS_TABLE, NOISE_W, RATE_PER_BITS_SYMBOL, from_db, received_power_w, to_db
from .clusters import sector_vclusters
from .geometry import NetworkLayout

# The CoMP SINR thresholds gamma_d (dB) that SchedulerParams and a campaign
# config accept: from the MCS floor, below which no link has a rate.
DEFAULT_GAMMA_D_RANGE_DB = (float(MCS_TABLE.thresholds_db[0]), 10.0)
# Supported fairness values, with margin on both sides: a small alpha
# overflows r**((1-alpha)/alpha) (from about 0.02 at the top MCS rate), and a
# large one underflows (r*beta)**(1-alpha) to 0 (seen at 50), which zeroes
# theta and turns served CoMP users into outage.
ALPHA_RANGE = (0.1, 10.0)
# Two dB candidates further apart than this have the order of their linear
# powers: /10, 10** and x P_s are monotone up to a few ulps, some 1e-14 dB at
# these gains.  Closer candidates are compared on their linear rows.
TIE_MARGIN_DB = 1e-9


def alpha_range_error(alpha) -> str | None:
    """Why ``alpha`` is refused, or None when it lies in ALPHA_RANGE."""
    lo, hi = ALPHA_RANGE
    if lo <= alpha <= hi:
        return None
    return f"alpha={alpha!r} outside the supported range [{lo:g}, {hi:g}]"


def gamma_d_error(gamma_d_db) -> str | None:
    """Why ``gamma_d_db`` is refused, or None when it lies in
    DEFAULT_GAMMA_D_RANGE_DB."""
    lo, hi = DEFAULT_GAMMA_D_RANGE_DB
    if lo <= gamma_d_db <= hi:
        return None
    return f"gamma_d_db={gamma_d_db} outside the permitted range [{lo}, {hi}]"


@dataclass(frozen=True)
class SchedulerParams:
    """Fairness parameter and CoMP SINR threshold."""

    alpha: float = 1.0
    gamma_d_db: float = -1.0

    def __post_init__(self):
        problem = alpha_range_error(self.alpha) or gamma_d_error(self.gamma_d_db)
        if problem:
            raise ValueError(problem)


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Static scheduling context: sector ownership and virtual clusters."""

    sector_bs: np.ndarray        # (S,) 0-based BS index of each sector
    vc_of_sector: np.ndarray     # (S,) 0-based virtual-cluster id
    vc_sizes: np.ndarray         # (K,) configured sizes (CoMP only if > 1)
    multi_vc_ids: np.ndarray     # ids of the multi-sector clusters

    @property
    def n_sectors(self) -> int:
        return self.sector_bs.shape[0]

    @property
    def n_vclusters(self) -> int:
        return self.vc_sizes.shape[0]


def build_system_model(layout: NetworkLayout, name: str) -> SystemModel:
    """The system model of CoMP preset ``name`` (see ``clusters.PRESET_NAMES``)."""
    vc_of_sector, vc_sizes, multi_ids = sector_vclusters(name, layout)
    return SystemModel(sector_bs=layout.sector_bs, vc_of_sector=vc_of_sector,
                       vc_sizes=vc_sizes, multi_vc_ids=multi_ids)


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

    def row(self, i: int) -> "SchedulingSolution":
        """Scheduling point ``i`` of a batch."""
        return SchedulingSolution(
            assoc_sector=self.assoc_sector[i], comp=self.comp[i], beta=self.beta[i],
            theta=self.theta[i], lam=self.lam[i], outage=self.outage[i],
            coverage_sinr=self.coverage_sinr[i], vc=self.vc[i])


def _pool_fractions(rates: np.ndarray, pool_ids: np.ndarray, n_pools: int,
                    alpha: float) -> np.ndarray:
    """Closed-form alpha-fair split of each pool's unit time budget:
    t_u / sum(t_v) with t = r^((1-alpha)/alpha), an equal split at 1."""
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


def strongest_sectors(gain_db: np.ndarray, users=None, active=None) -> np.ndarray:
    """Sector of the largest received power in each row of the dB draw, or
    of the rows ``users``, among the sectors of ``active`` (one mask row per
    row; default all): the argmax of the rows in watts, ties to the lowest
    index.

    The argmax runs on the dB values.  A row whose runner-up lies within
    TIE_MARGIN_DB of its largest redoes it on its row in watts, so rounding
    in the conversion cannot move the pick.  The runner-up is the argmax
    with each row's largest entry set to -inf for the moment; the draw is
    left as it was.
    """
    cand = gain_db if users is None else gain_db[users]
    if active is not None:
        cand = np.where(active, cand, -np.inf)
    rows = np.arange(cand.shape[0])
    best = cand.argmax(axis=1)
    top = cand[rows, best]
    cand[rows, best] = -np.inf
    second = cand[rows, cand.argmax(axis=1)]
    cand[rows, best] = top
    near = np.flatnonzero(second >= top - TIE_MARGIN_DB)
    if near.size:
        power = received_power_w(gain_db, near if users is None else users[near])
        if active is not None:
            power[~active[near]] = -np.inf
        best[near] = power.argmax(axis=1)
    return best


def serving_sectors(gain_db: np.ndarray, act: np.ndarray, strongest: np.ndarray) -> np.ndarray:
    """(P, U) strongest active sector of each user under each row of the
    (P, S) masks: the strongest sector of the field, re-picked among the
    active ones for each sleeping (pattern, user) pair."""
    assoc = np.tile(strongest, (act.shape[0], 1))
    p_asleep, u_asleep = np.nonzero(~act[:, strongest])
    if p_asleep.size:
        assoc[p_asleep, u_asleep] = strongest_sectors(gain_db, u_asleep, act[p_asleep])
    return assoc


def associate(rx_w: np.ndarray, active_sectors: np.ndarray, serving: np.ndarray) -> Association:
    """Serve every user from its strongest active sector, for each row of
    the (P, S) active-sector masks.

    With uniform transmit power the max-SINR sector is the max received
    power sector; ties resolve to the lowest sector index.  ``rx_w`` holds
    received powers in watts, and ``serving`` is the (P, U)
    :func:`serving_sectors` of its users, which :func:`pool_users` returns
    for the users it keeps.  The rows of
    ``rx_w`` may be any subset of a draw's users (see :func:`pool_users`)
    of at least two users: every value is computed per user, and the totals
    below only sum along the sector axis.
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
    w_serv = rx_w[np.arange(rx_w.shape[0]), serving]
    return Association(active_sector=act, total_w=total, sector=serving,
                       sinr=w_serv / (total - w_serv + NOISE_W))


def pool_users(gain_db: np.ndarray, strongest: np.ndarray, vq: np.ndarray,
               active_sectors: np.ndarray, models) -> tuple[np.ndarray, np.ndarray]:
    """Sorted rows of the pool users of the metric set ``vq`` (see
    :func:`draw_rates`) in the dB draw, and their (P, n) serving sectors for
    :func:`associate`.

    T holds the sectors that serve a ``vq`` user under some row of the
    (P, S) masks, plus every sector of a multi-sector cluster of any of
    ``models``; the pool users are the users that some row serves from a
    sector of T.  At least two rows are kept when the draw has two users: the
    sector sums of :func:`associate` over a single user's column would run
    along the contiguous axis, which numpy sums pairwise, not left to right.
    """
    act = np.asarray(active_sectors, dtype=bool)
    serving = serving_sectors(gain_db, act, strongest)
    in_t = np.zeros(act.shape[1], dtype=bool)
    in_t[serving[:, vq]] = True
    for model in models:
        in_t[model.vc_sizes[model.vc_of_sector] > 1] = True
    keep = in_t[serving].any(axis=0)
    if np.count_nonzero(keep) == 1 and keep.size > 1:
        keep[1 if keep[0] else 0] = True
    users = np.flatnonzero(keep)
    return users, serving[:, users]


def cluster_members(model: SystemModel, active_sectors: np.ndarray) -> np.ndarray:
    """(P, n_multi, k) table of the active sectors of each multi-sector
    cluster under each row of the (P, S) active-sector masks, ascending and
    padded with -1 to k, the largest cluster size."""
    on = ((model.multi_vc_ids[:, None] == model.vc_of_sector[None, :])
          & np.asarray(active_sectors, dtype=bool)[:, None, :])        # (P, n_multi, S)
    # a stable sort of the flags puts each cluster's active sectors first, in order
    sectors = np.argsort(~on, axis=-1, kind="stable")[..., :int(model.vc_sizes.max())]
    return np.where(np.take_along_axis(on, sectors, axis=-1), sectors, -1)


def cluster_links(model: SystemModel, rx_w: np.ndarray, assoc: Association,
                  member: np.ndarray) -> ClusterLinks:
    """Joint SINR of each user's serving multi-sector cluster (active members).

    ``rx_w`` holds the received powers of the association's users, and
    ``member`` is :func:`cluster_members` of its active sectors.  The joint
    power adds the active members' powers one after another, ascending.
    """
    vc_user = model.vc_of_sector[assoc.sector]
    capable = model.vc_sizes[vc_user] > 1
    p_joint = np.zeros(vc_user.shape)
    p_cap, u_cap = np.nonzero(capable)
    if p_cap.size:
        col = np.searchsorted(model.multi_vc_ids, vc_user[p_cap, u_cap])
        sectors = member[p_cap, col]                        # (n, k), -1 after the members
        power = rx_w[u_cap[:, None], sectors]               # a -1 reads the last sector
        power[sectors < 0] = 0.0
        joint = np.zeros(p_cap.size)
        for column in power.T:
            joint += column
        p_joint[p_cap, u_cap] = joint
    return ClusterLinks(vc=vc_user, capable=capable,
                        joint_sinr=p_joint / (assoc.total_w - p_joint + NOISE_W),
                        n_vclusters=model.n_vclusters)


def link_rates(model: SystemModel, assoc: Association, links, gamma_ds_db) -> LinkRates:
    """CoMP flags from each threshold, then MCS link rates of every user.

    ``links`` lists one :class:`ClusterLinks` per configuration; the rows of
    the result run over the association's patterns (outer), the
    configurations and ``gamma_ds_db`` (inner).  ``model`` gives the sector
    count, which every configuration shares.  Users whose link rate is zero
    (SINR below the MCS floor) are in outage.
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
        r_joint[capable] = MCS_TABLE.efficiency(to_db(joint[capable])) * RATE_PER_BITS_SYMBOL
        r_serv = MCS_TABLE.efficiency(to_db(sinr)) * RATE_PER_BITS_SYMBOL
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


def draw_pool(gain_db: np.ndarray, strongest: np.ndarray, vq: np.ndarray,
              active_sectors: np.ndarray, models) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All that :func:`draw_rates` reads of a fading draw: the sorted rows
    of its :func:`pool_users` for the metric set ``vq``, their (P, n)
    serving sectors and their received powers in watts.

    Only the pool users' rows are turned into watts (``received_power_w``),
    each with the bits it has in the whole draw; the strongest sectors are
    picked on the dB values (:func:`strongest_sectors`), and ``strongest``
    is ``strongest_sectors(gain_db)``.  Once the pool is made, the dB draw
    may be overwritten.
    """
    users, serving = pool_users(gain_db, strongest, vq, active_sectors, models)
    return users, serving, received_power_w(gain_db, rows=users)


def draw_rates(models, members, pool, active_sectors: np.ndarray,
               gamma_ds_db) -> tuple[np.ndarray, LinkRates]:
    """One fading draw from its :func:`draw_pool` to link rates, for every
    row of the (P, S) active-sector masks, every configuration of
    ``models`` (with its :func:`cluster_members` in ``members``) and every
    gamma_d.

    Returns the sorted rows of the draw that it scheduled and their
    :func:`link_rates`.  Only the users that share a pool with the metric
    set ``vq`` can change its rates, its coverage or the theta of a
    multi-sector cluster, and :func:`pool_users` keeps exactly those: the
    users served from a sector that serves a ``vq`` user under some row or
    that belongs to a multi-sector cluster.  Each sector pool, CoMP pool and
    cluster theta that an output reads then sums over pool users only, in
    field order, so every bincount of :func:`allocate` adds the same users in
    the same order as over the whole field and keeps its bits.  With every
    user in ``vq`` the whole field is scheduled.
    """
    users, serving, rx_w = pool
    assoc = associate(rx_w, active_sectors, serving)
    links = [cluster_links(model, rx_w, assoc, member)
             for model, member in zip(models, members)]
    return users, link_rates(models[0], assoc, links, gamma_ds_db)


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

    One scheduling point over every user of the received powers ``rx_w``:
    the stages of :func:`draw_rates` over the whole field.  The traced
    benchmark (``bench/spans.py``) wraps it by name.
    """
    act = np.asarray(active_bs, dtype=bool)[model.sector_bs][None]
    serving = np.where(act, rx_w, -np.inf).argmax(axis=1)[None]
    assoc = associate(rx_w, act, serving)
    links = cluster_links(model, rx_w, assoc, cluster_members(model, act))
    return allocate(link_rates(model, assoc, [links], [params.gamma_d_db]), params.alpha).row(0)


def center_cluster_users(model: SystemModel, strongest: np.ndarray,
                         center_sector_idx: np.ndarray) -> np.ndarray:
    """Metric set V_q: users whose all-on max-SINR sector is in the cluster.

    With uniform transmit power the max-SINR sector equals the max received
    power sector, so the benchmark association needs no mask: ``strongest``
    is :func:`strongest_sectors` of the draw.
    """
    in_cluster = np.zeros(model.n_sectors, dtype=bool)
    in_cluster[np.asarray(center_sector_idx, dtype=int)] = True
    return in_cluster[strongest]
