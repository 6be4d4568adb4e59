"""Alpha-fair user scheduling for CoMP virtual clusters.

Given link rates, the optimal time fractions have closed forms: within a
pool (one sector's non-CoMP users, or one virtual cluster's CoMP users)
each user receives t_u / sum(t_v) with t = r^((1-alpha)/alpha), and the
share of time a virtual cluster devotes to joint transmission is
theta = delta / (1 + delta) with
delta = [sum_c (r*beta)^(1-alpha) / sum_nc (r*beta)^(1-alpha)]^(1/alpha).
The scheduling pipeline here applies those forms to a whole field of
sectors at once; it is independent of the site topology.
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
    """Association, CoMP split, optimal time fractions, and user rates."""

    assoc_sector: np.ndarray   # (U,) 0-based serving sector (x)
    comp: np.ndarray           # (U,) bool CoMP flags (z)
    beta: np.ndarray           # (U,) fraction within the user's pool
    theta: np.ndarray          # (K,) joint-transmission share per cluster
    lam: np.ndarray            # (U,) scheduled rate, bits/s
    outage: np.ndarray         # (U,) bool: zero link rate, excluded from pools
    coverage_sinr: np.ndarray  # (U,) linear; joint SINR for CoMP users
    n_comp: np.ndarray         # (K,) CoMP head-count per cluster
    n_noncomp: np.ndarray      # (K,) non-CoMP head-count per cluster

    @property
    def n_users(self) -> int:
        return self.lam.shape[0]

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
        counts = np.bincount(pool_ids, minlength=n_pools).astype(float)
        return 1.0 / counts[pool_ids]
    t = rates ** ((1.0 - alpha) / alpha)
    sums = np.bincount(pool_ids, weights=t, minlength=n_pools)
    return t / sums[pool_ids]


@dataclass(frozen=True, eq=False)
class Association:
    """Pattern stage: max-SINR association under one set of active sectors.

    It depends on neither the CoMP configuration, gamma_d nor alpha, so one
    association serves every scheduling point of a sleep pattern.
    """

    active_sector: np.ndarray  # (S,) bool
    total_w: np.ndarray        # (U,) power received from all active sectors
    sector: np.ndarray         # (U,) 0-based serving sector
    sinr: np.ndarray           # (U,) serving SINR, linear


@dataclass(frozen=True, eq=False)
class ClusterLinks:
    """Configuration stage: each user's serving virtual cluster and the joint
    SINR its active members would give; shared by every gamma_d and alpha."""

    vc: np.ndarray             # (U,) 0-based serving virtual cluster
    capable: np.ndarray        # (U,) bool: serving cluster has several sectors
    joint_sinr: np.ndarray     # (U,) linear; 0 where not capable


@dataclass(frozen=True, eq=False)
class LinkRates:
    """Threshold stage: CoMP split and link rates for one gamma_d."""

    comp: np.ndarray           # (U,) bool CoMP flags (z)
    sinr: np.ndarray           # (U,) effective SINR: joint for CoMP users
    rate: np.ndarray           # (U,) link rate, bits/s
    outage: np.ndarray         # (U,) bool: zero link rate
    pool: np.ndarray           # (U,) sector pool, or S + cluster for CoMP users


def associate(rx_w: np.ndarray, active_sector: np.ndarray, noise_w: float) -> Association:
    """Serve every user from its strongest active sector.

    With uniform transmit power the max-SINR sector is the max received
    power sector; ties resolve to the lowest sector index.
    """
    act = np.asarray(active_sector, dtype=bool)
    if not act.any():
        raise ValueError("at least one BS must be active")
    total = rx_w[:, act].sum(axis=1)
    # Strongest sector of the field; re-pick among active ones where it sleeps.
    assoc = rx_w.argmax(axis=1)
    asleep = ~act[assoc]
    if asleep.any():
        assoc[asleep] = np.where(act, rx_w[asleep], -np.inf).argmax(axis=1)
    w_serv = rx_w[np.arange(rx_w.shape[0]), assoc]
    return Association(active_sector=act, total_w=total, sector=assoc,
                       sinr=w_serv / (total - w_serv + noise_w))


def cluster_links(model: SystemModel, rx_w: np.ndarray,
                  assoc: Association) -> ClusterLinks:
    """Joint SINR of each user's serving multi-sector cluster (active members)."""
    vc_user = model.vc_of_sector[assoc.sector]
    capable = model.vc_sizes[vc_user] > 1
    joint = np.zeros(rx_w.shape[0])
    if capable.any():
        member = ((model.vc_of_sector[:, None] == model.multi_vc_ids[None, :])
                  & assoc.active_sector[:, None]).astype(float)
        p_joint = rx_w @ member                              # (U, n_multi)
        g_joint = p_joint / (assoc.total_w[:, None] - p_joint + model.noise_w)
        col = np.searchsorted(model.multi_vc_ids, vc_user[capable])
        joint[capable] = g_joint[capable, col]
    return ClusterLinks(vc=vc_user, capable=capable, joint_sinr=joint)


def link_rates(model: SystemModel, assoc: Association, links: ClusterLinks,
               gamma_d_db: float) -> LinkRates:
    """CoMP flags from the threshold, then MCS link rates of every user.

    Users whose link rate is zero (SINR below the MCS floor) are in outage.
    """
    comp = links.capable & (assoc.sinr <= from_db(gamma_d_db))
    sinr_eff = np.where(comp, links.joint_sinr, assoc.sinr)
    with np.errstate(divide="ignore"):
        eta = model.mcs.efficiency(to_db(sinr_eff))
    r_user = eta * model.rate_per_bits_symbol
    return LinkRates(comp=comp, sinr=sinr_eff, rate=r_user, outage=r_user <= 0.0,
                     pool=np.where(comp, model.n_sectors + links.vc, assoc.sector))


def allocate(model: SystemModel, assoc: Association, links: ClusterLinks,
             rates: LinkRates, alpha: float) -> SchedulingSolution:
    """Fairness stage: optimal time fractions, shares and user rates.

    Users in outage are excluded from every pool and receive lambda = 0.
    """
    n_users = rates.rate.shape[0]
    comp, r_user, outage, vc_user = rates.comp, rates.rate, rates.outage, links.vc
    sched = ~outage

    # Pools: one per sector for non-CoMP users, one per cluster for CoMP users.
    n_pools = model.n_sectors + model.n_vclusters
    beta = np.zeros(n_users)
    if sched.any():
        beta[sched] = _pool_fractions(r_user[sched], rates.pool[sched], n_pools, alpha)

    # Joint-transmission share per cluster from the scheduled products.
    n_vc = model.n_vclusters
    theta = np.zeros(n_vc)
    prod = r_user * beta
    c_s = comp & sched
    nc_s = ~comp & sched
    if alpha == 1.0:
        n_c = np.bincount(vc_user[c_s], minlength=n_vc).astype(float)
        n_nc = np.bincount(vc_user[nc_s], minlength=n_vc).astype(float)
        both = (n_c > 0) & (n_nc > 0)
        theta[both] = n_c[both] / (n_c[both] + n_nc[both])
        theta[(n_c > 0) & (n_nc == 0)] = 1.0
    else:
        e = 1.0 - alpha
        a_c = np.bincount(vc_user[c_s], weights=prod[c_s] ** e, minlength=n_vc)
        a_nc = np.bincount(vc_user[nc_s], weights=prod[nc_s] ** e, minlength=n_vc)
        both = (a_c > 0) & (a_nc > 0)
        delta = (a_c[both] / a_nc[both]) ** (1.0 / alpha)
        theta[both] = delta / (1.0 + delta)
        theta[(a_c > 0) & (a_nc == 0)] = 1.0
    if model.multi_vc_ids.size:
        keep = np.zeros(n_vc, dtype=bool)
        keep[model.multi_vc_ids] = True
        theta[~keep] = 0.0  # singleton clusters never run joint transmission

    th_user = theta[vc_user]
    lam = np.where(comp, th_user, 1.0 - th_user) * beta * r_user
    lam[outage] = 0.0

    return SchedulingSolution(
        assoc_sector=assoc.sector,
        comp=comp,
        beta=beta,
        theta=theta,
        lam=lam,
        outage=outage,
        coverage_sinr=rates.sinr,
        n_comp=np.bincount(vc_user[comp], minlength=n_vc),
        n_noncomp=np.bincount(vc_user[~comp], minlength=n_vc),
    )


def schedule(model: SystemModel, rx_w: np.ndarray, active_bs: np.ndarray,
             params: SchedulerParams) -> SchedulingSolution:
    """Associate, classify, and allocate optimal time fractions for all users.

    Runs the four stages in order; a sweep that holds the earlier stages'
    inputs fixed calls them once and reuses their results.
    """
    assoc = associate(rx_w, np.asarray(active_bs, dtype=bool)[model.sector_bs],
                      model.noise_w)
    links = cluster_links(model, rx_w, assoc)
    return allocate(model, assoc, links, link_rates(model, assoc, links, params.gamma_d_db),
                    params.alpha)


def center_cluster_users(model: SystemModel, rx_w: np.ndarray,
                         center_sector_idx: np.ndarray) -> np.ndarray:
    """Metric set V_q: users whose all-on max-SINR sector is in the cluster.

    With uniform transmit power the max-SINR sector equals the max received
    power sector, so the benchmark association needs no mask.
    """
    best = rx_w.argmax(axis=1)
    in_cluster = np.zeros(model.n_sectors, dtype=bool)
    in_cluster[np.asarray(center_sector_idx, dtype=int)] = True
    return in_cluster[best]
