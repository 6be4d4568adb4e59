"""Shared test oracles, independent of the library code paths they check, and
the random closed-form instances that the optimality checks run through
``scheduler.allocate``."""

import csv
import itertools
import math
from types import SimpleNamespace

import numpy as np
from scipy.optimize import minimize_scalar

import compbss as cb
from compbss import channel as ch


def same_bits(a, b):
    """Equal shapes, float64 both, and the same bits in every element."""
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def pattern_bs_mask(n_bs, cluster_bs_idx, pattern):
    """Per-BS on/off mask of the whole field under one sleep pattern: the
    per-pattern oracle of ``bss.sector_masks``."""
    active = np.ones(n_bs, dtype=bool)
    active[cluster_bs_idx] = ~np.asarray(pattern.off_flags, dtype=bool)
    return active


def pattern_sector_masks(layout, patterns):
    """(P, S) sector on/off masks of the layout under the patterns, one
    pattern at a time."""
    cb_idx = layout.center_cluster_bs_ids - 1
    return np.array([pattern_bs_mask(layout.n_bs, cb_idx, p)[layout.sector_bs]
                     for p in patterns])


def patterns_to_file(patterns, path) -> None:
    """Write a pattern list in the format ``bss.patterns_from_file`` reads."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        for p in patterns:
            w.writerow(list(p.off_flags) + [p.label])


def make_instance(rng, max_sectors=3, max_users=6, require_both=False):
    """Random small virtual-cluster instance: per-sector non-CoMP rates and
    CoMP rates, all strictly positive."""
    while True:
        n_sectors = int(rng.integers(1, max_sectors + 1))
        total = int(rng.integers(1, max_users + 1))
        n_c = int(rng.integers(0, total + 1))
        n_nc = total - n_c
        if require_both and (n_c == 0 or n_nc == 0):
            continue
        sector_of = rng.integers(0, n_sectors, size=n_nc)
        nc_rates = [10 ** rng.uniform(5, 8, size=int((sector_of == s).sum()))
                    for s in range(n_sectors)]
        c_rates = 10 ** rng.uniform(5, 8, size=n_c)
        return nc_rates, c_rates


def instance_rates(nc_rates, c_rates):
    """One-row ``LinkRates`` of an instance: a pool per sector for its non-CoMP
    users and one CoMP cluster (id 0) over all of them.  Users run sector by
    sector, CoMP users last; a zero rate is an outage, as ``link_rates``
    marks it."""
    sector = np.concatenate([np.full(r.size, s) for s, r in enumerate(nc_rates)]
                            + [np.zeros(c_rates.size)]).astype(int)
    comp = np.arange(sector.size) >= sector.size - c_rates.size
    rate = np.concatenate(list(nc_rates) + [c_rates]).astype(float)
    n = rate.size
    return cb.scheduler.LinkRates(
        comp=comp[None], sinr=np.zeros((1, n)), rate=rate[None],
        outage=(rate <= 0.0)[None], sector=sector[None], vc=np.zeros((1, n), int),
        pool=np.where(comp, len(nc_rates), sector)[None], n_vclusters=1,
        n_pools=len(nc_rates) + 1)


def closed_form_lambdas(nc_rates, c_rates, alpha):
    """Scheduled rates, theta and the r*beta products of the non-CoMP and
    CoMP users, from ``scheduler.allocate`` on the instance's one row."""
    rates = instance_rates(nc_rates, c_rates)
    sol = cb.scheduler.allocate(rates, alpha)
    prod = rates.rate[0] * sol.beta[0]
    comp = rates.comp[0]
    return sol.lam[0], float(sol.theta[0, 0]), prod[~comp], prod[comp]


def utility_oracle(lams, alpha):
    """Alpha-fair utility evaluated directly from its definition."""
    lam = np.asarray(lams, dtype=float)
    if alpha == 1.0:
        return np.sum(np.log(lam), axis=-1)
    return np.sum(lam ** (1.0 - alpha), axis=-1) / (1.0 - alpha)


def random_feasible_utilities(nc_rates, c_rates, alpha, n, rng):
    """Utilities of n random feasible (beta, theta) allocations, vectorised.

    Time budgets are drawn on the simplex (half of them scaled strictly
    inside it) and theta uniformly inside (0, 1).
    """
    theta = rng.uniform(1e-3, 1.0 - 1e-3, size=n)
    lam_cols = []
    for r in nc_rates:
        if r.size == 0:
            continue
        beta = rng.dirichlet(np.ones(r.size), size=n)
        scale = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.3, 1.0, size=n))
        beta = beta * scale[:, None]
        lam_cols.append((1.0 - theta)[:, None] * beta * r[None, :])
    if c_rates.size:
        beta_c = rng.dirichlet(np.ones(c_rates.size), size=n)
        scale = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.3, 1.0, size=n))
        beta_c = beta_c * scale[:, None]
        lam_cols.append(theta[:, None] * beta_c * c_rates[None, :])
    lam = np.concatenate(lam_cols, axis=1)
    return utility_oracle(lam, alpha)


def theta_objective(nc_prod, c_prod, alpha, theta):
    """Cluster utility as a function of the joint-transmission share alone."""
    lam = np.concatenate([(1.0 - theta) * nc_prod, theta * c_prod])
    return utility_oracle(lam, alpha)


def numeric_theta(nc_prod, c_prod, alpha):
    """Independent 1-D maximisation of the theta objective."""
    res = minimize_scalar(
        lambda t: -theta_objective(nc_prod, c_prod, alpha, t),
        bounds=(1e-9, 1.0 - 1e-9), method="bounded",
        options={"xatol": 1e-10})
    return float(res.x)


def einsum_region_membership(layout, pts):
    """Region test of a user drop, written on the full (N, 7, B, 2) offset
    tensor: accept points whose nearest BS image over all 7 placements is an
    un-shifted one (flat argmin, so ties prefer the identity image)."""
    shifts = np.vstack([np.zeros(2), layout.wrap_shifts])
    images = layout.bs_xy[None, :, :] + shifts[:, None, :]
    diff = pts[:, None, None, :] - images[None, :, :, :]
    d2 = np.einsum("nkbc,nkbc->nkb", diff, diff)
    best = d2.reshape(pts.shape[0], -1).argmin(axis=1)
    return best // layout.n_bs == 0, best % layout.n_bs


def dense_image_search(layout, pts):
    """The image search over all 343 images, on the (N, 7, B, 2) offset tensor.

    Returns (accept, nearest, dist, az_deg, shift_idx): the region test (flat
    argmin, ties prefer the identity image) with the BS of each point's
    nearest site image, and per (point, BS) the nearest of the 7 images (first
    minimum) with its unclamped distance, bearing and image index.
    """
    shifts = np.vstack([np.zeros(2), layout.wrap_shifts])
    images = layout.bs_xy[None, :, :] + shifts[:, None, :]
    diff = pts[:, None, None, :] - images[None, :, :, :]
    d2 = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]   # (N, 7, B)
    best = d2.reshape(pts.shape[0], -1).argmin(axis=1)
    shift = d2.argmin(axis=1)                                          # (N, B)
    chosen = np.take_along_axis(diff, shift[:, None, :, None], axis=1)[:, 0]
    dist = np.sqrt(np.take_along_axis(d2, shift[:, None, :], axis=1)[:, 0])
    az = np.degrees(np.arctan2(chosen[..., 1], chosen[..., 0]))
    return best < layout.n_bs, best % layout.n_bs, dist, az, shift


# The link budget and gain matrix as chains of numpy expressions, one fresh
# array per step: oracles for the in-place drop and fading stages.

def expression_link_budget(layout, drop):
    """``channel.drop_link_budget`` as expressions, with the bearing offsets
    wrapped by (x + 180) % 360 - 180 (180.0 mapped to -180)."""
    pl = ch.PL_INTERCEPT_DB + ch.PL_SLOPE_DB * (np.log10(drop.link_dist_m) - 3.0)
    offsets = (drop.link_az_deg[:, layout.sector_bs]
               - layout.sector_boresight_deg[None, :] + 180.0) % 360.0 - 180.0
    offsets[offsets == 180.0] = -180.0
    gain = 25.0 - np.minimum(12.0 * (offsets / 70.0) ** 2, 20.0)
    return -pl[:, layout.sector_bs] + gain + ch.USER_ANTENNA_GAIN_DBI - ch.PENETRATION_LOSS_DB


def expression_gain_matrix(budget_db, seed):
    """``channel.draw_gain_matrix`` as an expression, with the shadowing
    drawn by ``normal(0, sigma)``."""
    rng = np.random.default_rng(seed)
    return budget_db - rng.normal(0.0, ch.SHADOWING_STDDEV_DB, size=budget_db.shape)


def expression_received_power(gain_db):
    """``channel.received_power_w`` of the whole draw as an expression."""
    return ch.PER_SUBCHANNEL_POWER_W * 10.0 ** (gain_db / 10.0)


# Per-point scheduling and statistics, one sweep point at a time: oracles for
# the row-batched library stages, compared bit for bit.

def point_associate(rx_w, active_sector, strongest):
    """Max-SINR association under one (S,) set of active sectors."""
    act = np.asarray(active_sector, dtype=bool)
    total = rx_w[:, act].sum(axis=1)
    assoc = strongest.copy()
    asleep = ~act[assoc]
    if asleep.any():
        assoc[asleep] = np.where(act, rx_w[asleep], -np.inf).argmax(axis=1)
    w_serv = rx_w[np.arange(rx_w.shape[0]), assoc]
    return SimpleNamespace(active_sector=act, total_w=total, sector=assoc,
                           sinr=w_serv / (total - w_serv + ch.NOISE_W))


def linear_serving(rx_w, active_sectors):
    """(P, U) strongest active sector of every user under each row of the
    (P, S) masks, over the received powers in watts."""
    act = np.atleast_2d(np.asarray(active_sectors, dtype=bool))
    return np.array([np.where(a, rx_w, -np.inf).argmax(axis=1) for a in act])


def ascending_member_power(model, rx_w, active_sector):
    """(U, n_multi) received power of each multi-sector cluster's active
    members, added one sector after another in ascending order."""
    act = np.asarray(active_sector, dtype=bool)
    power = np.zeros((rx_w.shape[0], model.multi_vc_ids.size))
    for j, vc in enumerate(model.multi_vc_ids):
        for s in np.flatnonzero((model.vc_of_sector == vc) & act):
            power[:, j] += rx_w[:, s]
    return power


def point_cluster_links(model, rx_w, assoc, active_sector):
    """Serving cluster and joint SINR of every user under one pattern."""
    vc_user = model.vc_of_sector[assoc.sector]
    capable = model.vc_sizes[vc_user] > 1
    joint = np.zeros(rx_w.shape[0])
    if capable.any():
        p_joint = ascending_member_power(model, rx_w, active_sector)
        g_joint = p_joint / (assoc.total_w[:, None] - p_joint + ch.NOISE_W)
        col = np.searchsorted(model.multi_vc_ids, vc_user[capable])
        joint[capable] = g_joint[capable, col]
    return SimpleNamespace(vc=vc_user, capable=capable, joint_sinr=joint)


def point_link_rates(model, assoc, links, gamma_d_db):
    """CoMP flags, effective SINR, MCS rates, outage and pools of one point."""
    comp = links.capable & (assoc.sinr <= ch.from_db(gamma_d_db))
    sinr_eff = np.where(comp, links.joint_sinr, assoc.sinr)
    with np.errstate(divide="ignore"):
        eta = ch.MCS_TABLE.efficiency(ch.to_db(sinr_eff))
    r_user = eta * ch.RATE_PER_BITS_SYMBOL
    return SimpleNamespace(comp=comp, sinr=sinr_eff, rate=r_user, outage=r_user <= 0.0,
                           pool=np.where(comp, model.n_sectors + links.vc, assoc.sector))


def _point_pool_fractions(rates, pool_ids, n_pools, alpha):
    if alpha == 1.0:
        counts = np.bincount(pool_ids, minlength=n_pools).astype(float)
        return 1.0 / counts[pool_ids]
    t = rates ** ((1.0 - alpha) / alpha)
    sums = np.bincount(pool_ids, weights=t, minlength=n_pools)
    return t / sums[pool_ids]


def point_allocate(model, links, rates, alpha):
    """Time fractions, joint-transmission shares and user rates of one point."""
    n_users = rates.rate.shape[0]
    comp, r_user, outage, vc_user = rates.comp, rates.rate, rates.outage, links.vc
    sched = ~outage
    n_pools = model.n_sectors + model.n_vclusters
    beta = np.zeros(n_users)
    if sched.any():
        beta[sched] = _point_pool_fractions(r_user[sched], rates.pool[sched], n_pools,
                                            alpha)
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
        theta[~keep] = 0.0
    th_user = theta[vc_user]
    lam = np.where(comp, th_user, 1.0 - th_user) * beta * r_user
    lam[outage] = 0.0
    return SimpleNamespace(comp=comp, beta=beta, theta=theta, lam=lam, outage=outage,
                           coverage_sinr=rates.sinr)


def point_realization_stats(sol, vq, multi_vc_ids, rate_threshold_bps, alpha,
                            energy_saving_pct):
    """Cluster metrics of one scheduled point, as 1-D means of its users."""
    lam = sol.lam[vq]
    covered = lam > 0
    if covered.any():
        live = lam[covered]
        if alpha == 1.0:
            t_alpha = float(np.exp(np.mean(np.log(live))))
        else:
            t_alpha = float(np.mean(live ** (1.0 - alpha)) ** (1.0 / (1.0 - alpha)))
    else:
        t_alpha = 0.0
    ids = np.asarray(multi_vc_ids, dtype=int)
    return dict(
        t_alpha_bps=t_alpha,
        sinr_coverage=float(np.mean(sol.coverage_sinr[vq] >= ch.from_db(-6.5))),
        rate_coverage=float(np.mean(lam >= rate_threshold_bps)),
        energy_saving_pct=energy_saving_pct,
        theta_mean=float(sol.theta[ids].mean()) if ids.size else 0.0,
        n_users=int(vq.sum()),
        n_outage=int(np.sum(~covered)),
    )


def point_summary(values):
    """Mean, sample stddev and 95% CI half-width of one metric, 1-D."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return float(v.mean()), 0.0, 0.0
    std = float(v.std(ddof=1))
    return float(v.mean()), std, 1.96 * std / math.sqrt(v.size)


def point_evaluate(model, rx_w, vq, cluster_bs_idx, pattern, alpha, gamma_d_db):
    """Minimum metric-set rate of one pattern through every per-point stage."""
    act = pattern_bs_mask(int(model.sector_bs.max()) + 1, cluster_bs_idx,
                          pattern)[model.sector_bs]
    assoc = point_associate(rx_w, act, rx_w.argmax(axis=1))
    links = point_cluster_links(model, rx_w, assoc, act)
    sol = point_allocate(model, links, point_link_rates(model, assoc, links, gamma_d_db),
                         alpha)
    return float(sol.lam[vq].min())


def walk_heuristic(model, rx_w, vq, cluster_bs_idx, patterns, alpha, gamma_d_db,
                   rate_threshold_bps):
    """Walk the list one pattern at a time and stop at the first feasible one
    (or the last): (pattern, minimum rate, feasible, patterns evaluated)."""
    for n_eval, pattern in enumerate(patterns, start=1):
        min_rate = point_evaluate(model, rx_w, vq, cluster_bs_idx, pattern, alpha, gamma_d_db)
        if min_rate >= rate_threshold_bps:
            break
    return pattern, min_rate, min_rate >= rate_threshold_bps, n_eval


def walk_oracle(model, rx_w, vq, cluster_bs_idx, alpha, gamma_d_db, rate_threshold_bps):
    """Evaluate every admissible pattern one at a time; keep the feasible one
    with the most BSs off (ties: lowest bit value), else all-on infeasible:
    (pattern, minimum rate, feasible, patterns evaluated)."""
    n_bs = len(cluster_bs_idx)
    best = fallback = None
    n_eval = 0
    for a1 in range(n_bs):
        for off in itertools.combinations(range(1, n_bs + 1), a1):
            pattern = cb.BssPattern.from_off_ids(off, n_bs=n_bs)
            min_rate = point_evaluate(model, rx_w, vq, cluster_bs_idx, pattern, alpha,
                                      gamma_d_db)
            n_eval += 1
            if a1 == 0:
                fallback = (pattern, min_rate)
            key = (-pattern.a1, pattern.bit_value)
            if min_rate >= rate_threshold_bps and (best is None or key < best[0]):
                best = (key, pattern, min_rate)
    pattern, min_rate = best[1:] if best else fallback
    return pattern, min_rate, best is not None, n_eval


# Full-field oracles of the pool-user pipeline: every stage on every user of
# the draw in watts, the strongest sectors as argmaxes over watts, and the
# joint power as the ascending member sum of each pattern.

def full_field_links(model, rx_w, assoc):
    """Serving cluster and joint SINR of every user under every pattern."""
    vc_user = model.vc_of_sector[assoc.sector]
    capable = model.vc_sizes[vc_user] > 1
    p_joint = np.zeros(vc_user.shape)
    for p in np.flatnonzero(capable.any(axis=1)):
        users = np.flatnonzero(capable[p])
        col = np.searchsorted(model.multi_vc_ids, vc_user[p, users])
        p_joint[p, users] = ascending_member_power(
            model, rx_w, assoc.active_sector[p])[users, col]
    return cb.scheduler.ClusterLinks(
        vc=vc_user, capable=capable,
        joint_sinr=p_joint / (assoc.total_w - p_joint + ch.NOISE_W),
        n_vclusters=model.n_vclusters)


def full_field_drop_records(ctx, mu, d):
    """``campaign._drop_records`` values and skip count, scheduling every
    user of each draw."""
    from compbss.campaign import _mu_key, _seed_key
    cfg = ctx.cfg
    models = list(ctx.models.values())
    rows = [(pattern, model) for pattern in ctx.patterns for model in models
            for _ in cfg.gamma_ds_db]
    points = (len(cfg.alphas), len(ctx.patterns), len(models), len(cfg.gamma_ds_db),
              len(cfg.rate_thresholds_bps), len(cb.STAT_FIELDS))
    order = (0, 3, 2, 4, 1, 5, 6)   # (n, A, P, C, G, T, 7) -> (n, C, P, G, A, T, 7)
    drop = cb.drop_users(ctx.layout, mu, _seed_key(cfg.master_seed, 0, _mu_key(mu), d))
    budget_db = ch.drop_link_budget(ctx.layout, drop)
    blocks, skipped = [], 0
    for f_idx in range(cfg.n_fading):
        gain_db = ch.draw_gain_matrix(budget_db,
                                      _seed_key(cfg.master_seed, 1, _mu_key(mu), d, f_idx))
        rx_w = expression_received_power(gain_db)
        vq = cb.center_cluster_users(models[0], rx_w.argmax(axis=1), ctx.center_sector_idx)
        if not vq.any():
            skipped += 1
            continue
        assoc = cb.scheduler.associate(rx_w, ctx.active_sectors,
                                       linear_serving(rx_w, ctx.active_sectors))
        links = [full_field_links(model, rx_w, assoc) for model in models]
        rates = cb.scheduler.link_rates(models[0], assoc, links, cfg.gamma_ds_db)
        for alpha in cfg.alphas:
            blocks.append(cb.bss.realization_stats(
                cb.scheduler.allocate(rates, alpha), vq,
                [p.energy_saving_pct for p, _ in rows], [m.multi_vc_ids for _, m in rows],
                cfg.rate_thresholds_bps, alpha))
    return np.reshape(blocks, (-1,) + points).transpose(order), skipped


def full_field_patterns(model, rx_w, cluster_bs_idx, patterns, alpha, gamma_d_db):
    """Every pattern of the list scheduled over every user of the draw: the
    ``allocate`` solution with one row per pattern."""
    n_bs = int(model.sector_bs.max()) + 1
    active = np.array([pattern_bs_mask(n_bs, cluster_bs_idx, p)
                       for p in patterns])[:, model.sector_bs]
    assoc = cb.scheduler.associate(rx_w, active, linear_serving(rx_w, active))
    links = full_field_links(model, rx_w, assoc)
    return cb.scheduler.allocate(
        cb.scheduler.link_rates(model, assoc, [links], [gamma_d_db]), alpha)
