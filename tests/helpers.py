"""Shared test oracles, independent of the library code paths they check."""

import numpy as np
from scipy.optimize import minimize_scalar

import compbss as cb


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


def closed_form_lambdas(nc_rates, c_rates, alpha):
    """Scheduled rates from the library's closed forms."""
    betas_nc = [cb.optimal_time_fractions(r, alpha) for r in nc_rates if r.size]
    nc_prod = np.concatenate([r * b for r, b in zip(
        [r for r in nc_rates if r.size], betas_nc)]) if any(r.size for r in nc_rates) \
        else np.empty(0)
    beta_c = cb.optimal_time_fractions(c_rates, alpha) if c_rates.size else np.empty(0)
    c_prod = c_rates * beta_c
    theta = cb.optimal_comp_share(nc_prod, c_prod, alpha)
    lams = np.concatenate([(1.0 - theta) * nc_prod, theta * c_prod])
    return lams, theta, nc_prod, c_prod


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
