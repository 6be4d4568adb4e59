"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  The statistical checks use
fixed seeds; bootstrap orderings resample realization means.
"""

import hashlib
import time

import numpy as np
import pytest

import compbss as cb
from compbss.bss import all_patterns, default_pattern_list, evaluate_pattern, \
    exhaustive_oracle, heuristic_select
from compbss.campaign import CampaignConfig, RESULT_COLUMNS, run_campaign, \
    write_rows_csv
from compbss.channel import McsTable, _directivity_gain_in_place, path_loss_db, \
    per_subchannel_power_w
from compbss.metrics import alpha_fair_throughputs
from compbss.scheduler import SchedulerParams, allocate, schedule

from helpers import (closed_form_lambdas, instance_rates, make_instance, numeric_theta,
                     random_feasible_utilities, utility_oracle)


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _boot_q(diff, q, n_boot=3000, seed=0):
    rng = np.random.default_rng(seed)
    d = np.asarray(diff, dtype=float)
    means = rng.choice(d, size=(n_boot, d.size), replace=True).mean(axis=1)
    return float(np.quantile(means, q))


def _realization(layout, params, density, seed, tag):
    drop = cb.drop_users(layout, density,
                         np.random.SeedSequence(seed, spawn_key=(tag, 0)))
    gains = cb.build_gain_matrix(layout, drop, params,
                                 np.random.SeedSequence(seed, spawn_key=(tag, 1)))
    return drop, cb.received_power_w(gains, params)


R_GRID = np.array([0.0, 0.05e6, 0.1e6, 0.2e6, 0.5e6, 1e6, 2e6, 5e6])


@pytest.fixture(scope="module")
def ordering_matrix(layout, params, models):
    """300 drops x 4 configs x 5 patterns at alpha=1, gamma_d=0, mu=60."""
    sp = SchedulerParams(alpha=1.0, gamma_d_db=0.0)
    patterns = default_pattern_list()
    center_idx = layout.center_cluster_sector_ids - 1
    cb_idx = layout.center_cluster_bs_ids - 1
    acc = {(c, p.label): {"t": [], "cov": [], "rcov": []}
           for c in models for p in patterns}
    n_used = 0
    for d in range(300):
        drop, rx = _realization(layout, params, 60.0, 20250 + d, tag=7)
        vq = cb.center_cluster_users(models["none"], rx.argmax(axis=1), center_idx)
        if not vq.any():
            continue
        n_used += 1
        for cname, model in models.items():
            for p in patterns:
                ev = evaluate_pattern(model, rx, vq, cb_idx, p, sp, 0.0)
                vq_ev = vq[ev.users]    # the solution covers the pool users
                lam = ev.solution.lam[vq_ev]
                covered = lam > 0
                acc[(cname, p.label)]["t"].append(
                    alpha_fair_throughputs(lam[covered], [covered.sum()], 1.0)[0]
                    if covered.any() else 0.0)
                acc[(cname, p.label)]["cov"].append(
                    cb.sinr_coverage(ev.solution.coverage_sinr[vq_ev]))
                acc[(cname, p.label)]["rcov"].append(
                    [cb.rate_coverage(lam, r) for r in R_GRID])
    out = {k: {m: np.asarray(v[m]) for m in v} for k, v in acc.items()}
    out["n_drops"] = n_used
    out["pattern_labels"] = [p.label for p in patterns]
    return out


def test_c01_closed_form_optimality():
    """Prop 1-2 closed forms, as ``allocate`` schedules them, dominate random
    feasible allocations and match a numeric 1-D maximisation of the share
    objective."""
    rng = np.random.default_rng(42)
    alphas = (0.5, 1.0, 2.0, 3.0)
    t0 = time.time()
    worst_gap = np.inf
    worst_dtheta = 0.0
    for i in range(1000):
        alpha = alphas[i % 4]
        nc_rates, c_rates = make_instance(rng, max_sectors=3, max_users=6,
                                          require_both=(i % 2 == 0))
        lams, theta, nc_prod, c_prod = closed_form_lambdas(nc_rates, c_rates, alpha)
        u_star = utility_oracle(lams, alpha)
        u_rand = random_feasible_utilities(nc_rates, c_rates, alpha, 10_000, rng)
        gap = u_star - u_rand.max()
        worst_gap = min(worst_gap, gap + abs(u_star) * 1e-12)
        if nc_prod.size and c_prod.size:
            d = abs(theta - numeric_theta(nc_prod, c_prod, alpha))
            worst_dtheta = max(worst_dtheta, d)
    elapsed = time.time() - t0
    ok = worst_gap >= 0 and worst_dtheta <= 1e-6 and elapsed <= 120
    _report(1, "closed-form optimality (1000 instances x 10k allocations)", ok,
            f"worst utility gap {worst_gap:.3e}, worst |dtheta| {worst_dtheta:.2e}, "
            f"{elapsed:.1f}s")


def test_c02_alpha1_exactness():
    """Proportional-fair limits of ``allocate`` are exact for every
    (N_c, N_nc) in [0,20]^2: one sector pool, one CoMP pool."""
    rng = np.random.default_rng(1)
    ok = True
    for n_c in range(21):
        for n_nc in range(21):
            rates = instance_rates([10 ** rng.uniform(5, 8, n_nc)],
                                   10 ** rng.uniform(5, 8, n_c))
            sol = allocate(rates, 1.0)
            beta = sol.beta[0]
            ok &= np.all(beta[:n_nc] == 1.0 / max(n_nc, 1))
            ok &= np.all(beta[n_nc:] == 1.0 / max(n_c, 1))
            theta = sol.theta[0, 0]
            if n_c == 0:
                ok &= theta == 0.0
            elif n_nc == 0:
                ok &= theta == 1.0
            else:
                ok &= theta == n_c / (n_c + n_nc)
    _report(2, "alpha=1 exactness over (N_c, N_nc) in [0,20]^2", bool(ok))


def test_c03_mcs_bit_exact():
    table = McsTable.default()
    thresholds = [-6.5, -4.0, -2.6, -1.0, 1.0, 3.0, 6.6, 10.0,
                  11.4, 11.8, 13.0, 13.8, 15.6, 16.8, 17.6]
    effs = [0.15, 0.23, 0.38, 0.60, 0.88, 1.18, 1.48, 1.91,
            2.41, 2.73, 3.32, 3.90, 4.52, 5.12, 5.55]
    ok = all(table.efficiency(t) == e for t, e in zip(thresholds, effs))
    ok &= table.efficiency(-6.6) == 0.0 and table.efficiency(-100.0) == 0.0
    _report(3, "MCS lookup reproduces all 15 table rows plus outage", bool(ok))


def test_c04_deterministic_spot_checks(params):
    checks = [
        ("path_loss(1000m)", path_loss_db(1000.0), 136.8245),
        ("directivity(0)", _directivity_gain_in_place(np.array(0.0)), 25.0),
        ("directivity(180)", _directivity_gain_in_place(np.array(180.0)), 5.0),
        ("per-subchannel power", per_subchannel_power_w(params), 10 ** 1.6 / 297.0),
        ("link_rate(eta=1)", 1.0 * params.rate_per_bits_symbol, 16.632e6),
        ("energy saving Z3/7", cb.BssPattern.from_off_ids((1, 2, 4)).energy_saving_pct,
         300.0 / 7.0),
    ]
    ok = all(abs(got - want) <= 1e-6 * abs(want) for _, got, want in checks)
    # the published roundings hold at their printed precision
    ok &= abs(per_subchannel_power_w(params) - 0.13404) <= 5e-6
    ok &= abs(cb.BssPattern.from_off_ids((1, 2, 4)).energy_saving_pct - 42.857) <= 5e-4
    _report(4, "deterministic math spot-checks at 1e-6 relative", bool(ok))


def test_c05_heuristic_equals_oracle(layout, params, models):
    """Full 127-pattern heuristic matches the exhaustive search on 200 drops."""
    t0 = time.time()
    model = models["C3"]
    sp = SchedulerParams(alpha=1.0, gamma_d_db=0.0)
    center_idx = layout.center_cluster_sector_ids - 1
    cb_idx = layout.center_cluster_bs_ids - 1
    full = all_patterns(7)
    rate_threshold = 0.2e6
    mismatches = 0
    n_checked = 0
    n_feasible = 0
    for d in range(200):
        drop, rx = _realization(layout, params, 60.0, 31000 + d, tag=5)
        vq = cb.center_cluster_users(model, rx.argmax(axis=1), center_idx)
        if not vq.any():
            continue
        h = heuristic_select(model, rx, vq, cb_idx, full, sp, rate_threshold)
        o = exhaustive_oracle(model, rx, vq, cb_idx, sp, rate_threshold)
        n_checked += 1
        n_feasible += int(h.feasible)
        if h.pattern.off_flags != o.pattern.off_flags or h.feasible != o.feasible:
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and n_checked >= 190 and elapsed <= 600
    _report(5, "heuristic equals exhaustive oracle on 200 drops", ok,
            f"{n_checked} drops ({n_feasible} feasible), "
            f"{mismatches} mismatches, {elapsed:.0f}s")


def _inversions(seq, tol=0.01):
    """(count, max depth) of decreases along a supposedly non-decreasing path."""
    depths = [max(0.0, seq[i] - seq[i + 1]) for i in range(len(seq) - 1)]
    real = [d for d in depths if d > 1e-12]
    return len(real), (max(real) if real else 0.0)


def test_c06_theta_trend(layout, params, models):
    """Mean joint-transmission share grows with the CoMP threshold and with
    the fairness parameter."""
    model = models["C1"]
    center_idx = layout.center_cluster_sector_ids - 1
    gammas = [-6.0, -4.0, -2.0, 0.0, 2.0, 4.0]
    alphas = [1.0, 2.0, 3.0]
    sums = {(g, a): [] for g in gammas for a in alphas}
    for d in range(50):
        drop, rx = _realization(layout, params, 60.0, 40000 + d, tag=6)
        vq = cb.center_cluster_users(model, rx.argmax(axis=1), center_idx)
        if not vq.any():
            continue
        for g in gammas:
            for a in alphas:
                sol = schedule(model, rx, np.ones(layout.n_bs, bool),
                               SchedulerParams(alpha=a, gamma_d_db=g))
                sums[(g, a)].append(sol.theta[model.multi_vc_ids].mean())
    mean = {k: float(np.mean(v)) for k, v in sums.items()}
    ok = True
    detail = []
    for a in alphas:
        n, depth = _inversions([mean[(g, a)] for g in gammas])
        ok &= n <= 1 and depth <= 0.01
        detail.append(f"alpha={a}: " + "/".join(f"{mean[(g, a)]:.3f}" for g in gammas))
    for g in gammas:
        n, depth = _inversions([mean[(g, a)] for a in alphas])
        ok &= n <= 1 and depth <= 0.01
    _report(6, "theta trend non-decreasing in gamma_d and alpha", bool(ok),
            "; ".join(detail))


def test_c07_config_orderings(ordering_matrix):
    """Throughput none>=C3>=C2>=C1 and coverage C1>=C2>=C3>=none, at the
    all-on and three-off patterns, with 95% bootstrap confidence."""
    ok = True
    details = []
    for label in ("Z0/7", "Z3/7"):
        t = {c: ordering_matrix[(c, label)]["t"] for c in ("none", "C1", "C2", "C3")}
        cov = {c: ordering_matrix[(c, label)]["cov"] for c in ("none", "C1", "C2", "C3")}
        for hi, lo in (("none", "C3"), ("C3", "C2"), ("C2", "C1")):
            q = _boot_q(t[hi] - t[lo], 0.05)
            ok &= q >= 0
            details.append(f"{label} T {hi}-{lo} q05={q / 1e6:+.3f}M")
        for hi, lo in (("C1", "C2"), ("C2", "C3"), ("C3", "none")):
            q = _boot_q(cov[hi] - cov[lo], 0.05)
            ok &= q >= 0
            details.append(f"{label} cov {hi}-{lo} q05={q:+.5f}")
    _report(7, f"config orderings over {ordering_matrix['n_drops']} drops",
            bool(ok), "; ".join(details))


def test_c08_energy_coverage_frontier(ordering_matrix):
    """Along the pattern chain coverage falls (within CI) while the energy
    saving rises exactly as a1/a2."""
    labels = ordering_matrix["pattern_labels"]          # Z4 .. Z0
    order = labels[::-1]                                 # Z0 -> Z4
    energies = [0.0, 100 / 7, 200 / 7, 300 / 7, 400 / 7]
    pats = default_pattern_list()[::-1]
    ok = all(abs(p.energy_saving_pct - e) <= 1e-9
             for p, e in zip(pats, energies))
    details = [f"energy exact: {ok}"]
    for cname in ("none", "C1", "C2", "C3"):
        covs = [ordering_matrix[(cname, lab)]["cov"] for lab in order]
        for i in range(len(order) - 1):
            q = _boot_q(covs[i + 1] - covs[i], 0.05)   # reversal significance
            ok &= q <= 1e-12
        details.append(f"{cname}: " + "/".join(f"{c.mean():.4f}" for c in covs))
    _report(8, "energy/coverage frontier monotone along Z0->Z4", bool(ok),
            "; ".join(details))


def test_c09_rate_coverage_properties(ordering_matrix):
    """Empirical rate-coverage curves fall with R; switching more BSs off
    never significantly raises rate coverage."""
    labels = ordering_matrix["pattern_labels"][::-1]    # Z0 -> Z4
    ok = True
    for cname in ("none", "C3"):
        curves = {lab: ordering_matrix[(cname, lab)]["rcov"] for lab in labels}
        for lab in labels:
            mean_curve = curves[lab].mean(axis=0)
            ok &= np.all(np.diff(mean_curve) <= 1e-12)
        for i in range(len(labels) - 1):
            for j in range(len(R_GRID)):
                rev = curves[labels[i + 1]][:, j] - curves[labels[i]][:, j]
                ok &= _boot_q(rev, 0.05, seed=j) <= 1e-12
    _report(9, "rate-coverage curves monotone in R and in switched-off BSs",
            bool(ok))


def test_c10_reproducibility(tmp_path):
    """Identical config and seed give byte-identical CSV output."""
    digests = []
    for run in range(2):
        cfg = CampaignConfig(
            densities_per_km2=[60.0], n_drops=2, n_fading=1, alphas=[1.0, 2.0],
            gamma_ds_db=[-1.0], rate_thresholds_bps=[2e5], comp_configs=["C3"],
            master_seed=77, output="unused.csv")
        res = run_campaign(cfg)
        path = tmp_path / f"rep{run}.csv"
        write_rows_csv(res.rows, RESULT_COLUMNS, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    ok = digests[0] == digests[1]
    _report(10, "byte-identical CSV for identical config+seed", ok,
            digests[0][:12])
