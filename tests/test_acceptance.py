"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as they
complete.  All Monte Carlo parameters and seeds are pinned so every line is
reproducible bit-for-bit.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from returnstats.cml_theory import alpha_hat_integral
from returnstats.distributions import ClusterSizeDist, compound_poisson_pmf
from returnstats.dynamics import (CmlSystem, LinearInterval,
                                  LinearMod1System, TorusAffineSystem)
from returnstats.estimators import cluster_statistics, counting_distribution
from returnstats.regenerative import RegenSpec, regen_cluster_stats
from returnstats.stats import total_variation
from returnstats.targets import Ball, DiagonalStrip, TorusStrip

from compound_binomial_reference import compound_binomial_pmf
from polya_aeppli_reference import polya_aeppli_pmf
from strip_reference import alpha2_strip, entry_time_ratio_strip

SEED = 1234


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{name}]: {verdict} -- {detail}")


def test_criterion_01_distribution_kernel_exactness():
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        for p in (0.1, 0.5, 0.9):
            pa = polya_aeppli_pmf(s, p, 40)
            cp = compound_poisson_pmf(s, ClusterSizeDist.geometric(p), 40)
            worst = max(worst, float(np.max(np.abs(pa.probs - cp.probs))))
    atom_exact = all(
        polya_aeppli_pmf(s, 0.5, 5).probs[0] == math.exp(-s)
        for s in (0.5, 1.0, 2.0))
    ok = worst < 1e-10 and atom_exact
    _report(1, "kernel exactness", ok,
            f"max |PA - CP| = {worst:.2e}; P(W=0)=e^-s exact: {atom_exact}")
    assert ok


def test_criterion_02_mean_cluster_identity():
    from test_distributions import random_valid_alpha_hat

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        ah, _ = random_valid_alpha_hat(rng)
        law = ClusterSizeDist.from_alpha_hat(ah)
        worst = max(worst, abs(law.mean() - 1.0 / (1.0 - ah[1])))
    ok = worst < 1e-9
    _report(2, "sum k lambda_k = 1/alpha_1", ok, f"max deviation = {worst:.2e}")
    assert ok


def test_criterion_03_torus_strip():
    # alpha_2 = 1/2 holds only as rho -> 0.  At K = 50 a second, independent
    # run of equal digits inside the window lifts alpha_hat_2 by about
    # (K - log2(1/rho)) rho / 2, so each estimate is compared with the exact
    # value at its own dyadic radius and the limit is checked on exact values
    system = TorusAffineSystem(2)
    n_hi, n_lo = 7, 10
    cs_hi = cluster_statistics(system, TorusStrip(2.0**-n_hi), K=50,
                               min_entries=100_000, max_orbit=100_000_000,
                               seed=SEED)
    cs_lo = cluster_statistics(system, TorusStrip(2.0**-n_lo), K=50,
                               min_entries=100_000, max_orbit=100_000_000,
                               seed=SEED)
    exact_hi, exact_lo = float(alpha2_strip(50, n_hi)), float(alpha2_strip(50, n_lo))
    err_hi = abs(cs_hi.alpha_hat[1] - exact_hi)
    err_lo = abs(cs_lo.alpha_hat[1] - exact_lo)
    dev_lo = abs(cs_lo.alpha_hat[1] - 0.5)
    dev_hi = abs(cs_hi.alpha_hat[1] - 0.5)
    bias = [alpha2_strip(50, n) - Fraction(1, 2) for n in range(n_hi, 14)]
    cd = counting_distribution(system, TorusStrip(1e-3), t=1.0,
                               n_trials=100_000, seed=SEED)
    tv = total_variation(cd, polya_aeppli_pmf(0.5, 0.5, max(60, cd.k_max)))
    close = err_hi < 0.01 and err_lo < 0.01
    trend = dev_lo < dev_hi
    limit = all(b > c for b, c in zip(bias, bias[1:])) and bias[-1] < 0.01
    tv_ok = tv < 0.02
    ok = close and trend and limit and tv_ok
    _report(3, "torus a=2 strip", ok,
            f"|a2 - exact| = {err_hi:.4f} at 2^-{n_hi} (exact {exact_hi:.5f}), "
            f"{err_lo:.4f} at 2^-{n_lo} (exact {exact_lo:.5f}) (<0.01: {close}); "
            f"trend {dev_lo:.4f} < {dev_hi:.4f}: {trend}; "
            f"exact a2*(50, 2^-n) - 1/2 decreasing for n = {n_hi}..13 and "
            f"{float(bias[-1]):.4f} at n = 13 (<0.01: {limit}); "
            f"TV vs PA(1/2,1/2) = {tv:.4f} (<0.02: {tv_ok})")
    assert ok


def test_criterion_04_periodic_point():
    system = LinearMod1System(3)
    cs = cluster_statistics(system, Ball((0.5,), 1e-3), K=14,
                            min_entries=100_000, max_orbit=80_000_000,
                            seed=SEED)
    lam_want = (2 / 3) * (1 / 3) ** np.arange(4)
    lam_dev = float(np.max(np.abs(cs.lambda_hat[:4] - lam_want)))
    ei_dev = abs(cs.extremal_index - 2 / 3)
    ok = lam_dev < 0.01 and ei_dev < 0.01
    _report(4, "3x mod 1 fixed point", ok,
            f"max |lambda_hat - (2/3)(1/3)^(l-1)| = {lam_dev:.4f}; "
            f"|EI - 2/3| = {ei_dev:.4f}")
    assert ok


def test_criterion_05_non_periodic_point():
    system = LinearMod1System(2)
    ball = Ball((1 / math.sqrt(2),), 1e-3)
    cs = cluster_statistics(system, ball, K=3, min_entries=10_000,
                            max_orbit=40_000_000, seed=SEED)
    cd = counting_distribution(system, ball, t=1.0, n_trials=30_000, seed=SEED)
    tv = total_variation(cd, polya_aeppli_pmf(1.0, 0.0, max(60, cd.k_max)))
    ok = cs.lambda_hat[0] > 0.99 and tv < 0.02
    _report(5, "non-periodic point is Poissonian", ok,
            f"lambda_hat_1 = {cs.lambda_hat[0]:.4f} (>0.99); "
            f"TV vs Poisson(1) = {tv:.4f} (<0.02)")
    assert ok


def test_criterion_06_entry_time_lemma():
    # the ratio tends to the extremal index 1/2 only as L mu -> 0 and then
    # L -> oo; at L mu = 2 it saturates near 0.32.  The simulation is
    # compared with the exact value at its scale, and the lemma is checked
    # on exact values along a ladder with L mu = 0.098, 0.031, 0.0038.
    # P(tau <= L) is the counting law's mass off zero over L points, the
    # horizon N = L - 1 of t = (L - 1/2) mu
    n, L = 10, 1000
    mu = 2.0 ** (1 - n)
    cd = counting_distribution(TorusAffineSystem(2), TorusStrip(2.0**-n),
                               t=(L - 0.5) * mu, n_trials=20_000, seed=SEED)
    ratio = (1.0 - cd.probs[0]) / (L * mu)
    exact = float(entry_time_ratio_strip(L, n))
    dev = abs(ratio - exact)
    rungs = [float(entry_time_ratio_strip(L_r, n_r))
             for L_r, n_r in ((50, 10), (1000, 16), (2000, 20))]
    lemma = all(abs(r - 0.5) < 0.02 for r in rungs)
    ok = dev < 0.02 and lemma
    _report(6, "entry-time ratio", ok,
            f"P(tau<=L)/(L mu) = {ratio:.4f} at L = {L}, rho = 2^-{n} (L mu = 2), "
            f"exact {exact:.4f}, |diff| = {dev:.4f} (<0.02); "
            f"exact ratio at (L, rho) = (50, 2^-10), (1000, 2^-16), (2000, 2^-20): "
            f"{', '.join(f'{r:.4f}' for r in rungs)} (all within 0.02 of 1/2: {lemma})")
    assert ok


def test_criterion_07_cml_analytic_constant_derivative():
    worst = 0.0
    for a in (2, 3):
        for n in (2, 3):
            for gamma in (0.0, 0.1, 0.4):
                for k in range(7):
                    want = ((1 - gamma) * a) ** (-k * (n - 1))
                    got = alpha_hat_integral(LinearInterval(a), np.ones_like, n, gamma, k)
                    worst = max(worst, abs(got - want))
    ok = worst < 1e-10
    _report(7, "CML quadrature vs closed form", ok, f"max deviation = {worst:.2e}")
    assert ok


def test_criterion_08_cml_empirical_vs_analytic():
    system = CmlSystem(LinearInterval(2), 2, 0.1, np.array([0.5, 0.5]))
    cs = cluster_statistics(system, DiagonalStrip(1e-3), K=3,
                            min_entries=20_000, max_orbit=200_000_000,
                            seed=77, orbit_len=400_000)
    pred = alpha_hat_integral(LinearInterval(2), np.ones_like, 2, 0.1, 1)
    dev = abs(cs.alpha_hat[1] - pred)
    bound = 3 * cs.alpha_se[1] + 1e-6
    ok = dev < bound
    _report(8, "CML empirical vs quadrature", ok,
            f"alpha_hat_2 = {cs.alpha_hat[1]:.5f}, prediction = {pred:.5f}, "
            f"|diff| = {dev:.5f} < 3 sigma = {bound:.5f}")
    assert ok


def test_criterion_09_smith_pathology():
    # gamma_k ~ 1/k^2 truncated at 3000 keeps the per-symbol limits (exactly
    # 1/2) while making the estimator variance reachable inside the budget
    spec = RegenSpec.smith(k_cap=3000)
    m = 1000
    t0 = time.time()
    # tallied from the hit blocks (the same numbers as the dense rows), the
    # streams built once on two threads, as simulate shares them across K
    shared: list = []
    cs10, cs100 = (regen_cluster_stats(spec, m, K, 400, 909, stream_len=5_000_000,
                                       workers=2, runs=shared) for K in (10, 100))
    a_ok = abs(cs10.alpha_hat[1] - 0.5) < 0.03 and abs(cs100.alpha_hat[1] - 0.5) < 0.03
    small = cs100.lambda_hat[1] < 0.05
    # at finite m, lambda_hat_2(K) is dominated by two independent short-block
    # visits merging in one window, a term of order K mu(U_m): it grows with
    # K at every m and vanishes as m -> oo for every K, so the theory orders
    # nothing between lam2(K=10) and lam2(K=100).  The escaping mass is the
    # share of windows that one long block (length >= m + 2 > 2K + 1) fills
    # completely, lambda_hat_{2K+1}(K) ~ 1/(2K + 2)
    escape = cs100.lambda_hat[-1] < cs10.lambda_hat[-1]
    ok = a_ok and small and escape
    _report(9, "Smith mass escape", ok,
            f"a2(K=10) = {cs10.alpha_hat[1]:.4f}, a2(K=100) = {cs100.alpha_hat[1]:.4f} "
            f"(both within 0.03 of 1/2: {a_ok}); "
            f"lam2(K=100) = {cs100.lambda_hat[1]:.4f} < 0.05: {small}; "
            f"lam2(K=10) = {cs10.lambda_hat[1]:.4f} (window merging, not ordered); "
            f"lam_2K+1(K=100) = {cs100.lambda_hat[-1]:.4f} < "
            f"lam_2K+1(K=10) = {cs10.lambda_hat[-1]:.4f}: {escape}; "
            f"[{time.time() - t0:.0f}s, {cs10.total_steps:.0f} steps]")
    assert ok


def test_criterion_10_regenerative_extremal_index():
    spec = RegenSpec.fixed_lengths(ClusterSizeDist(np.array([0.5, 0.3, 0.2])))
    cs = regen_cluster_stats(spec, m=1000, K=10, n_streams=10, seed=SEED,
                             stream_len=2_000_000)
    dev = abs(cs.extremal_index - 1 / 1.7)
    ok = dev < 0.02
    _report(10, "regenerative 1/sum(s lambda_s)", ok,
            f"EI = {cs.extremal_index:.4f}, target 1/1.7 = {1 / 1.7:.4f}, "
            f"|diff| = {dev:.4f} (<0.02)")
    assert ok


def test_criterion_11_compound_binomial_convergence():
    n_prime, s = 10_000, 1.0
    cb = compound_binomial_pmf(n_prime, s / n_prime,
                               ClusterSizeDist.geometric(0.5), 60)
    pa = polya_aeppli_pmf(s, 0.5, 60)
    tv = total_variation(cb, pa)
    ok = tv < 1e-3
    _report(11, "compound binomial -> Polya-Aeppli", ok, f"TV = {tv:.2e} (<1e-3)")
    assert ok


def test_criterion_12_determinism_across_workers(tmp_path):
    from returnstats.cli import main

    cfg = tmp_path / "cfg.yaml"
    runs = {
        "torus": ("""
system: {kind: torus, a: 2}
target: {kind: torus_strip}
schedule:
  - {rho: 0.02, K: 5, t: 1.0, n_trials: 300, min_entries: 200, orbit_len: 20000}
seed: 5150
""", "rho0p02_K5"),
        # five streams, so that four workers build several at once
        "smith": ("""
system: {kind: regenerative, block_rule: smith, k_cap: 3000}
target: {kind: level_set}
schedule:
  - {m: 100, K: 5, t: 1.0, n_trials: 200, min_entries: 2000, stream_len: 100000}
seed: 5150
""", "m100_K5"),
    }
    identical = manifests_agree = True
    for system, (text, label) in runs.items():
        files = [f"{kind}_{label}.{ext}" for kind in ("cluster", "counting")
                 for ext in ("json", "csv")]
        outs, manifests = {}, {}
        for workers in (1, 4):
            out = tmp_path / f"{system}_w{workers}"
            cfg.write_text(text + f'outputs: {{dir: "{out}"}}\n')
            assert main(["--config", str(cfg), "--workers", str(workers),
                         "simulate"]) == 0
            outs[workers] = {f: (out / f).read_bytes() for f in files}
            manifests[workers] = json.loads((out / "manifest.json").read_text())
        identical &= outs[1] == outs[4]
        # the manifests must agree on everything except the echoed worker count
        for m in manifests.values():
            m["config"].pop("workers")
            m["config"]["outputs"].pop("dir")
        manifests_agree &= manifests[1] == manifests[4]
    ok = identical and manifests_agree
    _report(12, "worker-count determinism", ok,
            f"result files byte-identical for workers 1 vs 4 (torus, smith): {identical}; "
            f"manifests identical up to echoed worker count: {manifests_agree}")
    assert ok


def test_criterion_13_cml_synchronisation_across_the_coupling():
    # the paper's synchronisation example: as (1 - gamma) a falls to 1 the
    # diagonal law alpha_hat_{k+1} = p^k, p = ((1 - gamma) a)^-1, holds with
    # theta = 1 - p -> 0 and K mu(U) still small
    ok, details = True, []
    for gamma in (0.3, 0.5, 0.6):
        cs = cluster_statistics(CmlSystem(LinearInterval(3), 2, gamma), DiagonalStrip(1e-3),
                                K=12, min_entries=4000, max_orbit=10**9, seed=77,
                                orbit_len=100_000, workers=1)
        p = 1.0 / ((1.0 - gamma) * 3)
        z2 = (cs.alpha_hat[1] - p) / cs.alpha_se[1]
        z3 = (cs.alpha_hat[2] - p**2) / cs.alpha_se[2]
        ok &= abs(z2) < 3 and abs(z3) < 3
        details.append(f"gamma {gamma}: K mu = {cs.K * cs.mu_hat:.3f}, "
                       f"K theta = {cs.K * (1 - p):.2f}, z2 = {z2:+.2f}, z3 = {z3:+.2f}")
    _report(13, "CML synchronisation", ok, "; ".join(details) + " (|z| < 3)")
    assert ok
