import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from returnstats.cml_theory import ExpansionWarning, alpha_hat_integral, cml_prediction
from returnstats.dynamics import LinearInterval, SinePerturbedInterval

LEB = np.ones_like


def test_constant_derivative_closed_form():
    # |DT| = a constant: alpha_hat_{k+1} = ((1-gamma) a)^(-k (n-1))
    for a in (2, 3):
        for n in (2, 3):
            for gamma in (0.0, 0.1, 0.4):
                for k in range(4):
                    want = ((1 - gamma) * a) ** (-k * (n - 1))
                    got = alpha_hat_integral(LinearInterval(a), LEB, n, gamma, k)
                    assert abs(got - want) < 1e-10, (a, n, gamma, k)


def test_k_zero_is_one_exactly():
    assert alpha_hat_integral(LinearInterval(2), LEB, 3, 0.3, 0) == 1.0


def test_hand_computed_nonuniform_density():
    # h((x,x)) = x^2 with T = 2x mod 1, n = 2, gamma = 0, k = 1:
    # num = int x^2 / 2 dx = 1/6, den = int x^2 dx = 1/3  =>  alpha_hat_2 = 1/2
    h = lambda x: x ** 2
    got = alpha_hat_integral(LinearInterval(2), h, 2, 0.0, 1)
    assert abs(got - 0.5) < 1e-10


def test_nonlinear_map_against_riemann_oracle():
    # independent oracle: dense midpoint Riemann sum of 1/|DT^k|^(n-1)
    imap = SinePerturbedInterval(2, 0.05)
    n, gamma = 2, 0.1
    for k in (1, 2, 3):
        got = alpha_hat_integral(imap, LEB, n, gamma, k)
        m = 1 << 20
        x = (np.arange(m) + 0.5) / m
        d = np.ones(m)
        xi = x.copy()
        for _ in range(k):
            d *= np.abs(imap.derivative(xi))
            xi = imap.apply(xi)
        riemann = np.mean(1.0 / d ** (n - 1)) / (1 - gamma) ** (k * (n - 1))
        assert abs(got - riemann) < 1e-5, k


def test_nonlinear_tails_are_not_geometric():
    imap = SinePerturbedInterval(2, 0.1)
    ah = [alpha_hat_integral(imap, LEB, 2, 0.0, k) for k in range(4)]
    r1, r2 = ah[2] / ah[1], ah[3] / ah[2]
    assert abs(r1 - r2) > 1e-7  # a genuinely non-constant derivative shows up


def test_expansion_warning():
    with pytest.warns(ExpansionWarning):
        alpha_hat_integral(LinearInterval(2), LEB, 2, 0.6, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha_hat_integral(LinearInterval(2), LEB, 2, 0.1, 1)


def test_validation():
    with pytest.raises(ValueError):
        alpha_hat_integral(LinearInterval(2), LEB, 0, 0.1, 1)
    with pytest.raises(ValueError):
        alpha_hat_integral(LinearInterval(2), LEB, 2, 1.0, 1)
    with pytest.raises(ValueError):
        alpha_hat_integral(LinearInterval(2), LEB, 2, 0.1, -1)
    with pytest.raises(ValueError):
        alpha_hat_integral(LinearInterval(2), LEB, 2, 0.1, 22)  # branch budget


def test_branch_budget_is_checked_before_any_point_is_built():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="partition budget"):
        alpha_hat_integral(SinePerturbedInterval(2, 0.05), LEB, 2, 0.1, 22)
    assert time.perf_counter() - t0 < 1.0


def test_prediction_assembly_telescopes_exactly():
    # gamma=0, a=2, n=2: alpha_hat_k+1 = 2^-k; verify the assembled alpha and
    # lambda sequences against exact rational arithmetic
    pred = cml_prediction(LinearInterval(2), LEB, 2, 0.0, k_max=6)
    ah = [Fraction(1, 2**k) for k in range(7)]
    alphas = [a - b for a, b in zip(ah[:-1], ah[1:])]
    alpha1 = alphas[0]
    lambdas = [(a - b) / alpha1 for a, b in zip(alphas[:-1], alphas[1:])]
    alpha_hat = pred.alpha_hat(8)
    alpha = -np.diff(alpha_hat)
    np.testing.assert_allclose(alpha_hat[:7], [float(v) for v in ah], atol=1e-10)
    np.testing.assert_allclose(alpha[:6], [float(v) for v in alphas], atol=1e-10)
    np.testing.assert_allclose(pred.lambdas[:5], [float(v) for v in lambdas], atol=1e-10)
    assert abs(pred.extremal_index - 0.5) < 1e-10
    # truncation bookkeeping: sum lambda + alpha_kmax/alpha_1 telescopes to 1
    assert abs(pred.lambdas[:5].sum() + alpha[5] / pred.extremal_index - 1.0) < 1e-9


def test_prediction_validation():
    with pytest.raises(ValueError):
        cml_prediction(LinearInterval(2), LEB, 2, 0.0, k_max=0)
