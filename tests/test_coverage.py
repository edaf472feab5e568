"""Coverage of the error bars: across R seeds, z = (estimate - exact) / SE must
look standard normal where the exact finite-scale value is known.

The strip family: TorusStrip(2**-n) on the doubling torus has the exact
alpha_2*(K, 2**-n) of ``strip_reference``.  Its mean z lies within 3/sqrt(R)
of 0 and its variance inside the 99.9% chi-square interval for R - 1
degrees of freedom.  A failure is a finding about the SE, not a seed to move.
"""

import math

import numpy as np
from scipy.stats import chi2

from returnstats.dynamics import TorusAffineSystem
from returnstats.estimators import cluster_statistics
from returnstats.targets import TorusStrip

from strip_reference import alpha2_strip

R = 200


def test_strip_alpha2_error_bars_cover_the_exact_value():
    n, K = 6, 20
    system, target = TorusAffineSystem(2), TorusStrip(2.0**-n)
    exact = float(alpha2_strip(K, n))
    z = np.empty(R)
    for i in range(R):
        cs = cluster_statistics(system, target, K=K, min_entries=2000, max_orbit=10**8,
                                seed=10_000 + i, orbit_len=2000, workers=1)
        z[i] = (cs.alpha_hat[1] - exact) / cs.alpha_se[1]
    lo, hi = chi2.ppf([0.0005, 0.9995], R - 1) / (R - 1)
    mean, var = z.mean(), z.var(ddof=1)
    print(f"strip: mean z {mean:.3f} (bound {3 / math.sqrt(R):.3f}), "
          f"var z {var:.3f} (99.9% interval [{lo:.3f}, {hi:.3f}])")
    assert abs(mean) < 3 / math.sqrt(R)
    assert lo < var < hi
