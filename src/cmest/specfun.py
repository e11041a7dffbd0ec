"""Self-contained special functions used by the analytic variance formulas
and the figure post-processors.

Only the real-valued pieces actually needed are implemented: the principal
branch of the Lambert W function (solves the Cauchy transmit-phase optimum),
the confluent hypergeometric function 1F1 (Ricean fading penalty), the
Student-t tail (p-value of the AF flatness regression) and the null
distribution of the two-sample Kolmogorov-Smirnov statistic (robustness KS
test).
"""

import math

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "lambert_w0",
    "hyp1f1",
    "ricean_fading_penalty",
    "student_t_two_sided_sf",
    "ks_two_sample_sf",
]

_BRANCH_POINT = -math.exp(-1.0)  # -1/e, left edge of the real domain
_GAMMA_3_2 = math.sqrt(math.pi) / 2.0  # Gamma(3/2), kept as an exact constant


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function, the inverse of w*exp(w).

    Returns w >= -1 with w*exp(w) = x to relative accuracy ~1e-12.
    Halley iterations from a branch-point series (near -1/e) or a
    logarithmic initial guess.

    Raises DomainError for x < -1/e - 1e-14.
    """
    x = float(x)
    if x < _BRANCH_POINT:
        if x < _BRANCH_POINT - 1e-14:
            raise DomainError(f"lambert_w0 requires x >= -1/e, got {x}")
        x = _BRANCH_POINT
    if x == _BRANCH_POINT:
        return -1.0
    if x == 0.0:
        return 0.0

    if x < -0.3:
        # Branch-point expansion in p = sqrt(2(e*x + 1)).
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3
    elif x < 3.0:
        w = math.log1p(x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)

    tol = 1e-13 * max(abs(x), 1e-300)
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return w
        wp1 = w + 1.0
        # Halley step for f(w) = w*exp(w) - x.
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= 1e-16 * max(1.0, abs(w)):
            return w
    raise NonConvergenceError(f"lambert_w0 did not converge for x={x}")


def hyp1f1(a: float, b: float, x: float, max_terms: int = 10_000) -> float:
    """Kummer confluent hypergeometric function 1F1(a; b; x).

    Direct series sum_n (a)_n/(b)_n x^n/n!, terminated once
    |term|/|partial sum| < 1e-15.  For x < 0 the series alternates, so the
    identity 1F1(a;b;x) = exp(x) * 1F1(b-a;b;-x) is applied first and the
    stable positive-argument series is summed instead.

    Raises DomainError when b is a non-positive integer, and
    NonConvergenceError past ``max_terms`` terms.
    """
    a, b, x = float(a), float(b), float(x)
    if b <= 0.0 and b == math.floor(b):
        raise DomainError(f"hyp1f1 undefined for non-positive integer b={b}")
    if x < 0.0:
        return math.exp(x) * hyp1f1(b - a, b, -x, max_terms=max_terms)

    total = 1.0
    term = 1.0
    for n in range(max_terms):
        term *= (a + n) / (b + n) * x / (n + 1.0)
        total += term
        if abs(term) < 1e-15 * abs(total):
            return total
    raise NonConvergenceError(
        f"hyp1f1({a}, {b}, {x}) did not converge in {max_terms} terms"
    )


def ricean_fading_penalty(k_factor: float) -> float:
    """Multiplicative variance penalty (E[|h|])^-2 of unit-power Ricean fading.

    The Ricean envelope with line-of-sight factor K and E[|h|^2] = 1 has
    mean amplitude Gamma(3/2) * exp(-K) * 1F1(3/2; 1; K) / sqrt(K+1), so the
    penalty is (K+1) / (Gamma(3/2) * exp(-K) * 1F1(3/2; 1; K))^2.  It equals
    4/pi at K = 0 (Rayleigh) and decreases monotonically to 1 as the channel
    hardens (K -> infinity).
    """
    k = float(k_factor)
    if k < 0.0:
        raise DomainError(f"Ricean K factor must be >= 0, got {k}")
    mean_amp = _GAMMA_3_2 * math.exp(-k) * hyp1f1(1.5, 1.0, k) / math.sqrt(k + 1.0)
    return 1.0 / (mean_amp * mean_amp)


def student_t_two_sided_sf(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with an integer ``df`` >= 1.

    With cos(theta) = 1/sqrt(1 + t^2/df), A&S 26.7.3 (odd df) and 26.7.4
    (even df) give P(|T| < |t|) as a finite sum in x = cos^2(theta) =
    df/(df + t^2).  Both sums are the head of a positive series that sums to
    one, the incomplete-beta series of I_x(df/2, 1/2); once one minus the
    head falls below 1/10 and would lose digits, the tail of that series is
    summed instead.
    """
    if isinstance(df, bool) or not isinstance(df, int) or df < 1:
        raise DomainError(f"Student-t tail needs an integer df >= 1, got {df!r}")
    t = abs(float(t))
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0
    s = t / math.sqrt(df)
    r = math.hypot(1.0, s)
    cos, sin = 1.0 / r, s / r
    x = cos * cos
    odd = df % 2
    # term k is c_k x^k, with c_k = (2k)!!/(2k+1)!! for odd df and
    # (2k-1)!!/(2k)!! for even df, so c_k/c_(k-1) = (2k-1+odd)/(2k+odd);
    # the head sums the terms k < df // 2
    head, term, k = 0.0, 1.0, 0
    while k < df // 2:
        head += term
        k += 1
        term *= x * ((2 * k - 1 + odd) / (2 * k + odd))
    if odd:
        scale = 2.0 / math.pi * sin * cos
        p = 2.0 / math.pi * (math.atan2(1.0, s) - sin * cos * head)
    else:
        scale = sin
        p = 1.0 - sin * head
    if p >= 0.1:
        return p
    tail = 0.0
    while term > 1e-17 * tail * (sin * sin):  # what is left is < term/(1-x)
        tail += term
        k += 1
        term *= x * ((2 * k - 1 + odd) / (2 * k + odd))
    return scale * tail


def ks_two_sample_sf(n1: int, n2: int, h: int) -> float:
    """P(D >= h / lcm(n1, n2)) for the two-sided two-sample Kolmogorov-Smirnov
    statistic D of samples of sizes n1 and n2 drawn from one continuous law.

    Equal sizes use the exact alternating sum over reflected lattice paths,
    P = 2 * A0 * (1 - A1 * (1 - A2 * (...))) evaluated Horner-style so it
    does not cancel (the arithmetic of SciPy's exact method, O(n)).  Unequal
    sizes count exactly the lattice paths from (0, 0) to (n1, n2) that stay
    strictly inside the band |i/n1 - j/n2| < h/lcm, as fractions of all
    paths, one anti-diagonal at a time (O(n1 * n2)); the result is one minus
    that fraction, so it is exact to about 1e-15 absolute.
    """
    if n1 < 1 or n2 < 1 or h < 0:
        raise DomainError(f"KS null needs sizes >= 1 and h >= 0, got {n1}, {n2}, {h}")
    if h == 0:
        return 1.0
    if n1 == n2:
        n = n1
        p = 0.0
        k = n // h
        while k >= 0:
            p1 = 1.0
            for j in range(h):
                p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
            p = p1 * (1.0 - p)
            k -= 1
        return min(max(2 * p, 0.0), 1.0)
    g = math.gcd(n1, n2)
    i = np.arange(n1 + 1)
    inside = np.zeros(n1 + 1)  # share of the paths to (i, s - i) never out
    inside[0] = 1.0
    last_step_in_i = np.zeros(n1 + 1)  # the share at (i - 1, s - i)
    for s in range(1, n1 + n2 + 1):
        j = s - i
        last_step_in_i[1:] = inside[:-1]
        inside = (i * last_step_in_i + j * inside) / s
        inside[(j < 0) | (j > n2) | (np.abs(i * (n2 // g) - j * (n1 // g)) >= h)] = 0.0
    return min(max(1.0 - inside[n1], 0.0), 1.0)
