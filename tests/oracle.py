"""60-digit mpmath references for the rotation-angle quantities.

Each reference is evaluated at the exact binary values of its float
arguments, by formulas that share no algebra with the library's kernels:
D = coth(zeta_u/2) coth(zeta_v/2) from the rapidities zeta = atanh(u),
the angle from tan(delta/2) = sin(phi)/(cos(phi) + D), and the maximizing
boosting angle phi* = arccos(-1/D).  Degenerate speeds (u = 0 or v = 0)
have no finite D and are not accepted.
"""

import mpmath

DIGITS = 60


def speed_factor(u, v):
    """D(u, v) as an mpmath number."""
    with mpmath.workdps(DIGITS):
        return mpmath.coth(mpmath.atanh(mpmath.mpf(u)) / 2) * mpmath.coth(
            mpmath.atanh(mpmath.mpf(v)) / 2
        )


def rotation_angle(u, v, phi):
    """delta(u, v, phi) as an mpmath number."""
    with mpmath.workdps(DIGITS):
        phi = mpmath.mpf(phi)
        return 2 * mpmath.atan2(mpmath.sin(phi), mpmath.cos(phi) + speed_factor(u, v))


def argmax_angle(u, v):
    """phi*(u, v) = arccos(-1/D) as an mpmath number."""
    with mpmath.workdps(DIGITS):
        return mpmath.acos(-1 / speed_factor(u, v))


def relative_error(value, exact):
    """|value - exact| / |exact| as a float."""
    with mpmath.workdps(DIGITS):
        return float(abs((mpmath.mpf(value) - exact) / exact))
