"""Thomas-Wigner rotation kinematics for composed Lorentz boosts.

Two non-collinear pure boosts compose into a pure boost times a spatial
rotation; this module computes that rotation angle by two closed forms
and by the matrix route.  The matrix route multiplies the two boosts in
SL(2,C), as spinor matrices c I + s.sigma with entries of size
sqrt(gamma), and reads the rotation and the boost factor of the product
from closed forms of its polar decomposition; ``compose_boosts`` returns
both as 4x4 Lorentz matrices.  Its boost factor and ``boost_matrix`` are
one spinor-to-4x4 form, ``_boost_4x4``.

Conventions: c = 1, speeds are dimensionless fractions of the speed of
light, the boosting angle ``phi`` between the two boost directions lies
in [0, pi], and the returned rotation angle ``delta`` is the unsigned
magnitude in [0, pi].  Signed/axis information is only available from
the matrix route.

All angle functions accept scalars or numpy arrays (broadcast like
ufuncs) and are pure, so they are safe to call concurrently.  The matrix
route works on stacks too: velocities are (..., 3) arrays, matrices
(..., 4, 4), and a scalar input is the stack with an empty leading shape.
Every numeric input, velocities included, meets the rule of ``_checked``
or ``_checked_scalar``: it is tested in its own dtype and computed in
float64 (a float array, or a Python float when scalar-only), and non-real,
NaN, infinite or out-of-range values raise ValueError.  Huge finite
matrix entries are valid: ``rotation_axis`` still returns the unit axis,
and ``lorentz_defect`` inf where the residual overflows.

A function has a float path only where a workload calls it on floats:
the three angle routes, ``argmax_boost_angle`` and
``ultra_relativistic_condition`` pick their kernel once per call.  When
one expression finds every argument a float that passes its rule's test,
a float kernel (inline, or ``_*_f`` where other code calls it too)
computes on Python floats; anything else goes through the checkers to
the array kernel.  ``lorentz_gamma``, ``speed_factor_d`` and
``standard_boost_vectors`` have no float path: a float takes the checked
array path.  The float kernel takes the array kernel's operations in its
order: ufuncs are numpy's, their results taken as Python floats
(``float(np.sin(x))``), because ``math.atan``, ``asin``, ``acos`` and
``log2`` can differ in the last bit; squares are products ``x * x`` on
both paths; square roots are ``math.sqrt``, correctly rounded as
``np.sqrt`` is; clips are ``min`` and ``max``.  So the two give the same
bits.  The matrix route has one kernel, ``_matrix_angle``, that takes
the square root of its path and reads the two numbers of the spinor
product that the angle needs, a0 and |q_y|, in closed form.  The tan
form and the matrix route divide by a positive denominator and take the
one-argument ``np.arctan``: on a float it costs a fifth of
``np.arctan2``, which has no scalar fast path.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "MINKOWSKI_METRIC",
    "BoostComposition",
    "argmax_boost_angle",
    "boost_matrix",
    "compose_boosts",
    "equal_speed_ultra_threshold",
    "lorentz_defect",
    "lorentz_gamma",
    "rotation_axis",
    "speed_factor_d",
    "standard_boost_vectors",
    "ultra_phi_interval",
    "ultra_relativistic_condition",
    "wigner_angle_cos_form",
    "wigner_angle_matrix_form",
    "wigner_angle_tan_form",
]

#: Metric tensor diag(+,-,-,-); every Lorentz matrix L satisfies L^T eta L = eta.
MINKOWSKI_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
MINKOWSKI_METRIC.flags.writeable = False


#: Spatial block of the zero-velocity boost.
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False

# Input rules for _checked and _checked_scalar: (test, message).  A test takes a
# float, or an array elementwise, and is False for NaN.
_SPEED = (lambda x: (0.0 <= x) & (x < 1.0), "speed must satisfy 0 <= speed < 1 (units of c)")
_U = (_SPEED[0], "u must satisfy 0 <= u < 1 (units of c)")
_V = (_SPEED[0], "v must satisfy 0 <= v < 1 (units of c)")
_PHI = (lambda x: (0.0 <= x) & (x <= math.pi), "boosting angle must lie in [0, pi]")
_ROTATION = (lambda x: abs(x) < math.inf, "rotation must be finite")
_MATRIX = (_ROTATION[0], "matrix must be finite")
_VELOCITY = (_ROTATION[0], "velocity must be finite")


def _checked(x, rule):
    """x as a float64 array; ValueError unless ``rule``'s test holds everywhere.

    x must be real (bool, integer or float) and is tested in its own dtype,
    so ``np.float32(pi)`` is a valid angle.
    """
    test, message = rule
    try:
        x = np.asarray(x)
    except ValueError:  # numpy refuses a ragged sequence
        pass
    else:
        if x.dtype.kind in "biuf" and test(x).all():
            return x.astype(float, copy=False)
    raise ValueError(f"{message}, got {x}")


def _checked_scalar(x, rule):
    """float(x), after raising ValueError unless x is a real scalar that passes ``rule``'s test."""
    test, message = rule
    if _is_real_scalar(x) and test(x):
        return float(x)
    raise ValueError(f"{message}, got {x}")


def _is_real_scalar(x) -> bool:
    """Whether x is a real 0-d number: a float, int, bool, real numpy scalar or 0-d array.

    Complex numbers, strings, None and ragged sequences are not.
    """
    if isinstance(x, float):
        return True
    try:
        return np.ndim(x) == 0 and np.asarray(x).dtype.kind in "biuf"
    except ValueError:  # numpy refuses a ragged sequence
        return False


def _scalar_or_array(x):
    """Python float for a 0-d result, the array itself otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _work(x, *others):
    """x if it is an array of the broadcast shape of x and ``others``, else a new array.

    The array kernels write into arrays they made, so a long phi costs sin phi and cos phi.
    """
    shape = np.broadcast_shapes(np.shape(x), *map(np.shape, others))
    return x if isinstance(x, np.ndarray) and x.shape == shape else np.empty(shape)


def _sigma(u):
    """Unchecked 1/gamma = sqrt((1 - u)(1 + u)) of a float64-array speed; callers validate ``u``.

    Every angle route works from sigma: no factor cancels as u -> 0, and
    (1 - u)(1 + u) keeps its digits as u -> 1, where 1 - u*u would not.
    """
    return np.sqrt((1.0 - u) * (1.0 + u))


def lorentz_gamma(u):
    """Lorentz factor gamma = 1/sqrt(1 - u^2) for a speed u in units of c."""
    return _scalar_or_array(1.0 / _sigma(_checked(u, _SPEED)))


def speed_factor_d(u, v):
    """Speed factor D = coth(zeta_u/2) coth(zeta_v/2) = (1 + sigma_u)(1 + sigma_v)/(u v).

    zeta is the rapidity and sigma = 1/gamma; D equals
    sqrt((gamma_u+1)(gamma_v+1)/((gamma_u-1)(gamma_v-1))).  D >= 1
    captures the entire speed dependence of the rotation angle, with
    D -> 1 only in the light-speed limit.  Degenerate speeds (u = 0 or
    v = 0) make the rotation vanish identically; that limit is reported
    as +inf rather than an error.  D is +inf only there and where the
    true D overflows (u v below about 2.2e-308).
    """
    return _scalar_or_array(_speed_factor(_checked(u, _U), _checked(v, _V)))


def _speed_factor(u, v):
    """Unchecked D of float64-array speeds; callers validate ``u`` and ``v`` first."""
    with np.errstate(divide="ignore", over="ignore"):
        return (1.0 + _sigma(u)) * (1.0 + _sigma(v)) / (u * v + 0.0)  # + 0.0: -0.0 speeds


def _speed_factor_f(u, v):
    """Float kernel of :func:`_speed_factor`: its operations, in its order."""
    su, sv = math.sqrt((1.0 - u) * (1.0 + u)), math.sqrt((1.0 - v) * (1.0 + v))
    uv = float(u * v) + 0.0  # a Python float, also for np.float64 speeds
    # Python float division overflows to inf silently, but raises at a zero u v.
    return math.inf if uv == 0.0 else (1.0 + su) * (1.0 + sv) / uv


def _direction_f(phi):
    """(sin phi, cos phi) of a float angle in [0, pi], as :func:`_standard_geometry` takes them."""
    return 0.0 if phi == 0.0 or phi == math.pi else float(np.sin(phi)), float(np.cos(phi))


def wigner_angle_cos_form(u, v, phi):
    """Rotation angle from the cosine-form composition formula.

    The standard closed form gives cos(delta) as a quotient of gamma
    factors; rearranging it to the equivalent half-angle expression, with
    sigma = 1/gamma,

        sin(delta/2) = u v sin(phi) / sqrt(2 N),
        N = (1 + sigma_u)(1 + sigma_v)((1 + u v cos phi) + sigma_u sigma_v),

    removes the catastrophic cancellation of evaluating arccos near 1,
    which otherwise costs ~8 digits for small rotation angles.  The two
    expressions are algebraically identical.

    Returns delta in [0, pi], never -0.0: exactly +0 for u = 0, v = 0, phi = 0
    or phi = pi (the float value of pi is treated as exactly collinear).
    """
    if (isinstance(u, float) and isinstance(v, float) and isinstance(phi, float)
            and 0.0 <= u < 1.0 and 0.0 <= v < 1.0 and 0.0 <= phi <= math.pi):
        sin_phi, cos_phi = _direction_f(phi)
        su, sv = math.sqrt((1.0 - u) * (1.0 + u)), math.sqrt((1.0 - v) * (1.0 + v))
        uv = u * v
        den = (1.0 + su) * (1.0 + sv) * ((1.0 + uv * cos_phi) + su * sv)
        sin_half = uv * sin_phi / math.sqrt(2.0 * den)
        return 2.0 * float(np.arcsin(min(max(sin_half, 0.0), 1.0))) + 0.0  # + 0.0: no -0.0
    u, v, (sin_phi, _, cos_phi) = _standard_geometry(u, v, phi)
    su, sv = _sigma(u), _sigma(v)
    uv = u * v
    out = np.multiply(uv, cos_phi, out=_work(cos_phi, u, v))
    out += 1.0
    out += su * sv
    np.multiply((1.0 + su) * (1.0 + sv), out, out=out)  # den, as in the float kernel
    out *= 2.0
    np.sqrt(out, out=out)
    np.divide(np.multiply(uv, sin_phi, out=_work(sin_phi, u, v)), out, out=out)
    np.arcsin(np.clip(out, 0.0, 1.0, out=out), out=out)
    out *= 2.0
    out += 0.0
    return _scalar_or_array(out)


def wigner_angle_tan_form(u, v, phi):
    """Rotation angle from the tangent half-angle form.

    tan(delta/2) = sin(phi) / (cos(phi) + D), by the arctangent of the
    quotient.  The denominator cos(phi) + D >= D - 1 > 0, so no
    two-argument arctangent and no clip is needed, and sin(phi) >= +0
    puts delta in [0, pi).  Degenerate speeds give
    D = +inf and hence delta = 0; so do phi = 0 and phi = pi (the float
    value of pi is treated as exactly collinear).
    """
    if (isinstance(u, float) and isinstance(v, float) and isinstance(phi, float)
            and 0.0 <= u < 1.0 and 0.0 <= v < 1.0 and 0.0 <= phi <= math.pi):
        sin_phi, cos_phi = _direction_f(phi)
        return 2.0 * float(np.arctan(sin_phi / (cos_phi + _speed_factor_f(u, v))))
    u, v, (sin_phi, _, cos_phi) = _standard_geometry(u, v, phi)
    d = _speed_factor(u, v)
    out = np.add(cos_phi, d, out=_work(cos_phi, d))
    np.divide(sin_phi, out, out=out)
    np.arctan(out, out=out)
    out *= 2.0
    return _scalar_or_array(out)


def argmax_boost_angle(u, v):
    """Boosting angle phi* = arccos(-1/D) that maximizes the rotation angle.

    The maximum is unique because delta(phi) is globally concave, and
    phi* > pi/2 always (approaching pi/2 in the slow-speed limit
    D -> inf).  For u = 0 or v = 0 the rotation vanishes for every phi,
    so no maximum exists; that degenerate case raises ValueError.
    """
    if isinstance(u, float) and isinstance(v, float) and 0.0 <= u < 1.0 and 0.0 <= v < 1.0:
        if u != 0.0 and v != 0.0:
            return float(np.arccos(-1.0 / _speed_factor_f(u, v)))
    else:
        u, v = _checked(u, _U), _checked(v, _V)
        d = _speed_factor(u, v)
        if np.all(u != 0.0) and np.all(v != 0.0):
            return _scalar_or_array(np.arccos(-1.0 / d))
    raise ValueError("no rotation: delta vanishes identically when u = 0 or v = 0")


def ultra_relativistic_condition(u, v, phi):
    """True iff the rotation angle reaches delta >= pi/2 for this geometry.

    Evaluated as the branch-safe inequality sin(phi) - cos(phi) >= D.
    Squaring it gives the equivalent-looking 1 - sin(2 phi) >= D^2, but
    the squared form also admits the spurious branch
    sin(phi) - cos(phi) <= -D (phi < pi/4), so it must not be applied
    blindly; the unsquared form is used here.
    """
    if (isinstance(u, float) and isinstance(v, float) and isinstance(phi, float)
            and 0.0 <= u < 1.0 and 0.0 <= v < 1.0 and 0.0 <= phi <= math.pi):
        return float(np.sin(phi)) - float(np.cos(phi)) >= _speed_factor_f(u, v)
    phi, u, v = _checked(phi, _PHI), _checked(u, _U), _checked(v, _V)
    cond = np.sin(phi) - np.cos(phi) >= _speed_factor(u, v)
    return cond if isinstance(cond, np.ndarray) else bool(cond)


def equal_speed_ultra_threshold(phi: float) -> float:
    """Least equal speed u = v at which delta >= pi/2 for a given phi.

    Solves D(u, u) = K, K = sin(phi) - cos(phi), in closed form,
    u = 2 sqrt(K)/(K + 1), then steps one float at a time
    to where ``ultra_relativistic_condition(u, u, phi)`` holds and fails
    one float below.  A sub-luminal solution exists
    only for phi in (pi/2, pi), where sin(phi) - cos(phi) > 1; outside
    that range (e.g. perpendicular boosts, phi = pi/2) the threshold is
    reachable only in the light-speed limit and ValueError is raised.
    So it is at the float value of pi (exactly collinear) and wherever the
    solution rounds to 1, for phi within about 1e-8 of pi/2 or pi.
    ``phi`` is scalar-only (``_checked_scalar``).
    """
    phi = _checked_scalar(phi, _PHI)
    target = math.sin(phi) - math.cos(phi)
    if target > 1.0 and phi != math.pi:
        # the closed form may round to 1 where the float below 1 is the threshold
        u = min(2.0 * math.sqrt(target) / (target + 1.0), math.nextafter(1.0, 0.0))
        while u < 1.0 and not ultra_relativistic_condition(u, u, phi):
            u = math.nextafter(u, 1.0)
        below = math.nextafter(u, 0.0)
        while u < 1.0 and ultra_relativistic_condition(below, below, phi):
            u, below = below, math.nextafter(below, 0.0)
        if u < 1.0:
            return u
    raise ValueError(
        f"delta >= pi/2 is not reachable sub-luminally at phi = {phi!r}: the threshold"
        " speed is below 1 only for phi in (pi/2, pi), not within about 1e-8 of either end"
    )


def ultra_phi_interval(u: float, v: float) -> tuple[float, float] | None:
    """Boosting-angle interval [phi_lo, phi_hi] on which delta >= pi/2.

    Solves sin(phi) - cos(phi) = D, i.e. sqrt(2) sin(phi - pi/4) = D.
    Returns None when D > sqrt(2) (the ultra-relativistic regime is out
    of reach for these speeds); a degenerate interval [3pi/4, 3pi/4]
    when D = sqrt(2) exactly.  ``u`` and ``v`` are scalar-only.
    """
    d = _speed_factor_f(_checked_scalar(u, _U), _checked_scalar(v, _V))
    if d > math.sqrt(2.0):
        return None
    a = math.asin(d / math.sqrt(2.0))
    return (math.pi / 4.0 + a, 5.0 * math.pi / 4.0 - a)


def _dot(a, b):
    """a . b of two component triples (floats or arrays)."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    """a x b of two component triples (floats or arrays)."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _half_rapidity(sigma, sqrt):
    """(cosh(rho/2), sinh(rho/2)/|beta|) of a boost with sigma = 1/gamma; ``sqrt`` fits sigma."""
    return sqrt((1.0 + sigma) / (2.0 * sigma)), 1.0 / sqrt(2.0 * sigma * (1.0 + sigma))


def _spinor_boost(velocity):
    """(c, s) of the SL(2,C) boosts c I + s.sigma; s lists 3 arrays over the leading shape."""
    beta = _checked(velocity, _VELOCITY)
    if np.shape(beta)[-1:] != (3,):
        raise ValueError(f"velocity must have 3 components, got shape {np.shape(beta)}")
    comps = tuple(np.moveaxis(beta, -1, 0))
    with np.errstate(over="ignore"):  # a huge component squares to inf
        b2 = _dot(comps, comps)
    if not (b2 < 1.0).all():
        raise ValueError(f"velocity must be sub-luminal, got |v| = {math.sqrt(np.max(b2))}")
    c, k = _half_rapidity(np.sqrt(1.0 - b2), np.sqrt)
    return c, [k * b for b in comps]


def _boost_4x4(c, s):
    """Pure boosts (..., 4, 4) of the Hermitian spinors c I + s.sigma, c^2 - |s|^2 = 1.

    [[1 + 2|s|^2, -2c s^T], [-2c s, I + 2 s s^T]]; the identity exactly at s = 0.
    """
    mat = np.empty(np.shape(c) + (4, 4))
    mat[..., 0, 0] = 1.0 + 2.0 * _dot(s, s)
    s = np.stack(s, axis=-1)
    mat[..., 0, 1:] = mat[..., 1:, 0] = -2.0 * np.expand_dims(c, -1) * s
    mat[..., 1:, 1:] = 2.0 * (s[..., :, None] * s[..., None, :]) + _EYE3
    return mat


def boost_matrix(velocity) -> np.ndarray:
    """Pure Lorentz boosts (..., 4, 4), symmetric, for (..., 3) velocities in units of c.

    ``_boost_4x4`` of the spinor boost (``_spinor_boost``), as for the
    boost factor of ``compose_boosts``: gamma = 1 + 2|s|^2, with no
    (gamma - 1)/beta^2 cancellation at small speeds, and the identity
    exactly at zero velocity.
    """
    return _boost_4x4(*_spinor_boost(velocity))


def _spinor_product(first, second):
    """(a0, q) of the SL(2,C) product A(second) A(first) = a0 I + (p + i q).sigma.

    ``first`` and ``second`` are (c, s) pairs of boosts A = c I + s.sigma
    with c = cosh(rho/2) = sqrt((gamma+1)/2) and s = sinh(rho/2) n =
    gamma beta / sqrt(2 (gamma+1)): entries of size sqrt(gamma), and no
    cancellation at small speeds.  The product has a0 = c1 c2 + s1.s2,
    p = c1 s2 + c2 s1 and q = s2 x s1; p.q = 0 and
    a0^2 + |q|^2 - |p|^2 = det = 1.  Only ``compose_boosts`` needs p, and forms it.
    """
    (c1, s1), (c2, s2) = first, second
    return c1 * c2 + _dot(s1, s2), _cross(s2, s1)


class BoostComposition(NamedTuple):
    """Factorization of a composed boost: product = boost @ rotation.

    For scalar inputs the matrices are 4x4 and the angle a float; for
    stacked inputs every field carries the same leading shape.
    """

    boost: np.ndarray      # pure boost, (..., 4, 4) symmetric
    rotation: np.ndarray   # 1 (+) 3x3 spatial rotation, (..., 4, 4)
    angle: float           # rotation angle in [0, pi], float or (...) array


_AXIAL_ROWS, _AXIAL_COLS = np.array([2, 0, 1]), np.array([1, 2, 0])


def compose_boosts(first, second) -> BoostComposition:
    """Compose two pure boosts and factor the product as boost x rotation.

    ``first`` is applied first: the product is B(second) @ B(first).
    The composition runs in SL(2,C), where the product of the two spinor
    boosts is A = a0 I + (p + i q).sigma (``_spinor_product``).  Its
    polar factors are read off in closed form: the unitary one is the
    unit quaternion (a0, q)/N, N = sqrt(a0^2 + |q|^2), and the Hermitian
    one is N I + m.sigma with m = (a0 p + p x q)/N.  In 4x4 form,

        boost    = [[1 + 2|m|^2, -2N m^T], [-2N m, I + 2 m m^T]],
        rotation = 1 (+) ((w^2 - |r|^2) I + 2 r r^T - 2 w [r]x),

    with w = a0/N and r = q/N, and the angle is 2 atan2(|q|, a0), in
    [0, pi) as a0 > 0; |q| is a hypot, so it does not underflow.  The
    spinor entries have size sqrt(gamma), so no composed speed is formed
    that could round to 1, and nothing is inverted or decomposed.

    Velocities may be (..., 3) stacks that broadcast against each other;
    every composition in the stack is factored in one pass.  Collinear
    inputs give the identity rotation and angle 0.  Exchanging the
    arguments keeps the angle and reverses the rotation axis.
    """
    (c1, s1), (c2, s2) = _spinor_boost(first), _spinor_boost(second)
    a0, q = _spinor_product((c1, s1), (c2, s2))
    p = (c1 * s2[0] + c2 * s1[0], c1 * s2[1] + c2 * s1[1], c1 * s2[2] + c2 * s1[2])
    n = np.sqrt(a0 * a0 + _dot(q, q))
    m = [(a0 * pk + ck) / n for pk, ck in zip(p, _cross(p, q))]
    w = a0 / n
    boost = _boost_4x4(n, m)
    r = [qk / n for qk in q]
    cos_angle = w * w - _dot(r, r)
    r = np.stack(r, axis=-1)
    wr = 2.0 * np.expand_dims(w, -1) * r
    rotation = np.zeros_like(boost)
    rotation[..., 0, 0] = 1.0
    spatial = 2.0 * (r[..., :, None] * r[..., None, :])
    spatial += np.expand_dims(cos_angle, (-2, -1)) * _EYE3
    spatial[..., _AXIAL_ROWS, _AXIAL_COLS] -= wr
    spatial[..., _AXIAL_COLS, _AXIAL_ROWS] += wr
    rotation[..., 1:, 1:] = spatial
    angle = 2.0 * np.arctan2(np.hypot(np.hypot(q[0], q[1]), q[2]), a0)
    return BoostComposition(boost, rotation, _scalar_or_array(angle))


def rotation_axis(rotation: np.ndarray) -> np.ndarray:
    """Unit rotation axes (..., 3) of (..., 4, 4) or (..., 3, 3) rotation matrices.

    Extracted from the antisymmetric part; gives the zero vector where
    the rotation is too close to the identity for the axis to be defined
    (angle below ~1e-12).  Huge finite entries give the true unit axis.
    Non-finite entries or other shapes raise ValueError.
    """
    rotation = _checked(rotation, _ROTATION)
    if rotation.shape[-2:] not in ((3, 3), (4, 4)):
        raise ValueError(f"rotation must be 3x3 or 4x4, got shape {rotation.shape}")
    r3 = rotation[..., 1:, 1:] if rotation.shape[-2:] == (4, 4) else rotation
    # a quarter of the axial vector (r32 - r23, r13 - r31, r21 - r12), so that neither
    # the differences nor the hypot norm overflow; exact above the subnormals
    vec = 0.25 * r3[..., _AXIAL_ROWS, _AXIAL_COLS] - 0.25 * r3[..., _AXIAL_COLS, _AXIAL_ROWS]
    norm = np.hypot(np.hypot(vec[..., 0], vec[..., 1]), vec[..., 2])[..., None]
    defined = norm >= 0.25e-12
    return np.where(defined, vec / np.where(defined, norm, 1.0), 0.0)


def _standard_geometry(u, v, phi):
    """Checked u and v, and the unit direction (sin phi, 0, cos phi) of v, for the array kernels.

    Each comes from ``_checked`` as a float64 array; sin phi is a new
    array of phi's shape.  It is exactly +0 at
    phi = 0 (also -0.0) and at the float value of pi, which counts as
    exactly collinear, and so does np.float32(pi), which passes the range
    check but lies above pi in float64; elsewhere on [0, pi] sin phi lies
    in [0, 1] unclipped.
    """
    u, v, phi = _checked(u, _U), _checked(v, _V), _checked(phi, _PHI)
    # masked in place: np.where would hold a second full-size sin array
    sin_phi = np.sin(phi, out=np.zeros_like(phi), where=(phi != 0.0) & (phi < math.pi))
    return u, v, (sin_phi, 0.0, np.cos(phi))


def standard_boost_vectors(u, v, phi) -> tuple[np.ndarray, np.ndarray]:
    """Velocity vectors (..., 3) realizing the standard geometry.

    The particle boost u points along +z and the observer boost v lies
    in the x-z plane at angle phi from the z axis, so the induced
    rotation is about the y axis.  u, v and phi broadcast together; both
    vector stacks carry their common shape.  The float value of pi counts
    as exactly collinear: there the x component is exactly 0.
    """
    u, v, (nx, _, nz) = _standard_geometry(u, v, phi)
    shape = np.broadcast_shapes(np.shape(u), np.shape(v), np.shape(nz))
    u_vec = np.zeros(shape + (3,))
    u_vec[..., 2] = u
    v_vec = np.zeros(shape + (3,))
    v_vec[..., 0] = v * nx
    v_vec[..., 2] = v * nz
    return u_vec, v_vec


def wigner_angle_matrix_form(u, v, phi):
    """Rotation angle of the boost composition in the standard geometry.

    Composes the two boosts of ``standard_boost_vectors`` in SL(2,C), as
    ``compose_boosts`` does, and takes only the angle, without forming a
    4x4 matrix or a spinor vector (``_matrix_angle``).  Each spinor boost
    is built from its exact speed and unit direction, (0, 0, 1) for u and
    (sin phi, 0, cos phi) for v, so no rounded velocity component enters
    1 - |beta|^2.  Broadcasts over u, v and phi like the closed forms, and
    like them returns exactly 0 for u = 0, v = 0, phi = 0 or phi = pi (the
    float value of pi is treated as exactly collinear).
    """
    if (isinstance(u, float) and isinstance(v, float) and isinstance(phi, float)
            and 0.0 <= u < 1.0 and 0.0 <= v < 1.0 and 0.0 <= phi <= math.pi):
        sin_phi, cos_phi = _direction_f(phi)
        return float(_matrix_angle(u, v, sin_phi, cos_phi, math.sqrt))
    u, v, (sin_phi, _, cos_phi) = _standard_geometry(u, v, phi)
    return _scalar_or_array(_matrix_angle(u, v, sin_phi, cos_phi, np.sqrt))


def _matrix_angle(u, v, sin_phi, cos_phi, sqrt):
    """Unchecked angle of the matrix route, one kernel for both paths; ``sqrt`` fits u and v.

    The ``_spinor_product`` of the boosts c1 I + x1 sigma_z and c2 I +
    x2 (sin phi sigma_x + cos phi sigma_z), x = k u = sinh(rho/2) of
    ``_half_rapidity``, has a0 = c1 c2 + x1 x2 cos phi and q = (0, -x1 x2
    sin phi, 0): formed here by its operations in its order, less terms
    that are exact zeros.  |q_y| does not underflow as q . q would below
    about 1e-154, and ``abs`` keeps the angle of a -0.0 speed at +0.
    a0 >= c1 c2 - x1 x2 >= 1, so 2 atan2(|q_y|, a0) is 2 arctan(|q_y|/a0).
    """
    c1, k1 = _half_rapidity(sqrt((1.0 - u) * (1.0 + u)), sqrt)
    c2, k2 = _half_rapidity(sqrt((1.0 - v) * (1.0 + v)), sqrt)
    x1, x2 = k1 * u, k2 * v
    return 2.0 * np.arctan(abs(x2 * sin_phi * x1) / (c1 * c2 + x1 * (x2 * cos_phi)))


def lorentz_defect(mat: np.ndarray):
    """Max-abs deviation of L^T eta L from eta over the last two axes.

    0 for an exact Lorentz matrix; a float for one 4x4 matrix, an array
    over the leading axes of a stack.  A residual that overflows gives inf
    silently; non-finite entries raise ValueError.
    """
    mat = _checked(mat, _MATRIX)
    if mat.shape[-2:] != (4, 4):
        raise ValueError(f"matrix must be 4x4, got shape {mat.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow, then inf - inf = NaN
        residual = np.swapaxes(mat, -1, -2) @ MINKOWSKI_METRIC @ mat - MINKOWSKI_METRIC
        defect = np.abs(residual).max(axis=(-2, -1))
    return _scalar_or_array(np.where(np.isnan(defect), math.inf, defect))
