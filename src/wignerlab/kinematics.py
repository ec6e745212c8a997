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
Every numeric input, velocities included, passes ``_checked`` or
``_checked_scalar``: a float (``np.float64`` included) is kept, anything
else is tested in its own dtype and computed in float64, and non-real,
NaN, infinite or out-of-range values raise ValueError.  Huge finite
matrix entries are valid: ``rotation_axis`` still returns the unit axis,
and ``lorentz_defect`` inf where the residual overflows.  A float
argument skips numpy's 0-d array machinery but evaluates the same ufunc
expressions, so it gives the array bits.  ``wigner_angle_matrix_form``
takes the same arithmetic with float and array speeds; ``math.sqrt`` and
``np.sqrt`` are both correctly rounded, so the bits agree there too.
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
    """x as a float or a float64 array; ValueError unless ``rule``'s test holds everywhere.

    A float is tested and returned as it is.  Anything else must be real
    (bool, integer or float) and is tested in its own dtype, so
    ``np.float32(pi)`` is a valid angle, then returned as a float64 array.
    """
    test, message = rule
    if isinstance(x, float):
        if test(x):
            return x
    else:
        x = np.asarray(x)
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

    Complex numbers, strings and None are not.
    """
    return isinstance(x, float) or (np.ndim(x) == 0 and np.asarray(x).dtype.kind in "biuf")


def _scalar_or_array(x):
    """Python float for a 0-d result, the array itself otherwise."""
    return float(x) if isinstance(x, float) or np.ndim(x) == 0 else x


def _clip(x, upper):
    """x clipped into [0, upper]: min/max for a float, np.clip otherwise."""
    if isinstance(x, float):
        return min(max(x, 0.0), upper)
    return np.clip(x, 0.0, upper)


def _gamma(u):
    """Unchecked Lorentz factor of a float or array speed; callers validate ``u`` first."""
    return 1.0 / _sqrt(1.0 - u * u)


def lorentz_gamma(u):
    """Lorentz factor gamma = 1/sqrt(1 - u^2) for a speed u in units of c."""
    return _scalar_or_array(_gamma(_checked(u, _SPEED)))


def speed_factor_d(u, v):
    """Speed factor D = sqrt((gamma_u+1)(gamma_v+1)/((gamma_u-1)(gamma_v-1))).

    D >= 1 captures the entire speed dependence of the rotation angle,
    with D -> 1 only in the light-speed limit.  Degenerate speeds
    (u = 0 or v = 0) make the rotation vanish identically; that limit is
    reported as +inf rather than an error, and so is a speed so small
    (below ~1e-154) that num/den overflows.  gamma - 1 is taken as
    u^2 gamma^2/(gamma + 1), which does not cancel at small speeds.
    """
    return _speed_factor(_checked(u, _U), _checked(v, _V))


def _speed_factor(u, v):
    """Unchecked D of float or float64-array speeds; callers validate ``u`` and ``v`` first."""
    gu, gv = _gamma(u), _gamma(v)
    num = (gu + 1.0) * (gv + 1.0)
    den = (np.square(u) * gu * gu / (gu + 1.0)) * (np.square(v) * gv * gv / (gv + 1.0))
    if isinstance(den, float):
        # den is 0 for a zero (or underflowing) speed: D = +inf.  Python
        # float division overflows to inf silently, without np.errstate.
        return math.inf if den == 0.0 else math.sqrt(float(num) / float(den))
    with np.errstate(divide="ignore", over="ignore"):
        return np.sqrt(num / den)


def wigner_angle_cos_form(u, v, phi):
    """Rotation angle from the cosine-form composition formula.

    The standard closed form gives cos(delta) as a quotient of gamma
    factors; rearranging it to the equivalent half-angle expression

        sin(delta/2) = gamma_u gamma_v u v sin(phi) / sqrt(2 N),
        N = (gamma_u+1)(gamma_v+1)(gamma_u gamma_v (1 + u v cos phi) + 1),

    removes the catastrophic cancellation of evaluating arccos near 1,
    which otherwise costs ~8 digits for small rotation angles.  The two
    expressions are algebraically identical.

    Returns delta in [0, pi], never -0.0: exactly +0 for u = 0, v = 0, phi = 0
    or phi = pi (the float value of pi is treated as exactly collinear).
    """
    u, v, (sin_phi, _, cos_phi) = _standard_geometry(u, v, phi)
    gu, gv = _gamma(u), _gamma(v)
    w = gu * gv * (1.0 + u * v * cos_phi)
    den = (gu + 1.0) * (gv + 1.0) * (w + 1.0)
    sin_half = gu * gv * u * v * sin_phi / np.sqrt(2.0 * den)
    return _scalar_or_array(2.0 * np.arcsin(_clip(sin_half, 1.0)) + 0.0)  # + 0.0: no -0.0


def wigner_angle_tan_form(u, v, phi):
    """Rotation angle from the tangent half-angle form.

    tan(delta/2) = sin(phi) / (cos(phi) + D), by the two-argument
    arctangent.  No clip is needed: cos(phi) + D >= D - 1 > 0 and
    sin(phi) >= +0, so delta lies in [0, pi).  Degenerate speeds give
    D = +inf and hence delta = 0; so do phi = 0 and phi = pi (the float
    value of pi is treated as exactly collinear).
    """
    u, v, (sin_phi, _, cos_phi) = _standard_geometry(u, v, phi)
    return _scalar_or_array(2.0 * np.arctan2(sin_phi, cos_phi + _speed_factor(u, v)))


def argmax_boost_angle(u, v):
    """Boosting angle phi* = arccos(-1/D) that maximizes the rotation angle.

    The maximum is unique because delta(phi) is globally concave, and
    phi* > pi/2 always (approaching pi/2 in the slow-speed limit
    D -> inf).  For u = 0 or v = 0 the rotation vanishes for every phi,
    so no maximum exists; that degenerate case raises ValueError.
    """
    u, v = _checked(u, _U), _checked(v, _V)
    d = _speed_factor(u, v)
    if isinstance(d, float):
        degenerate = u == 0.0 or v == 0.0
    else:  # one of u and v may still be a float
        degenerate = (np.asarray(u) == 0.0).any() or (np.asarray(v) == 0.0).any()
    if degenerate:
        raise ValueError("no rotation: delta vanishes identically when u = 0 or v = 0")
    return _scalar_or_array(np.arccos(-1.0 / d))


def ultra_relativistic_condition(u, v, phi):
    """True iff the rotation angle reaches delta >= pi/2 for this geometry.

    Evaluated as the branch-safe inequality sin(phi) - cos(phi) >= D.
    Squaring it gives the equivalent-looking 1 - sin(2 phi) >= D^2, but
    the squared form also admits the spurious branch
    sin(phi) - cos(phi) <= -D (phi < pi/4), so it must not be applied
    blindly; the unsquared form is used here.
    """
    phi = _checked(phi, _PHI)
    cond = np.sin(phi) - np.cos(phi) >= speed_factor_d(u, v)
    return bool(cond) if cond.ndim == 0 else cond


def equal_speed_ultra_threshold(phi: float) -> float:
    """Least equal speed u = v at which delta >= pi/2 for a given phi.

    Solves D(u, u) = sin(phi) - cos(phi).  A sub-luminal solution exists
    only for phi in (pi/2, pi), where sin(phi) - cos(phi) > 1; outside
    that range (e.g. perpendicular boosts, phi = pi/2) the threshold is
    reachable only in the light-speed limit and ValueError is raised.
    ``phi`` is scalar-only (``_checked_scalar``).
    """
    phi = _checked_scalar(phi, _PHI)
    target = math.sin(phi) - math.cos(phi)
    if target <= 1.0:
        raise ValueError(
            "delta >= pi/2 is not reachable sub-luminally for phi <= pi/2"
        )
    gamma = (target + 1.0) / (target - 1.0)
    return math.sqrt(1.0 - 1.0 / (gamma * gamma))


def ultra_phi_interval(u: float, v: float) -> tuple[float, float] | None:
    """Boosting-angle interval [phi_lo, phi_hi] on which delta >= pi/2.

    Solves sin(phi) - cos(phi) = D, i.e. sqrt(2) sin(phi - pi/4) = D.
    Returns None when D > sqrt(2) (the ultra-relativistic regime is out
    of reach for these speeds); a degenerate interval [3pi/4, 3pi/4]
    when D = sqrt(2) exactly.  ``u`` and ``v`` are scalar-only.
    """
    d = _speed_factor(_checked_scalar(u, _U), _checked_scalar(v, _V))
    if d > math.sqrt(2.0):
        return None
    a = math.asin(d / math.sqrt(2.0))
    return (math.pi / 4.0 + a, 5.0 * math.pi / 4.0 - a)


def _sqrt(x):
    """math.sqrt for a float, np.sqrt otherwise: both round correctly, so the bits agree."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _dot(a, b):
    """a . b of two component triples (floats or arrays)."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    """a x b of two component triples (floats or arrays)."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _half_rapidity(g):
    """(cosh(rho/2), sinh(rho/2)/|beta|) of a boost with Lorentz factor g."""
    return _sqrt((g + 1.0) / 2.0), g / _sqrt(2.0 * (g + 1.0))


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
    c, k = _half_rapidity(1.0 / np.sqrt(1.0 - b2))
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


def _spinor_boost_along(speed, direction):
    """(c, s) of the SL(2,C) boost with |beta| = speed along a unit direction triple.

    gamma is taken from the speed itself, not from a sum over rounded
    velocity components, so 1 - |beta|^2 stays accurate as speed -> 1.
    """
    c, k = _half_rapidity(_gamma(speed))
    k = k * speed
    return c, [k * n for n in direction]


def _spinor_product(first, second):
    """(a0, p, q) of the SL(2,C) product A(second) A(first) = a0 I + (p + i q).sigma.

    ``first`` and ``second`` are (c, s) pairs of boosts A = c I + s.sigma
    with c = cosh(rho/2) = sqrt((gamma+1)/2) and s = sinh(rho/2) n =
    gamma beta / sqrt(2 (gamma+1)): entries of size sqrt(gamma), and no
    cancellation at small speeds.  The product has a0 = c1 c2 + s1.s2,
    p = c1 s2 + c2 s1 and q = s2 x s1; p.q = 0 and
    a0^2 + |q|^2 - |p|^2 = det = 1.
    """
    (c1, s1), (c2, s2) = first, second
    p = tuple(c1 * b + c2 * a for a, b in zip(s1, s2))
    return c1 * c2 + _dot(s1, s2), p, _cross(s2, s1)


def _rotation_angle(a0, qq):
    """delta = 2 atan2(|q|, a0), from a0 and |q|^2 of the spinor product.

    a0 > 0, so delta lies in [0, pi); no large numbers are subtracted.
    """
    return _scalar_or_array(2.0 * np.arctan2(_sqrt(qq), a0))


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

    with w = a0/N and r = q/N, and the angle is 2 atan2(|q|, a0).  The
    spinor entries have size sqrt(gamma), so no composed speed is formed
    that could round to 1, and nothing is inverted or decomposed.

    Velocities may be (..., 3) stacks that broadcast against each other;
    every composition in the stack is factored in one pass.  Collinear
    inputs give the identity rotation and angle 0.  Exchanging the
    arguments keeps the angle and reverses the rotation axis.
    """
    a0, p, q = _spinor_product(_spinor_boost(first), _spinor_boost(second))
    qq = _dot(q, q)
    n = _sqrt(a0 * a0 + qq)
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
    return BoostComposition(boost, rotation, _rotation_angle(a0, qq))


def rotation_axis(rotation: np.ndarray) -> np.ndarray:
    """Unit rotation axes (..., 3) of (..., 4, 4) or (..., 3, 3) rotation matrices.

    Extracted from the antisymmetric part; gives the zero vector where
    the rotation is too close to the identity for the axis to be defined
    (angle below ~1e-12).  Huge finite entries give the true unit axis.
    Non-finite entries or other shapes raise ValueError.
    """
    rotation = np.asarray(_checked(rotation, _ROTATION))
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
    """Validated u and v, and the unit direction (sin phi, 0, cos phi) of v.

    Each stays a float when given as one, and becomes a float64 array
    otherwise (``_checked``).  sin phi is exactly +0 at phi = 0 (also -0.0)
    and at the float value of pi, which counts as exactly collinear, and
    so does np.float32(pi), which passes the range check but lies above
    pi in float64; elsewhere on [0, pi] sin phi lies in [0, 1] unclipped.
    """
    u, v, phi = _checked(u, _U), _checked(v, _V), _checked(phi, _PHI)
    if isinstance(phi, float):
        sin_phi = 0.0 if phi == 0.0 or phi == math.pi else np.sin(phi)
    else:
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
    4x4 matrix.  Each spinor boost is built from its exact speed and unit
    direction, (0, 0, 1) for u and (sin phi, 0, cos phi) for v, so no
    rounded velocity component enters 1 - |beta|^2.  Broadcasts over u,
    v and phi like the closed forms, and like them returns exactly 0 for
    u = 0, v = 0, phi = 0 or phi = pi (the float value of pi is treated
    as exactly collinear).
    """
    u, v, direction = _standard_geometry(u, v, phi)
    a0, _, q = _spinor_product(
        _spinor_boost_along(u, (0.0, 0.0, 1.0)), _spinor_boost_along(v, direction)
    )
    return _rotation_angle(a0, _dot(q, q))


def lorentz_defect(mat: np.ndarray):
    """Max-abs deviation of L^T eta L from eta over the last two axes.

    0 for an exact Lorentz matrix; a float for one 4x4 matrix, an array
    over the leading axes of a stack.  A residual that overflows gives inf
    silently; non-finite entries raise ValueError.
    """
    mat = np.asarray(_checked(mat, _MATRIX))
    if mat.shape[-2:] != (4, 4):
        raise ValueError(f"matrix must be 4x4, got shape {mat.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow, then inf - inf = NaN
        residual = np.swapaxes(mat, -1, -2) @ MINKOWSKI_METRIC @ mat - MINKOWSKI_METRIC
        defect = np.abs(residual).max(axis=(-2, -1))
    return _scalar_or_array(np.where(np.isnan(defect), math.inf, defect))
