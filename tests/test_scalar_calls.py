"""Scalar calls against array calls: same bits, same errors, Python types.

Where a function has a float path, a float argument is validated, masked
and clipped with plain Python operations; any other argument, and every
argument of ``lorentz_gamma``, ``speed_factor_d``,
``standard_boost_vectors``, ``binary_entropy`` and ``rest_frame_entropy``
(which have no float path), goes through a float64 array.  Both
evaluate the same ufunc expressions, so for every input type a result
must agree to the bit (compared with ``float.hex``) with the call on a
whole array of the same values, a rejected input must give the same
message, and a scalar call must return a Python ``float`` (``bool`` for
the ultra-relativistic condition).  A ``np.float32``, ``np.float16`` or
``bool`` input is computed in float64, so it must agree with the float
call on its float64 value; the same holds when a float argument meets
an array one.

Inputs are seeded values plus an edge grid: speeds at and next to 0 and
1, angles at and next to 0 and pi, and the 0 log 0 and gap = 0 or 1
corners of the entropies.  A hypothesis property adds random float
inputs in each regime (``test_random_floats_agree_to_the_bit``).

Each scalar entry point with a float path (``FAST_CALLS``) tests
all-float arguments in one expression and calls the checkers only when
it fails: an all-float call makes no checker call, a 0-d array call one
per argument, and both give the same result
(``test_all_float_calls_skip_the_checkers``).  The test picks the kernel
once per call: an all-float call runs the float kernel and never an array
kernel, and a 0-d array call runs an array kernel
(``test_all_float_calls_skip_the_array_kernels``).  The five entry points
with no float path (``CHECKED_CALLS``) make one checker call per float
argument and reach an array kernel, as a 0-d array call does
(``test_float_calls_without_a_float_path_run_the_checkers`` and
``..._run_the_array_kernels``).  The tan form and the
matrix route never call ``np.arctan2`` (``test_positive_denominators_skip_arctan2``).
The rejection table holds
the floats just outside each rule, so a fast test that is looser than
its rule fails there.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wignerlab.entanglement as ent
import wignerlab.kinematics as kin
import wignerlab.states as st_mod
from wignerlab.states import HelicityClass, boost_state, prepare_state

_RNG = np.random.default_rng(20261018)
SPEEDS = (0.0, 1e-300, 1e-170, 1e-8, 1.0 - 1e-15, math.nextafter(1.0, 0.0)) + tuple(
    _RNG.uniform(0.0, 1.0, 5).tolist()
)
ANGLES = (0.0, 1e-300, math.nextafter(math.pi, 0.0), math.pi) + tuple(
    _RNG.uniform(0.0, math.pi, 4).tolist()
)
ETAS = (0.0, 1e-300, 1e-8, math.pi / 4, math.pi / 2, 3.0) + tuple(
    _RNG.uniform(0.0, 2.0 * math.pi, 4).tolist()
) + (1.0,)
DELTAS = (0.0, 1e-300, 1e-8, math.pi / 2, math.nextafter(math.pi, 0.0), math.pi) + tuple(
    _RNG.uniform(0.0, math.pi, 4).tolist()
)
PROBABILITIES = (0.0, 1e-300, 0.5, math.nextafter(1.0, 0.0), 1.0, -0.5, 1.5) + tuple(
    _RNG.uniform(0.0, 1.0, 4).tolist()
)


# Every way a caller can hand over one value (None: not representable).
KINDS = {
    "float": float,
    "float64": np.float64,
    "int": lambda x: int(x) if x.is_integer() else None,
    "0-d array": np.asarray,
    "1-element array": lambda x: np.array([x]),
    "float32": np.float32,
    "float16": np.float16,
    "bool": lambda x: bool(x) if x in (0.0, 1.0) else None,
}
SCALAR_KINDS = ("float", "float64", "0-d array")

ROUTES = {
    "tan": (kin.wigner_angle_tan_form, 3),
    "cos": (kin.wigner_angle_cos_form, 3),
    "matrix": (kin.wigner_angle_matrix_form, 3),
    "ultra": (kin.ultra_relativistic_condition, 3),
    "D": (kin.speed_factor_d, 2),
    "argmax": (kin.argmax_boost_angle, 2),
    "gamma": (kin.lorentz_gamma, 1),
}
ENTROPIES = {
    **{
        f"closed-{cls.value}": (
            lambda eta, delta, cls=cls: ent.boosted_entropy_closed_form(eta, delta, cls),
            (ETAS, DELTAS),
        )
        for cls in HelicityClass
    },
    **{
        f"rest-{cls.value}": (lambda eta, cls=cls: ent.rest_frame_entropy(eta, cls), (ETAS,))
        for cls in HelicityClass
    },
    "derivative": (ent.boosted_entropy_derivative, (ETAS, DELTAS)),
    "binary": (ent.binary_entropy, (PROBABILITIES,)),
}


def _route_inputs(arity):
    return list(itertools.product(*((SPEEDS, SPEEDS, ANGLES)[:arity])))


def _bits(result):
    """Hex digits of every element (bools as themselves)."""
    values = np.asarray(result).ravel().tolist()
    return [v.hex() if isinstance(v, float) else v for v in values]


def _outcome(call, args):
    """('ok', bits) or ('error', message up to its ", got <value>" tail)."""
    try:
        return "ok", _bits(call(*args))
    except ValueError as exc:
        return "error", str(exc).split(", got ")[0]


def _as_float(x, angle):
    """The float64 value of a converted input, as a Python float.

    ``np.float32(pi)`` passes the angle range test in its own dtype but
    lies above pi in float64, where it counts as exactly collinear; as an
    ``angle`` it reads as pi.
    """
    value = np.asarray(x, dtype=float).item()
    return math.pi if angle and value == float(np.float32(math.pi)) else value


def _check_agreement(call, inputs, kind, angles=False):
    """Each call on converted scalars matches the one call on whole arrays.

    A converted value is compared with the float call on its float64 value
    (``_as_float``; ``angles`` when the inputs are range-tested angles).
    The same rows also come back from one mixed call, with the first
    argument a float and the others arrays.
    """
    convert = KINDS[kind]
    expected = [_outcome(call, args) for args in inputs]
    good = [args for args, (status, _) in zip(inputs, expected) if status == "ok"]
    assert good, "no accepted input"
    columns = [np.array(column) for column in zip(*good)]
    stacked = _bits(call(*columns))
    assert [bits for status, bits in expected if status == "ok"] == [[b] for b in stacked]
    if len(good[0]) > 1:
        first = good[0][0]
        rows = [k for k, args in enumerate(good) if args[0] == first]
        mixed = call(first, *(column[rows] for column in columns[1:]))
        assert _bits(mixed) == [stacked[k] for k in rows]
    compared = 0
    for args, want in zip(inputs, expected):
        converted = [convert(x) for x in args]
        if any(x is None for x in converted):
            continue
        floats = tuple(_as_float(x, angles) for x in converted)
        if floats != args:
            want = _outcome(call, floats)
        assert _outcome(call, converted) == want, (kind, args)
        if kind == "float32" and want[0] == "ok":
            result = call(*(np.array([x]) for x in converted))
            assert np.asarray(result).dtype in (np.float64, np.bool_), (kind, args)
        compared += 1
    return compared


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("route", list(ROUTES))
def test_routes_agree_to_the_bit(route, kind):
    call, arity = ROUTES[route]
    assert _check_agreement(call, _route_inputs(arity), kind, angles=True) > 0


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("name", list(ENTROPIES))
def test_entropies_agree_to_the_bit(name, kind):
    call, grids = ENTROPIES[name]
    assert _check_agreement(call, list(itertools.product(*grids)), kind) > 0


def test_von_neumann_entropy_sums_like_np_sum():
    """The two eigenvalue terms add in np.sum's order, so the bits match it."""
    for cls, eta, delta in itertools.product(HelicityClass, ETAS[:6], DELTAS):
        state = boost_state(prepare_state(cls, eta), delta)
        for keep in ("spin", "momentum"):
            rho = ent.reduced_density_matrix(state, keep)
            lam = ent.density_eigenvalues(rho)
            terms = np.where(lam > 0.0, lam * np.log2(np.where(lam > 0.0, lam, 1.0)), 0.0)
            reference = float(-np.sum(terms) + 0.0)
            assert ent.von_neumann_entropy(rho).hex() == reference.hex()


BAD_SPEEDS = (math.nan, math.inf, -math.inf, -0.1, -1e-300, -5e-324, 1.0, 4.0)
BAD_ANGLES = (
    math.nan, math.inf, -math.inf, -0.1, -5e-324, math.pi + 1e-15, math.nextafter(math.pi, 4.0), 4.0
)
BAD_ETAS = (math.nan, math.inf, -math.inf, -0.1, -5e-324, 2.0 * math.pi, 7.0)
BAD_FINITE = (math.nan, math.inf, -math.inf)
_REST_STATE = prepare_state(HelicityClass.EQUAL_PLUS, 0.6)
BAD_CALLS = [
    *(
        (f"{name}-u", lambda x, call=call, n=n: call(*(x, 0.5, 1.0)[:n]),
         "u must satisfy 0 <= u < 1 (units of c)", BAD_SPEEDS)
        for name, (call, n) in ROUTES.items() if n > 1
    ),
    *(
        (f"{name}-v", lambda x, call=call, n=n: call(*(0.5, x, 1.0)[:n]),
         "v must satisfy 0 <= v < 1 (units of c)", BAD_SPEEDS)
        for name, (call, n) in ROUTES.items() if n > 1
    ),
    *(
        (f"{name}-phi", lambda x, call=call: call(0.5, 0.5, x),
         "boosting angle must lie in [0, pi]", BAD_ANGLES)
        for name, (call, n) in ROUTES.items() if n == 3
    ),
    # every argument bad: each route checks u first, the condition phi first
    *(
        (f"{name}-all", lambda x, call=call: call(x, x, x),
         "boosting angle must lie in [0, pi]" if name == "ultra"
         else "u must satisfy 0 <= u < 1 (units of c)", BAD_FINITE + (4.0,))
        for name, (call, n) in ROUTES.items() if n == 3
    ),
    ("gamma", kin.lorentz_gamma, "speed must satisfy 0 <= speed < 1 (units of c)", BAD_SPEEDS),
    ("prepare", lambda x: prepare_state(HelicityClass.EQUAL_MINUS, x),
     "eta must lie in [0, 2*pi)", BAD_ETAS),
    ("boost", lambda x: boost_state(_REST_STATE, x), "delta must lie in [0, pi]", BAD_ANGLES),
    ("closed-eta", lambda x: ent.boosted_entropy_closed_form(x, 1.0, HelicityClass.UNEQUAL),
     "eta must be finite", BAD_FINITE),
    ("closed-delta", lambda x: ent.boosted_entropy_closed_form(0.6, x, HelicityClass.EQUAL_PLUS),
     "delta must be finite", BAD_FINITE),
    ("derivative-eta", lambda x: ent.boosted_entropy_derivative(x, 1.0),
     "eta must be finite", BAD_FINITE),
    ("derivative-delta", lambda x: ent.boosted_entropy_derivative(0.6, x),
     "delta must be finite", BAD_FINITE),
    ("rest", lambda x: ent.rest_frame_entropy(x, HelicityClass.EQUAL_MINUS),
     "eta must be finite", BAD_FINITE),
    ("binary", ent.binary_entropy, "p must be finite", BAD_FINITE),
]


@pytest.mark.parametrize(
    "call,rule,bad", [c[1:] for c in BAD_CALLS], ids=[c[0] for c in BAD_CALLS]
)
def test_rejections_read_the_same_for_every_input_type(call, rule, bad):
    for x in bad:
        for kind in SCALAR_KINDS:
            with pytest.raises(ValueError) as exc:
                call(KINDS[kind](x))
            assert str(exc.value) == f"{rule}, got {x}", kind
        with pytest.raises(ValueError) as exc:
            call(np.array([x]))
        assert str(exc.value) == f"{rule}, got {np.array([x])}"


# The scalar entry points that test all-float arguments in one expression
# before they call the checkers, with the edge floats their rules accept.
_EDGE_SPEEDS = (-0.0, math.nextafter(1.0, 0.0))
_EDGE_ANGLES = (-0.0, math.pi)
_EDGE_ETAS = (-0.0, math.nextafter(2.0 * math.pi, 0.0))
_EDGE_GEOMETRY = (_EDGE_SPEEDS, _EDGE_SPEEDS, _EDGE_ANGLES)
FAST_CALLS = {
    "tan": (kin.wigner_angle_tan_form, _EDGE_GEOMETRY),
    "cos": (kin.wigner_angle_cos_form, _EDGE_GEOMETRY),
    "matrix": (kin.wigner_angle_matrix_form, _EDGE_GEOMETRY),
    "ultra": (kin.ultra_relativistic_condition, _EDGE_GEOMETRY),
    "argmax": (kin.argmax_boost_angle, _EDGE_GEOMETRY[:2]),
    **{
        f"closed-{cls.value}": (
            lambda eta, delta, cls=cls: ent.boosted_entropy_closed_form(eta, delta, cls),
            (_EDGE_ETAS, _EDGE_ANGLES),
        )
        for cls in HelicityClass
    },
    "derivative": (ent.boosted_entropy_derivative, (_EDGE_ETAS, _EDGE_ANGLES)),
    "prepare": (lambda eta: prepare_state(HelicityClass.UNEQUAL, eta), (_EDGE_ETAS,)),
    "boost": (lambda delta: boost_state(_REST_STATE, delta), (_EDGE_ANGLES,)),
    "rotation-matrix": (lambda delta: st_mod.wigner_rotation_matrix(delta, -1), (_EDGE_ANGLES,)),
}
# The scalar entry points with no float path: a float argument takes the
# checked array path, with the same edge floats.
CHECKED_CALLS = {
    "vectors": (kin.standard_boost_vectors, _EDGE_GEOMETRY),
    "D": (kin.speed_factor_d, _EDGE_GEOMETRY[:2]),
    "gamma": (kin.lorentz_gamma, _EDGE_GEOMETRY[:1]),
    "rest": (lambda eta: ent.rest_frame_entropy(eta, HelicityClass.EQUAL_PLUS), (_EDGE_ETAS,)),
    "binary": (ent.binary_entropy, ((-0.0, math.nextafter(1.0, 0.0), 1.5),)),
}


def _typed_bits(x):
    """Type name and bits of a result, a state's fields included."""
    if isinstance(x, st_mod.SpinMomentumState):
        return tuple(map(_typed_bits, (x.eta, x.delta, x.amplitudes, x.frame, x.helicity_class)))
    if isinstance(x, tuple):
        return tuple(map(_typed_bits, x))
    if isinstance(x, np.ndarray):
        return str(x.dtype), x.shape, x.tobytes()
    return type(x).__name__, x.hex() if isinstance(x, float) else x


def _counted_checks(monkeypatch):
    """The messages of the rules checked, in order, once the checkers are wrapped."""
    calls = []

    def counting(checker):
        def counted(x, rule):
            calls.append(rule[1])
            return checker(x, rule)
        return counted

    for module, name in (
        (kin, "_checked"), (kin, "_checked_scalar"), (ent, "_checked"), (st_mod, "_checked_scalar")
    ):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return calls


@pytest.mark.parametrize("name", list(FAST_CALLS))
def test_all_float_calls_skip_the_checkers(name, monkeypatch):
    """All floats make no checker call; 0-d arrays make one per argument, with the same result.

    The 0-d array call goes through the checkers, so the edge floats accepted
    by the one-expression test (-0.0, the last float below 1 and below 2 pi,
    and pi) give the bits and the types of the checked path.
    """
    call, grids = FAST_CALLS[name]
    checks = _counted_checks(monkeypatch)
    for args in itertools.product(*grids):
        checks.clear()
        try:
            fast = _typed_bits(call(*args))
        except ValueError as exc:  # argmax at a zero speed
            fast = str(exc)
        assert checks == [], args
        try:
            checked = _typed_bits(call(*map(np.asarray, args)))
        except ValueError as exc:
            checked = str(exc)
        assert len(checks) == len(args), (args, checks)
        assert fast == checked, args


# The array kernels that the checked path of every kinematics and entropy
# entry reaches; the entries of ``states`` are scalar-only and have none.
ARRAY_KERNELS = (
    (kin, "_standard_geometry"),
    (kin, "_speed_factor"),
    (kin, "_sigma"),
    (ent, "_xi_factor"),
    (ent, "_entropy_bits"),
    (ent, "_rest_frame_entropy"),
)
SCALAR_ONLY = ("prepare", "boost", "rotation-matrix")


class ArrayKernelReached(Exception):
    pass


@pytest.mark.parametrize("name", list(FAST_CALLS))
def test_all_float_calls_skip_the_array_kernels(name, monkeypatch):
    """With every array kernel made to raise, all-float calls still return; 0-d arrays raise."""
    call, grids = FAST_CALLS[name]

    def refusing(*args):
        raise ArrayKernelReached

    for module, kernel in ARRAY_KERNELS:
        monkeypatch.setattr(module, kernel, refusing)
    for args in itertools.product(*grids):
        try:
            call(*args)
        except ValueError:  # argmax at a zero speed
            pass
        if name not in SCALAR_ONLY:
            with pytest.raises(ArrayKernelReached):
                call(*map(np.asarray, args))


@pytest.mark.parametrize("name", list(CHECKED_CALLS))
def test_float_calls_without_a_float_path_run_the_checkers(name, monkeypatch):
    """All floats make one checker call per argument, as 0-d arrays do, with the same result."""
    call, grids = CHECKED_CALLS[name]
    checks = _counted_checks(monkeypatch)
    for args in itertools.product(*grids):
        checks.clear()
        try:
            plain = _typed_bits(call(*args))
        except ValueError as exc:  # binary entropy above 1
            plain = str(exc)
        float_checks = list(checks)
        assert len(float_checks) == len(args), (args, float_checks)
        checks.clear()
        try:
            checked = _typed_bits(call(*map(np.asarray, args)))
        except ValueError as exc:
            checked = str(exc)
        assert checks == float_checks, args
        assert plain == checked, args


@pytest.mark.parametrize("name", list(CHECKED_CALLS))
def test_float_calls_without_a_float_path_run_the_array_kernels(name, monkeypatch):
    """With every array kernel made to raise, all-float calls raise as 0-d array calls do."""
    call, grids = CHECKED_CALLS[name]

    def refusing(*args):
        raise ArrayKernelReached

    for module, kernel in ARRAY_KERNELS:
        monkeypatch.setattr(module, kernel, refusing)
    for args in itertools.product(*grids):
        outcomes = []
        for convert in (float, np.asarray):
            try:
                call(*map(convert, args))
                outcomes.append("returned")
            except ArrayKernelReached:
                outcomes.append("kernel")
            except ValueError as exc:  # binary entropy above 1
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1] != "returned", (args, outcomes)


@pytest.mark.parametrize("name", ["tan", "matrix"])
def test_positive_denominators_skip_arctan2(name, monkeypatch):
    """The tan form and the matrix route divide by a positive denominator and take np.arctan.

    np.arctan2 has no scalar fast path; with it made to raise, all-float,
    0-d array and whole-array calls still return, with the same bits.
    """
    call, grids = FAST_CALLS[name]
    inputs = list(itertools.product(*grids)) + _route_inputs(3)
    columns = [np.array(column) for column in zip(*inputs)]
    expected = [_bits(call(*args)) for args in inputs]

    def refusing(*args, **kwargs):
        raise AssertionError("np.arctan2 reached")

    monkeypatch.setattr(np, "arctan2", refusing)
    assert [_bits(call(*args)) for args in inputs] == expected
    assert [_bits(call(*map(np.asarray, args))) for args in inputs] == expected
    assert _bits(call(*columns)) == [bits for row in expected for bits in row]


SCALAR_CALLS = {
    "tan": lambda x: kin.wigner_angle_tan_form(x(0.6), x(0.7), x(2.0)),
    "cos": lambda x: kin.wigner_angle_cos_form(x(0.6), x(0.7), x(2.0)),
    "matrix": lambda x: kin.wigner_angle_matrix_form(x(0.6), x(0.7), x(2.0)),
    "D": lambda x: kin.speed_factor_d(x(0.6), x(0.7)),
    "D-degenerate": lambda x: kin.speed_factor_d(x(0.0), x(0.7)),
    "gamma": lambda x: kin.lorentz_gamma(x(0.6)),
    "argmax": lambda x: kin.argmax_boost_angle(x(0.6), x(0.7)),
    **{
        f"closed-{cls.value}": lambda x, cls=cls: ent.boosted_entropy_closed_form(
            x(0.6), x(1.1), cls
        )
        for cls in HelicityClass
    },
    **{
        f"rest-{cls.value}": lambda x, cls=cls: ent.rest_frame_entropy(x(0.6), cls)
        for cls in HelicityClass
    },
    "derivative": lambda x: ent.boosted_entropy_derivative(x(0.6), x(1.1)),
    "derivative-singular": lambda x: ent.boosted_entropy_derivative(x(0.6), x(math.pi / 2)),
    "binary": lambda x: ent.binary_entropy(x(0.3)),
    "binary-edge": lambda x: ent.binary_entropy(x(0.0)),
    "von-neumann": lambda x: ent.von_neumann_entropy(
        ent.reduced_density_matrix(
            boost_state(prepare_state(HelicityClass.EQUAL_PLUS, x(0.6)), x(1.1))
        )
    ),
}


@pytest.mark.parametrize("convert", [float, np.float64], ids=["float", "float64"])
@pytest.mark.parametrize("name", list(SCALAR_CALLS))
def test_scalar_call_returns_python_float(name, convert):
    assert type(SCALAR_CALLS[name](convert)) is float


@pytest.mark.parametrize("convert", [float, np.float64], ids=["float", "float64"])
@pytest.mark.parametrize("phi", [0.5, 2.5])
def test_ultra_condition_returns_python_bool(convert, phi):
    result = kin.ultra_relativistic_condition(convert(0.995), convert(0.995), convert(phi))
    assert type(result) is bool


# Random floats by regime: speeds log-spaced from 1e-8 up and in their gap
# to 1 down to 1e-12, and angles log-spaced about the points where the
# sin, cos and clip branches meet.
_SPEED_MIN, _SPEED_MAX = 1e-8, 1.0 - 1e-12
_speeds = st.one_of(
    st.floats(-8.0, 0.0).map(lambda e: 10.0**e),
    st.floats(-12.0, 0.0).map(lambda e: 1.0 - 10.0**e),
).map(lambda x: min(max(x, _SPEED_MIN), _SPEED_MAX))


def _near(*centers):
    """A center, or a center moved by a log-spaced offset of either sign."""
    offsets = st.one_of(
        st.just(0.0), st.builds(lambda e, sign: sign * 10.0**e, st.floats(-16.0, 0.0),
                                st.sampled_from((-1.0, 1.0)))
    )
    return st.builds(lambda c, d: c + d, st.sampled_from(centers), offsets)


_phis = _near(0.0, math.pi / 2, math.pi).map(lambda x: min(max(x, 0.0), math.pi))
_etas = _near(0.0, math.pi / 4, math.pi / 2)


@given(_speeds, _speeds, _phis, _etas)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_random_floats_agree_to_the_bit(u, v, phi, eta):
    """A call on floats gives the bits of the call on one-element arrays.

    The closed forms and the derivative take both the tan-form delta of
    the geometry and phi itself as delta, so delta also lands near 0,
    pi/2 and pi.
    """
    delta = kin.wigner_angle_tan_form(u, v, phi)
    calls = [
        (route, (u, v, phi)) for route in (
            kin.wigner_angle_tan_form,
            kin.wigner_angle_cos_form,
            kin.wigner_angle_matrix_form,
            kin.ultra_relativistic_condition,
        )
    ]
    calls.append((kin.argmax_boost_angle, (u, v)))
    for d in (delta, phi):
        calls += [
            (lambda e, d, cls=cls: ent.boosted_entropy_closed_form(e, d, cls), (eta, d))
            for cls in HelicityClass
        ]
        calls.append((ent.boosted_entropy_derivative, (eta, d)))
    for call, args in calls:
        scalar = call(*args)
        assert type(scalar) is (bool if call is kin.ultra_relativistic_condition else float)
        assert _bits(scalar) == _bits(call(*(np.array([x]) for x in args))), (call, args)
