"""Sweeps of rotation angle and entanglement over the boosting angle.

The composed quantity is Etilde(phi) = E(delta(phi)): the rotation angle
from the tangent form (the cheap path; the cosine form and the matrix
route stay in the verification suite) fed into the closed-form boosted
entropy.  On top of the raw series this module locates local extrema,
classifies their relativistic regime, and emits the datasets behind the
reference figures.

The extrema need no numerical search.  By the paper's monotonicity
theorem E falls in delta on (0, pi/2) and rises on (pi/2, pi) for the
equal-helicity families (the other way round for the unequal-helicity
family), and delta(phi) is concave with its one maximum at
phi* = arccos(-1/D).  So Etilde can turn only at phi* or where
delta = pi/2, and both have closed forms: ``argmax_boost_angle`` and
the endpoints of ``ultra_phi_interval``.

Output formats: CSV with 17-significant-digit decimals and LF line
endings; JSON as {"metadata": ..., "rows": ...}.  Identical inputs
produce byte-identical text.  Every CSV field is exactly
``format(x, ".17g")``: fields with 1e-4 <= |x| < 1e16 come from exact
integer arithmetic on arrays, and every other value goes through ``%``.
Each array-formatted field fills a fixed 40-byte slot from lookup tables,
and one boolean compress keeps its bytes, one run of them for |x| < 1
and two for larger values (the layout is drawn above ``_CSV_SLOT``).
The CSV comes out as byte chunks of ``_CSV_CHUNK_ROWS`` rows
(``csv_chunks``), which the CLI writes into its temp file one at a time,
so a sweep never holds its whole text in memory; ``to_csv_text`` joins
them.  Both table types check their columns once, at construction
(``_table_columns``), and both formats read only the checked columns;
a ``Dataset`` keeps its names as the checked tuple.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from ._version import __version__
from .entanglement import _boosted_entropy_f, boosted_entropy_closed_form
from .kinematics import (
    _U,
    _V,
    _checked,
    _checked_scalar,
    _is_real_scalar,
    _tan_form_f,
    _ultra_f,
    argmax_boost_angle,
    equal_speed_ultra_threshold,
    speed_factor_d,
    ultra_phi_interval,
    ultra_relativistic_condition,
    wigner_angle_tan_form,
)
from .states import _ETA, HelicityClass

__all__ = [
    "Dataset",
    "Extremum",
    "ExtremumKind",
    "FIGURE_IDS",
    "Regime",
    "SweepRequest",
    "SweepSeries",
    "emit_figure",
    "find_local_extrema",
    "sweep_entanglement",
    "threshold_speed_region",
]

_PLATEAU_TOL = 1e-14
# Rows formatted per step, and per chunk handed to the writer.  A step's
# buffers take about 300 bytes per row; at 4,096 rows they stay in cache and
# leave little heap resident (at 65,536 rows they added about 50 MB to the
# peak RSS of a 1,000,001-row sweep).
_CSV_CHUNK_ROWS = 4_096

# CSV fields: exact "%.17g" with array arithmetic.
#
# For 1e-4 <= |x| < 1e16, "%.17g" writes x in fixed notation from its
# correctly rounded 17-digit significand D = d0 d1 .. d16 and its decimal
# exponent E = floor(log10|x|).  Each value gets a slot that holds every
# character its text can use, at fixed columns, and a keep-mask row picks
# the characters it does use:
#
#   byte  0-6    prefix, ending at byte 6: the separator before the field
#                (LF in the first column, "," after), "-", and for E < 0
#                "0." and -E-1 zeros
#         7      d0
#         8-23   d1..d16                    (E < 0: all; E >= 0: up to dE)
#         24-39  d1..d16 again, with "." over the byte before d(E+1)
#                (byte 23 + E; E >= 0, kept from there when x has
#                fraction digits)
#
# So a field's kept bytes are one run for |x| < 1 and two for |x| >= 1: the
# boolean compress that gathers them pays per run.  The prefix row depends
# on E, the sign and the separator; the mask row on those and the count of
# trailing zeros of D.  Both are read from tables.
_CSV_SLOT = 40
_CSV_E = range(-5, 17)  # log10 can be one off for in-range values: see _csv_significands


def _csv_prefix_index(e, negative, comma):
    """Row of the prefix table, and of the keep table's block, for exponent, sign and separator."""
    return (e - _CSV_E.start) * 4 + comma * 2 + negative


@functools.cache
def _csv_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The formatter's lookup tables, built on the first CSV write.

    - ``"0000".."9999"`` as four ASCII bytes read as one uint32;
    - their trailing zeros, with 16 for 0000, so that the minimum over the
      groups of D of (zeros of the group + 4 * groups after it) counts them
      for all of D;
    - the slot's bytes 0-7 as one uint64 per prefix row
      (:func:`_csv_prefix_index`); byte 7 is left for d0;
    - the keep-mask rows of the slot, indexed by prefix row * 17 + trailing
      zeros.  The rows for E = -5 and 16 serve only values whose exponent
      estimate is off; those go to the fallback, which replaces them.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # thousands .. units
    quads = (np.ascontiguousarray(digits.T) + ord("0")).view(np.uint32).ravel()
    trailing = np.logical_and.accumulate(digits[::-1] == 0).sum(axis=0, dtype=np.int8)
    trailing[0] = 16

    # In the order of _csv_prefix_index: E, then the separator, then the sign.
    heads = [
        ("\n,"[comma] + "-" * negative + ("0." + "0" * (-e - 1)) * (e < 0))[-7:]
        for e in _CSV_E
        for comma in (0, 1)
        for negative in (0, 1)
    ]  # [-7:]: E = -5 with "-" would not fit, and is never kept
    prefixes = np.frombuffer("".join(h.rjust(7) + " " for h in heads).encode(), np.uint64).copy()
    start = 7 - np.array([len(h) for h in heads])[:, None, None]
    e = np.repeat(_CSV_E, 4)[:, None, None]
    last = 16 - np.arange(17)[:, None]  # index of the last nonzero digit
    col = np.arange(_CSV_SLOT)
    integer_end = 7 + np.where(e < 0, last, np.minimum(e, 16))
    fraction = (e >= 0) & (last > e) & (col >= 23 + e) & (col <= 23 + last)
    keep = (col >= start) & (col <= integer_end) | fraction
    tables = quads, trailing, prefixes, keep.reshape(-1, _CSV_SLOT)
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


# 10**k for k = 16 - E in 0..21 is an exact double; Veltkamp's split into two
# 26-bit halves is what Dekker's two-product needs.
_POW10 = 10.0 ** np.arange(22)
_VELTKAMP = 2.0**27 + 1.0
_POW10_HI = _VELTKAMP * _POW10 - (_VELTKAMP * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _csv_significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(fixed, e, d)``: which values take fixed notation here, and their E and D.

    ``fixed`` is False for the values that ``"%.17g"`` writes otherwise
    and for those whose exponent estimate is off; their E and D mean
    nothing.
    """
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)  # NaN fails too
    np.copyto(a, 1.0, where=~fixed)
    # Dekker's two-product splits |x| * 10**(16 - E) exactly into p + err.
    # For the right E, p >= 1e16 > 2**53 is an even integer, so rounding
    # p + err half to even (as CPython's dtoa does) is p + rint(err).  A D
    # outside [1e16, 1e17) means log10 gave the wrong E, or D rounded up to
    # 1e17; such values go to the fallback.  An overestimated E always gives
    # D <= 1e16 - 1: the largest double below each power of ten lies more
    # than half a unit of the 17th digit below it.
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - e
    scale_hi, scale_lo = _POW10_HI[k], _POW10_LO[k]
    p = _POW10[k]
    p *= a
    a_hi = _VELTKAMP * a  # Veltkamp: a_hi = split - (split - a), a_lo = a - a_hi
    a_lo = a_hi - a
    a_hi -= a_lo
    a_lo = np.subtract(a, a_hi, out=a_lo)
    # err = ((a_hi * scale_hi - p) + a_hi * scale_lo + a_lo * scale_hi) + a_lo * scale_lo,
    # summed in that order, each product in an array it no longer needs.
    err = a_hi * scale_hi
    err -= p
    err += np.multiply(a_hi, scale_lo, out=a_hi)
    err += np.multiply(a_lo, scale_hi, out=scale_hi)
    err += np.multiply(a_lo, scale_lo, out=a_lo)
    d = p.astype(np.int64)
    d += np.rint(err, out=err).astype(np.int64)
    fixed &= (d >= 10**16) & (d < 10**17)
    return fixed, e, d


def _csv_fields(block: np.ndarray, separators: np.ndarray, tables: tuple) -> np.ndarray:
    """ASCII bytes of the ``%.17g`` fields of a block of rows, each after its separator.

    ``separators`` holds, per value of a full block in row order, the
    prefix row of its column at E = 0 and a positive sign,
    ``_csv_prefix_index(0, 0, comma)``: the separator alone.  ``tables``
    is :func:`_csv_tables`.
    """
    quads, quad_trailing_zeros, prefixes, keep_rows = tables
    x = block.ravel()
    fixed, e, d = _csv_significands(x)

    slots = np.empty((x.size, _CSV_SLOT), np.uint8)
    words = slots.view(np.uint32)
    separators = separators[: x.size]
    row = e * 4  # _csv_prefix_index(e, negative, comma), summed in place
    row += separators
    row += np.signbit(x)
    slots.view(np.uint64)[:, 0] = prefixes[row]
    for col in (5, 4, 3, 2):  # d13..d16, d9..d12, d5..d8, d1..d4
        q = d // 10_000
        r = d - q * 10_000
        words[:, col] = quads[r]
        if col == 5:  # D's trailing zeros are those of d13..d16, unless they are 0000
            trailing = quad_trailing_zeros[r]
            zeros = np.flatnonzero(r == 0)
            rest = q[zeros]  # d0..d12
        d = q
    np.add(d, ord("0"), out=slots[:, 7], casting="unsafe")  # d0
    if zeros.size:
        count = np.full(zeros.size, 16)
        for shift in (4, 8, 12):
            count = np.minimum(count, shift + quad_trailing_zeros[rest % 10_000])
            rest = rest // 10_000
        trailing[zeros] = count
    # d1..d16 again, as one 16-byte item per slot, then "." before d(E+1).
    # E < 0 puts the "." at bytes 34-38, which such fields never keep.
    slots[:, 24:].view("V16")[...] = slots[:, 8:24].view("V16")
    slots.reshape(-1)[np.bitwise_and(e, 15) + np.arange(23, slots.size, _CSV_SLOT)] = ord(".")
    row *= 17
    row += trailing
    keep = keep_rows.take(row, axis=0)

    if not fixed.all():
        fallback = np.flatnonzero(~fixed)
        # "%.17g" of a double takes at most 24 characters, as in
        # -2.2250738585072014e-308; each field is padded to 24 with spaces
        # and goes to bytes 7-30 of its slot, after its bare separator.
        text = ("%-24.17g" * fallback.size) % tuple(x[fallback].tolist())
        chars = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 24)
        slots.view(np.uint64)[fallback, 0] = prefixes[separators[fallback]]
        slots[fallback, 7:31] = chars
        keep[fallback] = False
        keep[fallback, 6] = True
        keep[fallback, 7:31] = chars != ord(" ")
    return slots[keep]


def _csv_chunks(header: tuple, columns):
    """CSV as ASCII byte chunks: the header line, one ``%.17g`` field per value, LF-terminated.

    ``columns`` holds one 1-d array per header name.  Every field is
    exactly ``format(x, ".17g")``.  Values with ``1e-4 <= |x| < 1e16``
    (fixed notation) are formatted with exact integer arithmetic on
    arrays; every other value (0, -0.0, subnormals, smaller or larger
    magnitudes, inf, NaN) and the rare value whose exponent estimate is
    off go through ``%``.  Rows are stacked and formatted
    ``_CSV_CHUNK_ROWS`` at a time, one chunk each, so a writer that takes
    the chunks as they come never holds the whole text.  The columns are
    a table's, checked at its construction by :func:`_table_columns`.
    """
    columns_separator = _csv_prefix_index(0, 0, np.arange(len(header)) > 0)
    separators = np.tile(columns_separator, _CSV_CHUNK_ROWS)
    tables = _csv_tables()
    yield ",".join(header).encode()
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        block = np.column_stack([column[start : start + _CSV_CHUNK_ROWS] for column in columns])
        yield _csv_fields(block, separators, tables).data
    yield b"\n"


# Table values are real; NaN and inf are valid.  The test allocates nothing.
_TABLE_VALUES = (lambda x: np.True_, "table values must be real")
_SWEEP_HEADER = ("phi", "delta", "entropy_bits")
_CSV_SEPARATORS = frozenset(",\r\n")


def _table_columns(header: tuple, columns) -> tuple:
    """Float64 ``columns``; ValueError unless one real 1-d column per name, all of one length.

    ``header`` is a sequence of names, not one ``str``, and each name is a
    ``str`` without a comma or line break, so that the CSV header has
    exactly one field per column.
    """
    columns = tuple(_checked(column, _TABLE_VALUES) for column in columns)
    if (
        not isinstance(header, Sequence)
        or isinstance(header, str)
        or not all(isinstance(n, str) and not _CSV_SEPARATORS.intersection(n) for n in header)
    ):
        raise ValueError(f"column names must be str without a comma or line break, got {header!r}")
    if not header or len(columns) != len(header):
        raise ValueError(f"need one column of values per name, got {len(columns)} for {header}")
    shapes = [np.shape(column) for column in columns]
    if len(shapes[0]) != 1 or shapes.count(shapes[0]) != len(shapes):
        raise ValueError(
            f"need one column of values per name, 1-d and of one length, got shapes {shapes}"
        )
    return columns


def _check_count(name: str, value, least: int) -> None:
    """ValueError unless ``value`` is an integer >= ``least``.

    A float is refused even when integral: ``np.linspace`` would raise
    TypeError on it later, and inf or NaN would overflow ``int()``.
    """
    try:
        ok = operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")


@dataclass(frozen=True)
class SweepRequest:
    """Parameters of one entanglement-vs-boosting-angle sweep."""

    u: float
    v: float
    eta: float
    helicity_class: HelicityClass
    phi_min: float = 0.0
    phi_max: float = math.pi
    samples: int = 2001

    def __post_init__(self):
        """Range checks; a list, array, complex, string or None gets the range message too."""
        for name, speed in (("u", self.u), ("v", self.v)):
            _checked_scalar(speed, (_U[0], f"{name} must satisfy 0 <= {name} < 1"))
        _checked_scalar(self.eta, _ETA)
        if not isinstance(self.helicity_class, HelicityClass):
            raise ValueError(f"unknown helicity class: {self.helicity_class!r}")
        if not (
            _is_real_scalar(self.phi_min)
            and _is_real_scalar(self.phi_max)
            and 0.0 <= self.phi_min < self.phi_max <= math.pi
        ):
            raise ValueError(
                f"need 0 <= phi_min < phi_max <= pi, got [{self.phi_min}, {self.phi_max}]"
            )
        _check_count("samples", self.samples, 2)

    def metadata(self) -> dict:
        return {
            "u": float(self.u),
            "v": float(self.v),
            "eta": float(self.eta),
            "class": self.helicity_class.value,
            "phi_min": float(self.phi_min),
            "phi_max": float(self.phi_max),
            "samples": int(self.samples),
        }


@dataclass(frozen=True, eq=False)
class SweepSeries:
    """Ordered (phi, delta, entropy) samples and their request; ``==`` is identity."""

    request: SweepRequest
    phi: np.ndarray
    delta: np.ndarray
    entropy: np.ndarray
    extra_metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        columns = _table_columns(_SWEEP_HEADER, (self.phi, self.delta, self.entropy))
        for name, column in zip(("phi", "delta", "entropy"), columns):
            object.__setattr__(self, name, column)

    def metadata(self) -> dict:
        return {**self.request.metadata(), "version": __version__, **self.extra_metadata}

    def csv_chunks(self):
        """The CSV file as ASCII byte chunks, a header and then ``_CSV_CHUNK_ROWS`` rows each."""
        return _csv_chunks(_SWEEP_HEADER, (self.phi, self.delta, self.entropy))

    def to_csv_text(self) -> str:
        return b"".join(self.csv_chunks()).decode()

    def to_json_dict(self) -> dict:
        return {
            "metadata": self.metadata(),
            "rows": np.column_stack([self.phi, self.delta, self.entropy]).tolist(),
        }


@dataclass(frozen=True, eq=False)
class Dataset:
    """Generic figure table: named columns, float rows, metadata.

    ``columns`` is kept as the tuple of names that was checked.  ``==``
    and ``hash`` are identity: ``rows`` is an array.
    """

    columns: tuple
    rows: np.ndarray
    metadata: dict

    def __post_init__(self):
        try:
            rows = np.transpose(self.rows)
        except ValueError:  # numpy refuses ragged rows
            raise ValueError(
                f"need one column of values per name, got ragged rows for {self.columns}"
            ) from None
        columns = _table_columns(self.columns, np.atleast_1d(rows))
        object.__setattr__(self, "columns", tuple(self.columns))  # the names as checked
        object.__setattr__(self, "rows", np.transpose(columns))

    def csv_chunks(self):
        """The CSV file as ASCII byte chunks, a header and then ``_CSV_CHUNK_ROWS`` rows each."""
        return _csv_chunks(self.columns, self.rows.T)

    def to_csv_text(self) -> str:
        return b"".join(self.csv_chunks()).decode()

    def to_json_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "columns": list(self.columns),
            "rows": self.rows.tolist(),
        }


def sweep_entanglement(request: SweepRequest) -> SweepSeries:
    """Evaluate delta(phi) and Etilde(phi) on a uniform phi grid.

    One vectorized pass over the grid, so identical requests give
    identical arrays.
    """
    phis = np.linspace(request.phi_min, request.phi_max, request.samples)
    delta = wigner_angle_tan_form(request.u, request.v, phis)
    entropy = boosted_entropy_closed_form(request.eta, delta, request.helicity_class)
    for arr in (phis, delta, entropy):
        arr.flags.writeable = False
    return SweepSeries(request=request, phi=phis, delta=delta, entropy=entropy)


class ExtremumKind(Enum):
    MINIMUM = "min"
    MAXIMUM = "max"


class Regime(Enum):
    MID = "mid"      # delta < pi/2 at the extremum
    ULTRA = "ultra"  # delta >= pi/2 at the extremum


@dataclass(frozen=True)
class Extremum:
    phi: float
    entropy: float
    kind: ExtremumKind
    regime: Regime
    plateau: bool = False


def _interior_extremum_runs(entropy: np.ndarray) -> list[tuple]:
    """``(lo, hi, kind)`` for each run of plateau-equal samples that is a local extremum.

    A run is a maximal index range ``lo..hi`` (inclusive) whose
    consecutive samples differ by at most 1e-14.  It is an extremum when
    its first value lies strictly above or below both the last value of
    the run before and the first value of the run after.  Runs touching
    an endpoint sample are never extrema.
    """
    n = entropy.size
    starts = np.concatenate(
        ([0], np.flatnonzero(np.abs(np.diff(entropy)) > _PLATEAU_TOL) + 1)
    )
    ends = np.append(starts[1:] - 1, n - 1)
    value = entropy[starts[1:-1]]
    prev_value = entropy[ends[:-2]]
    next_value = entropy[starts[2:]]
    is_max = (value > prev_value) & (value > next_value)
    is_min = (value < prev_value) & (value < next_value)
    return [
        (
            int(starts[k + 1]),
            int(ends[k + 1]),
            ExtremumKind.MAXIMUM if is_max[k] else ExtremumKind.MINIMUM,
        )
        for k in np.flatnonzero(is_max | is_min)
    ]


def find_local_extrema(series: SweepSeries) -> list[Extremum]:
    """Locate interior local extrema of Etilde(phi) in a sweep.

    Sample runs equal within 1e-14 are collapsed.  A multi-sample
    plateau is reported once at its midpoint and flagged.  A
    single-sample extremum at index ``lo`` is reported at a closed-form
    angle: by the monotonicity theorem (module docstring) the only
    interior extrema of Etilde are phi* = arccos(-1/D)
    (:func:`~wignerlab.kinematics.argmax_boost_angle`) and the
    delta = pi/2 crossings
    (:func:`~wignerlab.kinematics.ultra_phi_interval`).  The candidate
    lying in ``[phi[lo-1], phi[lo+1]]`` is taken, the most extreme one if
    several do (the nearest one, should none).  Endpoint samples never
    produce extrema.  The regime is classified with
    :func:`wignerlab.kinematics.ultra_relativistic_condition`, so the two
    always agree.  Every angle here is a float in [0, pi] and the request
    is checked, so the float kernels of these functions are called directly.
    """
    req = series.request
    if series.phi.size < 3:
        raise ValueError("need at least 3 rows to search for interior extrema")
    u, v, eta = float(req.u), float(req.v), float(req.eta)

    def etilde(p):
        return _boosted_entropy_f(eta, _tan_form_f(u, v, p), req.helicity_class)

    candidates = None  # built on demand: argmax_boost_angle raises for u = 0 or v = 0
    found = []
    for lo, hi, kind in _interior_extremum_runs(series.entropy):
        if hi > lo:  # plateau run
            phi_hat = float(0.5 * (series.phi[lo] + series.phi[hi]))
        else:
            if candidates is None:
                crossings = ultra_phi_interval(u, v) or ()
                candidates = (argmax_boost_angle(u, v), *crossings)
            a, b = series.phi[lo - 1], series.phi[lo + 1]
            sign = 1.0 if kind is ExtremumKind.MINIMUM else -1.0
            phi_hat = min(
                candidates, key=lambda c: (max(a - c, c - b, 0.0), sign * etilde(c))
            )
        regime = Regime.ULTRA if _ultra_f(u, v, phi_hat) else Regime.MID
        found.append(
            Extremum(
                phi=phi_hat,
                entropy=etilde(phi_hat),
                kind=kind,
                regime=regime,
                plateau=hi > lo,
            )
        )
    return found


def threshold_speed_region(phi: float, u_speeds, v_speeds=None) -> np.ndarray:
    """Boolean matrix over (u, v): True where delta(u, v, phi) >= pi/2.

    ``u_speeds`` and ``v_speeds`` (default ``u_speeds``) are 1-d; other shapes raise ValueError.
    """
    phi = _checked_scalar(phi, (lambda x: (0.0 < x) & (x < math.pi), "phi must lie in (0, pi)"))
    u = _checked(u_speeds, _U)
    v = u if v_speeds is None else _checked(v_speeds, _V)
    for name, speeds in (("u_speeds", u), ("v_speeds", v)):
        if speeds.ndim != 1:
            raise ValueError(f"{name} must be 1-d, got shape {speeds.shape}")
    return ultra_relativistic_condition(u[:, None], v[None, :], phi)


FIGURE_IDS = ("1a", "1b", "1c", "3a", "3b", "3c")

# Reproducible defaults where the reference plots only say "different
# parameter values": the boosting angles drawn in 1a and the equal
# speeds drawn in 1b.
_FIG1A_PHI_VALUES = (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0)
_FIG1B_SPEEDS = (0.5, 0.9, 0.99, 0.999)
_FIG1A_SPEED_MAX = 0.999
_FIG1C_SPEED_MAX = 0.9999
_FIG3A_SPEED = 0.95
_FIG3C_SPEED = 0.995
_FIG3_ETA = 0.6


def emit_figure(figure_id: str, samples: int | None = None):
    """Dataset behind one reference figure; ``samples`` overrides grid density only.

    1a: delta vs equal speed u = v, one curve per boosting angle in
        {pi/4, pi/2, 3pi/4} (long format u, phi, delta).
    1b: delta vs boosting angle, one curve per equal speed in
        {0.5, 0.9, 0.99, 0.999} (long format u, phi, delta).
    1c: boolean ultra-relativistic region over (u, v) at phi = 3pi/4.
    3a: entanglement sweep, eta = 0.6, u = v = 0.95 (mid-relativistic).
    3b: delta vs boosting angle at u = v = 0.995, with the delta = pi/2
        crossing interval in the metadata.
    3c: entanglement sweep, eta = 0.6, u = v = 0.995 (reaches the
        ultra-relativistic regime between the crossings).

    The long-format figures evaluate all their curves in one call, curve
    after curve along the rows.
    """
    if samples is not None:
        _check_count("samples", samples, 2)

    if figure_id in ("3a", "3c"):
        speed = _FIG3A_SPEED if figure_id == "3a" else _FIG3C_SPEED
        series = sweep_entanglement(
            SweepRequest(
                u=speed,
                v=speed,
                eta=_FIG3_ETA,
                helicity_class=HelicityClass.EQUAL_PLUS,
                samples=samples or 2001,
            )
        )
        extras = {"figure": figure_id, "phi_star": argmax_boost_angle(speed, speed)}
        crossings = ultra_phi_interval(speed, speed)
        if crossings is not None:
            extras["delta_half_pi_crossings"] = list(crossings)
        return replace(series, extra_metadata=extras)

    if figure_id == "1a":
        n = samples or 501
        u = np.tile(np.linspace(0.0, _FIG1A_SPEED_MAX, n), len(_FIG1A_PHI_VALUES))
        phi = np.repeat(_FIG1A_PHI_VALUES, n)
        columns = ("u", "phi", "delta")
        values = (u, phi, wigner_angle_tan_form(u, u, phi))
        meta = {
            "phi_values": list(_FIG1A_PHI_VALUES),
            "speed_max": _FIG1A_SPEED_MAX,
            "equal_speeds": True,
        }
    elif figure_id == "1b":
        n = samples or 2001
        u = np.repeat(_FIG1B_SPEEDS, n)
        phi = np.tile(np.linspace(0.0, math.pi, n), len(_FIG1B_SPEEDS))
        columns = ("u", "phi", "delta")
        values = (u, phi, wigner_angle_tan_form(u, u, phi))
        meta = {"speeds": list(_FIG1B_SPEEDS), "equal_speeds": True}
    elif figure_id == "1c":
        n = samples or 201
        phi = 3.0 * math.pi / 4.0
        speeds = np.linspace(0.0, _FIG1C_SPEED_MAX, n)
        ultra = threshold_speed_region(phi, speeds)
        columns = ("u", "v", "ultra")
        values = (np.repeat(speeds, n), np.tile(speeds, n), ultra.astype(float).ravel())
        meta = {"phi": phi, "equal_speed_threshold": equal_speed_ultra_threshold(phi)}
    elif figure_id == "3b":
        u = _FIG3C_SPEED
        phi = np.linspace(0.0, math.pi, samples or 2001)
        crossings = ultra_phi_interval(u, u)
        columns = ("phi", "delta")
        values = (phi, wigner_angle_tan_form(u, u, phi))
        meta = {
            "u": u,
            "v": u,
            "speed_factor_d": speed_factor_d(u, u),
            "delta_half_pi_crossings": list(crossings) if crossings else None,
        }
    else:
        raise ValueError(
            f"unknown figure id {figure_id!r}; known: {', '.join(FIGURE_IDS)}"
        )
    return Dataset(
        columns, np.column_stack(values), {"figure": figure_id, **meta, "version": __version__}
    )
