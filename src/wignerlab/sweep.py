"""Sweeps of rotation angle and entanglement over the boosting angle.

The composed quantity is Etilde(phi) = E(delta(phi)): the rotation angle
from the tangent form (the cheap path; the cosine form and the matrix
route stay in the verification suite) fed into the closed-form boosted
entropy.  On top of the raw series this module locates and refines local
extrema, classifies their relativistic regime, and emits the datasets
behind the reference figures.

Output formats: CSV with 17-significant-digit decimals and LF line
endings; JSON as {"metadata": ..., "rows": ...}.  Identical inputs
produce byte-identical text.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._version import __version__
from .entanglement import boosted_entropy_closed_form
from .kinematics import (
    argmax_boost_angle,
    equal_speed_ultra_threshold,
    speed_factor_d,
    ultra_phi_interval,
    ultra_relativistic_condition,
    wigner_angle_tan_form,
)
from .states import HelicityClass

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
    "golden_section_minimize",
    "sweep_entanglement",
    "threshold_speed_region",
    "wigner_angle_sweep",
]

_PLATEAU_TOL = 1e-14
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_CSV_CHUNK_ROWS = 65_536


def _csv_text(header: tuple, rows: np.ndarray) -> str:
    """CSV text: the header line, then one ``%.17g`` field per value, LF-terminated.

    Rows are formatted a chunk at a time with a single ``%`` operation,
    which converts each float exactly as ``format(x, ".17g")`` does;
    the chunking only bounds the size of the intermediate tuple.
    """
    line = ",".join(["%.17g"] * len(header)) + "\n"
    rows = np.asarray(rows, dtype=float)
    parts = [",".join(header) + "\n"]
    for start in range(0, rows.shape[0], _CSV_CHUNK_ROWS):
        block = rows[start : start + _CSV_CHUNK_ROWS]
        parts.append((line * block.shape[0]) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _resolve_threads(threads: int) -> int:
    """Worker count for grid evaluation; 0 = auto (single vectorized pass)."""
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    if threads == 0:
        return 1
    return min(threads, os.cpu_count() or 1, 64)


def _chunked_eval(fn, grid: np.ndarray, threads: int) -> np.ndarray:
    """Apply a vectorized fn over grid, optionally split across threads.

    Chunking never changes values (elementwise ufuncs), so the output is
    deterministic for any thread count.
    """
    workers = _resolve_threads(threads)
    if workers <= 1 or grid.size < 2 * workers:
        return fn(grid)
    chunks = np.array_split(grid, workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(fn, chunks))
    return np.concatenate(parts)


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
        for name, speed in (("u", self.u), ("v", self.v)):
            if not 0.0 <= speed < 1.0:
                raise ValueError(f"{name} must satisfy 0 <= {name} < 1, got {speed}")
        if not 0.0 <= self.eta < 2.0 * math.pi:
            raise ValueError(f"eta must lie in [0, 2*pi), got {self.eta}")
        if not (0.0 <= self.phi_min < self.phi_max <= math.pi):
            raise ValueError(
                f"need 0 <= phi_min < phi_max <= pi, got [{self.phi_min}, {self.phi_max}]"
            )
        if int(self.samples) != self.samples or self.samples < 2:
            raise ValueError(f"samples must be an integer >= 2, got {self.samples}")

    def metadata(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "eta": self.eta,
            "class": self.helicity_class.value,
            "phi_min": self.phi_min,
            "phi_max": self.phi_max,
            "samples": int(self.samples),
        }


@dataclass(frozen=True)
class SweepSeries:
    """Ordered (phi, delta, entropy) samples plus the request that made them."""

    request: SweepRequest
    phi: np.ndarray
    delta: np.ndarray
    entropy: np.ndarray
    version: str = __version__
    extra_metadata: dict = field(default_factory=dict)

    def metadata(self) -> dict:
        meta = self.request.metadata()
        meta["version"] = self.version
        meta.update(self.extra_metadata)
        return meta

    def to_csv_text(self) -> str:
        return _csv_text(
            ("phi", "delta", "entropy_bits"),
            np.column_stack([self.phi, self.delta, self.entropy]),
        )

    def to_json_dict(self) -> dict:
        return {
            "metadata": self.metadata(),
            "rows": [
                [float(p), float(d), float(e)]
                for p, d, e in zip(self.phi, self.delta, self.entropy)
            ],
        }


@dataclass(frozen=True)
class Dataset:
    """Generic figure table: named columns, float rows, metadata."""

    columns: tuple
    rows: np.ndarray
    metadata: dict

    def to_csv_text(self) -> str:
        return _csv_text(self.columns, self.rows)

    def to_json_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "columns": list(self.columns),
            "rows": [[float(x) for x in row] for row in self.rows],
        }


def sweep_entanglement(request: SweepRequest, threads: int = 0) -> SweepSeries:
    """Evaluate delta(phi) and Etilde(phi) on a uniform phi grid.

    Deterministic for identical requests regardless of ``threads``
    (0 = auto).
    """
    phis = np.linspace(request.phi_min, request.phi_max, request.samples)
    delta = _chunked_eval(
        lambda p: wigner_angle_tan_form(request.u, request.v, p), phis, threads
    )
    entropy = boosted_entropy_closed_form(request.eta, delta, request.helicity_class)
    for arr in (phis, delta, entropy):
        arr.flags.writeable = False
    return SweepSeries(request=request, phi=phis, delta=delta, entropy=entropy)


def wigner_angle_sweep(u: float, v: float, phis) -> tuple[np.ndarray, np.ndarray]:
    """Rotation angle delta over a boosting-angle grid; returns (phi, delta)."""
    phis = np.asarray(phis, dtype=float)
    return phis, np.asarray(wigner_angle_tan_form(u, v, phis))


def golden_section_minimize(f, a: float, b: float, tol: float = 1e-8) -> float:
    """Golden-section search for the minimizer of a unimodal f on [a, b]."""
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while d - c > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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


def find_local_extrema(series: SweepSeries, tol: float = 1e-8) -> list[Extremum]:
    """Locate interior local extrema of Etilde(phi) in a sweep.

    Sample runs equal within 1e-14 are collapsed: a single-sample
    extremum (entropy strictly above/below both neighbors) is refined by
    golden-section search on the continuous Etilde(phi) to ``tol`` in
    phi, while a multi-sample plateau is reported once at its midpoint
    and flagged.  Endpoint samples never produce extrema.  The regime is
    classified with the same branch-safe delta >= pi/2 test used by
    :func:`wignerlab.kinematics.ultra_relativistic_condition`, so the
    two always agree.
    """
    req = series.request
    n = series.phi.size
    if n < 3:
        raise ValueError("need at least 3 rows to search for interior extrema")

    def etilde(p):
        return boosted_entropy_closed_form(
            req.eta, wigner_angle_tan_form(req.u, req.v, p), req.helicity_class
        )

    found = []
    for lo, hi, kind in _interior_extremum_runs(series.entropy):
        if hi > lo:  # plateau run
            phi_hat = 0.5 * (series.phi[lo] + series.phi[hi])
            plateau = True
        else:
            a, b = series.phi[lo - 1], series.phi[lo + 1]
            if kind is ExtremumKind.MINIMUM:
                phi_hat = golden_section_minimize(etilde, a, b, tol)
            else:
                phi_hat = golden_section_minimize(lambda p: -etilde(p), a, b, tol)
            plateau = False
        regime = (
            Regime.ULTRA
            if ultra_relativistic_condition(req.u, req.v, phi_hat)
            else Regime.MID
        )
        found.append(
            Extremum(
                phi=float(phi_hat),
                entropy=float(etilde(phi_hat)),
                kind=kind,
                regime=regime,
                plateau=plateau,
            )
        )
    return found


def threshold_speed_region(phi: float, u_speeds, v_speeds=None) -> np.ndarray:
    """Boolean matrix over (u, v): True where delta(u, v, phi) >= pi/2."""
    if not 0.0 < phi < math.pi:
        raise ValueError(f"phi must lie in (0, pi), got {phi}")
    u = np.asarray(u_speeds, dtype=float)
    v = u if v_speeds is None else np.asarray(v_speeds, dtype=float)
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


def emit_figure(figure_id: str, samples: int | None = None, threads: int = 0):
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
    """
    if samples is not None and (int(samples) != samples or samples < 2):
        raise ValueError(f"samples must be an integer >= 2, got {samples}")

    if figure_id == "1a":
        n = samples or 501
        speeds = np.linspace(0.0, _FIG1A_SPEED_MAX, n)
        rows = []
        for phi in _FIG1A_PHI_VALUES:
            delta = _chunked_eval(
                lambda s, phi=phi: np.asarray(wigner_angle_tan_form(s, s, phi)),
                speeds,
                threads,
            )
            rows.append(np.column_stack([speeds, np.full(n, phi), delta]))
        return Dataset(
            columns=("u", "phi", "delta"),
            rows=np.vstack(rows),
            metadata={
                "figure": "1a",
                "phi_values": list(_FIG1A_PHI_VALUES),
                "speed_max": _FIG1A_SPEED_MAX,
                "equal_speeds": True,
                "version": __version__,
            },
        )

    if figure_id == "1b":
        n = samples or 2001
        phis = np.linspace(0.0, math.pi, n)
        rows = []
        for u in _FIG1B_SPEEDS:
            delta = _chunked_eval(
                lambda p: np.asarray(wigner_angle_tan_form(u, u, p)), phis, threads
            )
            rows.append(np.column_stack([np.full(n, u), phis, delta]))
        return Dataset(
            columns=("u", "phi", "delta"),
            rows=np.vstack(rows),
            metadata={
                "figure": "1b",
                "speeds": list(_FIG1B_SPEEDS),
                "equal_speeds": True,
                "version": __version__,
            },
        )

    if figure_id == "1c":
        n = samples or 201
        phi = 3.0 * math.pi / 4.0
        speeds = np.linspace(0.0, _FIG1C_SPEED_MAX, n)
        ultra = threshold_speed_region(phi, speeds)
        rows = np.column_stack(
            [
                np.repeat(speeds, n),
                np.tile(speeds, n),
                ultra.astype(float).ravel(),
            ]
        )
        return Dataset(
            columns=("u", "v", "ultra"),
            rows=rows,
            metadata={
                "figure": "1c",
                "phi": phi,
                "equal_speed_threshold": equal_speed_ultra_threshold(phi),
                "version": __version__,
            },
        )

    if figure_id in ("3a", "3c"):
        speed = _FIG3A_SPEED if figure_id == "3a" else _FIG3C_SPEED
        request = SweepRequest(
            u=speed,
            v=speed,
            eta=_FIG3_ETA,
            helicity_class=HelicityClass.EQUAL_PLUS,
            samples=samples or 2001,
        )
        series = sweep_entanglement(request, threads=threads)
        extras = {"figure": figure_id, "phi_star": argmax_boost_angle(speed, speed)}
        crossings = ultra_phi_interval(speed, speed)
        if crossings is not None:
            extras["delta_half_pi_crossings"] = list(crossings)
        return SweepSeries(
            request=series.request,
            phi=series.phi,
            delta=series.delta,
            entropy=series.entropy,
            version=series.version,
            extra_metadata=extras,
        )

    if figure_id == "3b":
        n = samples or 2001
        u = _FIG3C_SPEED
        phis, delta = wigner_angle_sweep(u, u, np.linspace(0.0, math.pi, n))
        crossings = ultra_phi_interval(u, u)
        return Dataset(
            columns=("phi", "delta"),
            rows=np.column_stack([phis, delta]),
            metadata={
                "figure": "3b",
                "u": u,
                "v": u,
                "speed_factor_d": speed_factor_d(u, u),
                "delta_half_pi_crossings": list(crossings) if crossings else None,
                "version": __version__,
            },
        )

    raise ValueError(f"unknown figure id {figure_id!r}; known: {', '.join(FIGURE_IDS)}")
