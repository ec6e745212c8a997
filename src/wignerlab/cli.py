"""Command-line interface.

Subcommands: angle (rotation-angle computation by one or all methods),
boost (state boosting plus entropies), sweep (entanglement vs boosting
angle, to file), figure (reference-figure datasets, to file), verify
(the invariant suite).

Angles are radians unless ``--degrees`` is given.  Exit codes: 0 on
success, 1 on usage or validation errors and on an output file that
cannot be written, 2 when verification fails.
Files are written atomically (temp file + rename), so no partial output
is left behind on error; CSV rows go to the temp file a chunk at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import sys
import tempfile

from . import kinematics as kin
from ._version import __version__
from .entanglement import boosted_entropy_closed_form, rest_frame_entropy
from .states import HelicityClass, boost_state, prepare_state
from .sweep import FIGURE_IDS, SweepRequest, emit_figure, sweep_entanglement
from .verify import format_report, run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors (2 is reserved for verify)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _atomic_write(path: str, chunks) -> None:
    """Write byte chunks to a temp file beside ``path``, then rename it over ``path``.

    The chunks are written as they come.  Any exception, also one raised
    by the chunks' producer after the first chunk, removes the temp file
    and leaves ``path`` as it was.  An ``OSError`` comes out as a
    ValueError that names ``path``, so the CLI reports it in one line.
    """
    if not path:  # abspath would turn "" into the working directory itself
        raise ValueError(f"cannot write '': {os.strerror(errno.ENOENT)}")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wignerlab-", suffix=".tmp")
        try:
            with open(fd, "wb") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write '{path}': {exc.strerror or exc}") from exc


def _write_table(table, fmt: str, path: str) -> None:
    """Write a sweep or figure table atomically, as streamed CSV or indented JSON."""
    if fmt == "csv":
        chunks = table.csv_chunks()
    else:
        chunks = [(json.dumps(table.to_json_dict(), indent=2) + "\n").encode()]
    _atomic_write(path, chunks)


def _to_radians(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


_ANGLE_METHODS = {
    "cos": kin.wigner_angle_cos_form,
    "tan": kin.wigner_angle_tan_form,
    "matrix": kin.wigner_angle_matrix_form,
}


def _cmd_angle(args) -> int:
    phi = _to_radians(args.phi, args.degrees)
    methods = list(_ANGLE_METHODS) if args.method == "all" else [args.method]
    values = {m: _ANGLE_METHODS[m](args.u, args.v, phi) for m in methods}
    for m in methods:
        d = values[m]
        print(f"{m:<6} delta = {d:.17g} rad = {math.degrees(d):.17g} deg")
    if len(values) > 1:
        spread = max(values.values()) - min(values.values())
        print(f"max pairwise deviation: {spread:.3e}")
    return EXIT_OK


def _cmd_boost(args) -> int:
    has_delta = args.delta is not None
    geometry = [args.u, args.v, args.phi]
    has_geometry = any(x is not None for x in geometry)
    if has_delta and has_geometry:
        raise ValueError("give either --delta or the geometry (--u --v --phi), not both")
    if has_delta:
        delta = _to_radians(args.delta, args.degrees)
    else:
        if not all(x is not None for x in geometry):
            raise ValueError("need --delta, or all of --u, --v and --phi")
        delta = kin.wigner_angle_tan_form(
            args.u, args.v, _to_radians(args.phi, args.degrees)
        )
    eta = _to_radians(args.eta, args.degrees)
    helicity_class = HelicityClass(args.helicity_class)
    boosted = boost_state(prepare_state(helicity_class, eta), delta)
    payload = {
        "state": boosted.to_json_dict(),
        "entropy_rest_bits": rest_frame_entropy(eta, helicity_class),
        "entropy_boosted_bits": boosted_entropy_closed_form(eta, delta, helicity_class),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out is not None:
        _atomic_write(args.out, [text.encode()])
    print(text, end="")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    request = SweepRequest(
        u=args.u,
        v=args.v,
        eta=_to_radians(args.eta, args.degrees),
        helicity_class=HelicityClass(args.helicity_class),
        phi_min=_to_radians(args.phi_min, args.degrees),
        phi_max=_to_radians(args.phi_max, args.degrees),
        samples=args.samples,
    )
    _write_table(sweep_entanglement(request), args.format, args.out)
    print(f"wrote {request.samples} rows to {args.out}")
    return EXIT_OK


def _cmd_figure(args) -> int:
    _write_table(emit_figure(args.id, samples=args.samples), args.format, args.out)
    print(f"wrote figure {args.id} to {args.out}")
    return EXIT_OK


def _parse_tolerance_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--tol expects NAME=VALUE, got {pair!r}")
        tolerance = float(value)
        if not tolerance >= 0.0:  # NaN fails too
            raise ValueError(f"--tol {name} must be >= 0, got {value!r}")
        overrides[name] = tolerance
    return overrides


def _cmd_verify(args) -> int:
    results = run_all(grid=args.grid, tolerances=_parse_tolerance_overrides(args.tol))
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


# The --class option of boost and sweep.
_CLASS_ARGUMENT = {
    "dest": "helicity_class", "choices": [c.value for c in HelicityClass], "required": True
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wignerlab",
        description="Thomas-Wigner rotation angles and spin-momentum entanglement "
        "of boosted spin-1/2 states.",
    )
    parser.add_argument("--version", action="version", version=f"wignerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_angle = sub.add_parser("angle", help="compute the rotation angle")
    p_angle.add_argument("--u", type=float, required=True, help="particle speed, units of c")
    p_angle.add_argument("--v", type=float, required=True, help="observer speed, units of c")
    p_angle.add_argument("--phi", type=float, required=True, help="boosting angle in [0, pi]")
    p_angle.add_argument("--method", choices=(*_ANGLE_METHODS, "all"), default="all")
    p_angle.add_argument("--degrees", action="store_true", help="angle inputs in degrees")
    p_angle.set_defaults(func=_cmd_angle)

    p_boost = sub.add_parser("boost", help="boost a state and report entropies")
    p_boost.add_argument("--class", **_CLASS_ARGUMENT)
    p_boost.add_argument("--eta", type=float, required=True, help="preparation angle")
    p_boost.add_argument("--delta", type=float, help="rotation angle in [0, pi]")
    p_boost.add_argument("--u", type=float, help="particle speed (with --v --phi)")
    p_boost.add_argument("--v", type=float, help="observer speed (with --u --phi)")
    p_boost.add_argument("--phi", type=float, help="boosting angle (with --u --v)")
    p_boost.add_argument("--out", help="also write the JSON to this file")
    p_boost.add_argument("--degrees", action="store_true", help="angle inputs in degrees")
    p_boost.set_defaults(func=_cmd_boost)

    p_sweep = sub.add_parser("sweep", help="entanglement vs boosting angle, to file")
    p_sweep.add_argument("--u", type=float, required=True)
    p_sweep.add_argument("--v", type=float, required=True)
    p_sweep.add_argument("--eta", type=float, required=True)
    p_sweep.add_argument("--class", **_CLASS_ARGUMENT)
    p_sweep.add_argument("--phi-min", type=float, default=0.0)
    p_sweep.add_argument("--phi-max", type=float, default=math.pi)
    p_sweep.add_argument("--samples", type=int, default=2001)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--degrees", action="store_true", help="angle inputs in degrees")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_figure = sub.add_parser("figure", help="emit a reference-figure dataset")
    p_figure.add_argument("--id", choices=FIGURE_IDS, required=True)
    p_figure.add_argument("--out", required=True)
    p_figure.add_argument("--format", choices=("csv", "json"), default="csv")
    p_figure.add_argument("--samples", type=int, help="override grid density")
    p_figure.set_defaults(func=_cmd_figure)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--grid", type=int, default=50, help="base grid size")
    p_verify.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="override a check tolerance (repeatable)",
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"wignerlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
