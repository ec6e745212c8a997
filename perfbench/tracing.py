"""Span-recording wrappers around the package's public functions.

The traced run replaces each function in ``LAYERS`` with a wrapper that
records one span per call: name, start, end, parent span and the time
its child spans covered.  A function is rebound everywhere the package
looks it up -- module attributes, ``from``-imports in other modules,
module-level dicts such as ``cli._ANGLE_METHODS`` and class attributes
such as ``SweepSeries.to_csv_text`` -- and restored afterwards.  A name
that no longer resolves is an error: a renamed or inlined function would
otherwise read as zero calls and zero time, so a refactor of the package
updates ``LAYERS`` and ``BENCHMARK.json`` together.

Spans are kept in memory and written out once, after the run.  The
wrappers assume one thread, which holds while ``WIGNERLAB_THREADS`` is
unset: the package then evaluates grids in a single vectorized pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import time
from collections import Counter

# module -> wrapped callables, by qualified name inside the module
LAYERS = {
    "kinematics": (
        "compose_boosts",
        "boost_matrix",
        "lorentz_defect",
        "standard_boost_vectors",
        "wigner_angle_tan_form",
        "wigner_angle_cos_form",
        "wigner_angle_matrix_form",
        "speed_factor_d",
        "lorentz_gamma",
        "argmax_boost_angle",
        "ultra_relativistic_condition",
    ),
    "states": ("prepare_state", "boost_state"),
    "entanglement": (
        "reduced_density_matrix",
        "von_neumann_entropy",
        "boosted_entropy_closed_form",
        "boosted_entropy_derivative",
    ),
    "sweep": ("sweep_entanglement", "SweepSeries.to_csv_text", "find_local_extrema"),
    "verify": ("run_all",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)


def _resolve(module, qualname: str):
    """(owner, attribute) for ``qualname`` inside ``module``; LookupError if gone."""
    *path, attr = qualname.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not callable(vars(owner).get(attr)):
        raise LookupError(f"traced layer {module.__name__}.{qualname} no longer exists")
    return owner, attr


class Tracer:
    """Records spans while installed; one instance per traced execution."""

    def __init__(self):
        # (span_id, parent_id, name, start_ns, end_ns, child_ns); parent 0 = root
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # open spans: [span_id, child_ns]
        self._ids = itertools.count(1)

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append(
                    (frame[0], parent[0] if parent else 0, name, start, end, frame[1])
                )

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every package reference to a wrapped function; restore on exit."""
        patched = []  # (container, key, original), undone in reverse order
        try:
            for module_name, qualnames in LAYERS.items():
                module = importlib.import_module(f"wignerlab.{module_name}")
                for qualname in qualnames:
                    owner, attr = _resolve(module, qualname)
                    original = vars(owner)[attr]
                    wrapper = self._wrap(f"{module_name}.{qualname}", original)
                    setattr(owner, attr, wrapper)
                    patched.append((owner, attr, original))
                    patched += _rebind_references(original, wrapper)
            yield self
        finally:
            for container, key, original in reversed(patched):
                if isinstance(container, dict):
                    container[key] = original
                else:
                    setattr(container, key, original)

    def calls(self) -> Counter:
        return Counter(span[2] for span in self.spans)

    def self_seconds(self) -> Counter:
        out = Counter()
        for _, _, name, start, end, child in self.spans:
            out[name] += (end - start - child) / 1e9
        return out

    def write(self, path) -> None:
        """Spans as tab-separated rows: id, parent, name, start_ns, end_ns, self_ns."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
            for span_id, parent, name, start, end, child in self.spans:
                fh.write(f"{span_id}\t{parent}\t{name}\t{start}\t{end}\t{end - start - child}\n")


def _rebind_references(original, wrapper) -> list[tuple]:
    """Replace ``original`` by ``wrapper`` in every wignerlab module namespace.

    Covers ``from x import f`` bindings and module-level dicts that map
    names to functions.  Returns the (container, key, original) triples
    needed to undo the change.
    """
    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "wignerlab" or name.startswith("wignerlab.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                patched.append((module, key, original))
            elif isinstance(value, dict):
                for dict_key, dict_value in list(value.items()):
                    if dict_value is original:
                        value[dict_key] = wrapper
                        patched.append((value, dict_key, original))
    return patched
