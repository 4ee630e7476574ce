"""Spans for the benchmark's traced run.

The public functions in :data:`LAYERS` are wrapped wherever a ``bohrqed``
module holds them by name (``lattice.bq_mul_arr``, ``cli.tile``, ...), one
span is recorded per call, and the originals are restored on exit.  The
package source is not touched.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of the spans it
called directly; calls are sequential, so those never overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from typing import NamedTuple

#: Traced functions per module; a dotted name is a method of a class.
LAYERS = {
    "algebra": ("bq_mul_arr", "bq_frobenius_arr", "LorentzTransform.apply_array"),
    "lattice": ("bohr_phi_field", "dirac_apply_values", "wave_apply",
                "dirac_residual", "photon_residual", "equivalence_check",
                "transform_field", "write_field", "read_field"),
    "ensemble": ("tile", "verify_ensemble", "partition_regions", "scaling_sweep"),
    "bohr": ("solve_bohr", "local_solve_rho"),
    "mspace": ("boundary_points", "l_to_m"),
    "fitting": ("fit_loglog",),
    "cli": ("main", "write_csv", "write_json"),
}

#: Bytes a call moves, recorded on its span: the file for the field writer
#: and reader, and for dirac_residual its inputs phi1, phi2 and A.
SPAN_BYTES = {
    "lattice.write_field": lambda args: os.path.getsize(args[0]),
    "lattice.read_field": lambda args: os.path.getsize(args[0]),
    "lattice.dirac_residual": lambda args: 3 * args[0].phi1.nbytes,
}

#: Spans whose tracemalloc peak the memory job records, with the bytes of
#: one field of the call (None: the peak is reported in MiB only).
MEMORY_SPANS = {
    "lattice.dirac_residual": lambda args: args[0].phi1.nbytes,
    "lattice.equivalence_check": lambda args: args[1].values.nbytes,
    "ensemble.tile": None,
    "ensemble.verify_ensemble": None,
}


class Span(NamedTuple):
    id: int
    parent: int  # id of the span that made the call; -1 for none
    job: int
    name: str  # "<module>.<function>"
    start: float
    end: float
    self_s: float
    nbytes: int  # from SPAN_BYTES, else 0

    @property
    def busy_s(self) -> float:
        return self.end - self.start


class Peak(NamedTuple):
    job: int
    name: str
    peak_bytes: int
    field_bytes: int  # from MEMORY_SPANS, else 0


class Tracer:
    """Records a :class:`Span` per traced call and, in a memory job, a
    :class:`Peak` per call of the functions in :data:`MEMORY_SPANS`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.peaks: list[Peak] = []
        self.job = 0
        self._open: list[list] = []  # [span id, time spent in children]
        self._next_id = 0

    def _timed(self, name, fn):
        span_bytes = SPAN_BYTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1][0] if self._open else -1
            self._open.append([span_id, 0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                children = self._open.pop()[1]
                if self._open:
                    self._open[-1][1] += end - start
                self.spans.append(Span(span_id, parent, self.job, name, start, end,
                                       end - start - children,
                                       span_bytes(args) if span_bytes else 0))
        wrapper.traced_as = name
        return wrapper

    def _peak(self, name, fn):
        field_bytes = MEMORY_SPANS[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():  # nested: the outer span measures
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks.append(Peak(self.job, name, peak,
                                       field_bytes(args) if field_bytes else 0))
        wrapper.traced_as = name
        return wrapper

    @contextmanager
    def installed(self, job: int, memory: bool = False):
        """Wrap the traced functions for one job: time spans, or with
        ``memory`` the tracemalloc peaks of :data:`MEMORY_SPANS` only."""
        self.job = job
        modules = package_modules()
        patches = []
        for module_name, names in LAYERS.items():
            module = sys.modules[f"bohrqed.{module_name}"]
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                span = f"{module_name}.{attr}"
                if memory and span not in MEMORY_SPANS:
                    continue
                wrap = self._peak if memory else self._timed
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = vars(owner)[attr]
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrap(span, original))
                    continue
                original = getattr(module, attr)
                wrapper = wrap(span, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
        try:
            yield
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    def write(self, path) -> None:
        """All spans as CSV, one line each."""
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(Span._fields) + "\n")
            for span in sorted(self.spans):
                fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in span) + "\n")


def package_modules() -> list:
    return [m for key, m in list(sys.modules.items())
            if key == "bohrqed" or key.startswith("bohrqed.")]


def installed_wrappers() -> list[str]:
    """Names under which a wrapper is still reachable in the package."""
    holders = package_modules() + [sys.modules["bohrqed.algebra"].LorentzTransform]
    return [f"{getattr(h, '__name__', h)}.{key}" for h in holders
            for key, value in vars(h).items() if hasattr(value, "traced_as")]
