"""The two workloads of the bohrqed benchmark and the four parts they run.

Every workload is a closed loop: one client in one process runs fixed jobs
back to back.  A job runs the jobs of the workload's parts one after the
other: ``lattice-io`` runs the lattice verification battery and a field
text round trip, ``tiling-scan`` two large roundel tilings and a scan of
many small operations.  A part builds its inputs from the benchmark's seed
(the package sees only those inputs), runs through the public API or the
in-process CLI, and checks its outputs after the job's clock stopped.
``tiny=True`` builds the same job at a size that runs in a fraction of a
second; the harness runs it as the warm-up and as the self-check.

On a shared 2-vCPU host, four workloads of one part each left runs too
short for steady figures within the benchmark's time limit; two workloads
of two parts get runs twice as long.  Each pairing keeps one workload that
exercises a planned optimization and one that bypasses it: stencil fusion
and a faster field writer move ``lattice-io`` only, a cell list for the
ownership search and a cheaper CLI move ``tiling-scan`` only.

A job is a list of operations.  ``check`` returns one :class:`Op` per
operation with its verdict and a fingerprint: values that must repeat on
every job of a run and, at the default seed, match ``reference.json``,
which was recorded from the seed commit.

Each workload's ``predicts`` names the end-to-end metric that a per-layer
metric should move on it.  In addition, ``cli.import_s`` moves ``setup_s``
on every workload; for every other pairing the prediction is no change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bohrqed import bohr, cli, lattice, mspace
from bohrqed.algebra import LorentzTransform
from bohrqed.bohr import BohrInput
from bohrqed.lattice import HypercubicLattice, LatticeField, ReflectorField

COMPLEX_BYTES = 16


@dataclass
class Op:
    """One operation of a job and the verdict of its output checks."""

    name: str
    fingerprint: dict = field(default_factory=dict)
    problem: str = ""  # why the operation failed; empty when it passed
    known: bool = False  # failed through a defect recorded at the seed commit

    def require(self, condition: bool, problem: str) -> None:
        if not condition and not self.problem:
            self.problem = problem


def _cli(args: list[str], out: Path) -> int:
    """One in-process CLI call with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(args + ["--out", str(out)])


def _digest(directory: Path, names=None) -> str:
    """sha256 over the named artifacts of one output directory (all by default)."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if names is None or path.name in names:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _cli_op(name: str, code: int, out: Path) -> Op:
    op = Op(name, {"artifacts": _digest(out)})
    op.require(code == 0, f"exit code {code}")
    return op


def _field_bytes(extent) -> int:
    return math.prod(extent) * 4 * COMPLEX_BYTES


# ---------------------------------------------------------------------------
# lattice: the verification battery on a 24^4 lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeInputs:
    extent: tuple[int, int, int, int]
    f: float  # central coupling of the sampled Bohr orbit
    k: tuple[float, float, float, float]  # plane-wave numbers
    boost_axis: int
    rapidity: float


class LatticeBattery:
    """The verification battery on a 24^4 lattice (331,776 sites).

    Runs the algebra and lattice kernels and nothing else.  One reflector
    field is 40 MiB and dirac_residual peaks at 111 MiB of temporaries,
    above the 105 MiB L3, so fewer temporaries show here in time and in
    memory.  A 32^4 job costs about 10 s and its spread reached 25%.
    """

    name = "lattice"
    unit = "site-evals"
    spacing = 0.05

    def inputs(self, seed: int, tiny: bool) -> LatticeInputs:
        rng = np.random.default_rng(seed)
        return LatticeInputs(
            extent=(4,) * 4 if tiny else (24,) * 4,
            f=-float(rng.uniform(0.01, 0.3)),
            k=tuple(float(x) for x in rng.uniform(0.3, 1.5, 4)),
            boost_axis=int(rng.integers(3)),
            rapidity=float(rng.uniform(0.2, 1.2)),
        )

    def ops(self, inp) -> int:
        return 5

    def work(self, inp) -> int:
        return math.prod(inp.extent) * 4  # four residual evaluations per site

    def arrays(self, inp) -> dict[str, int]:
        f = _field_bytes(inp.extent)
        return {"field": f, "reflector_field": 2 * f,
                "dirac_residual_inputs": 3 * f}

    def bytes_moved(self, inp) -> int:
        # Inputs each kernel must read once: 2 x dirac (phi1, phi2, A),
        # photon (A, J), wave_apply for J_k (A_k), equivalence (A_k, J_k).
        return 11 * _field_bytes(inp.extent)

    def job(self, inp: LatticeInputs, out: Path) -> dict:
        state = bohr.solve_bohr(BohrInput(e=1.0, f=inp.f, n=1, m=1.0))
        lat = HypercubicLattice(spacing=self.spacing, extent=inp.extent)
        phi = lattice.bohr_phi_field(lat, state)
        pot = lattice.bohr_potential_field(lat, state)
        result = {"fields": (phi, pot)}
        result["dirac"] = lattice.dirac_residual(phi, pot, e=1.0, mass=1.0)
        result["dirac-conjugate"] = lattice.dirac_residual(
            lattice.charge_conjugate_field(phi), pot, e=-1.0, mass=1.0)

        wave = np.zeros(lat.extent + (4,), dtype=complex)
        wave[..., 0] = np.exp(1j * sum(
            k * g for k, g in zip(inp.k, lat.coordinate_grids())))
        source = _continuum_eigenvalue(inp.k) * wave
        result["photon"] = lattice.photon_residual(
            LatticeField(lat, wave), LatticeField(lat, source))

        axis = [0.0, 0.0, 0.0]
        axis[inp.boost_axis] = 1.0
        _, lat_k, binding = lattice.build_lattices(
            a=0.1, R_k=0.2, extent=inp.extent,
            Z=LorentzTransform.boost(axis, inp.rapidity))
        g = lat_k.coordinate_grids()
        a_vals = np.zeros(lat_k.extent + (4,), dtype=complex)
        a_vals[..., 0] = 1j * np.sin(inp.k[1] * g[1]) * np.cos(inp.k[0] * g[0])
        a_vals[..., 2] = 0.5 * np.cos(inp.k[3] * g[3])
        current = LatticeField(lat_k, np.nan_to_num(
            lattice.wave_apply(a_vals, lat_k)), label="current")
        result["equivalence"] = lattice.equivalence_check(
            binding, LatticeField(lat_k, a_vals), current)
        return result

    def check(self, inp: LatticeInputs, result: dict, out: Path) -> list[Op]:
        phi, pot = result["fields"]
        fields = Op("fields", {"phi2_abs_sum": float(np.abs(phi.phi2).sum())})
        fields.require(bool(np.all(np.isfinite(phi.phi1))
                            and np.all(np.isfinite(phi.phi2))),
                       "non-finite wave-function field")
        fields.require(float(np.max(np.abs(np.abs(phi.phi1[..., 0]) - 1.0)))
                       <= 1e-12, "phi1 is not a unit phase")

        base, conj = result["dirac"], result["dirac-conjugate"]
        dirac = Op("dirac", {"max_residual": base.max_residual,
                             "field_scale": base.field_scale})
        dirac.require(math.isfinite(base.max_residual)
                      and base.max_residual > 0, "residual not finite positive")
        conjugate = Op("dirac-conjugate", {"max_residual": conj.max_residual})
        rel = abs(conj.max_residual - base.max_residual) / base.max_residual
        conjugate.require(rel <= 1e-12,
                          f"charge conjugation |delta|/base = {rel:.3e} > 1e-12")

        gap = abs(_discrete_eigenvalue(inp.k, 2 * self.spacing)
                  - _continuum_eigenvalue(inp.k))
        measured = result["photon"].max_residual
        photon = Op("photon", {"max_residual": measured})
        photon.require(abs(measured - gap) <= 1e-6 * gap + 1e-12,
                       f"plane-wave residual {measured!r} != stencil gap {gap!r}")

        eq = result["equivalence"]
        equivalence = Op("equivalence", {"lk_residual": eq.lk_residual,
                                         "scale_factor": eq.scale_factor})
        equivalence.require(eq.commutation_residual <= 1e-10,
                            f"commutation residual {eq.commutation_residual:.3e}"
                            " > 1e-10")
        return [fields, dirac, conjugate, photon, equivalence]


def _continuum_eigenvalue(k) -> float:
    """``-d0^2 + d1^2 + d2^2 + d3^2`` on ``exp(i k.x)``."""
    return k[0] ** 2 - k[1] ** 2 - k[2] ** 2 - k[3] ** 2


def _discrete_eigenvalue(k, step: float) -> float:
    """The 3-point stencil's eigenvalue on the same plane wave."""
    kappa2 = [(2.0 - 2.0 * math.cos(km * step)) / step ** 2 for km in k]
    return kappa2[0] - kappa2[1] - kappa2[2] - kappa2[3]


# ---------------------------------------------------------------------------
# tiling: two roundel tilings through the CLI
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TileCall:
    kind: str
    radius: float
    args: tuple[str, ...]

    @property
    def roundels(self) -> int:
        dim = 2 if self.kind == "pure" else 3
        return int(math.floor(1.0 / (2.0 * self.radius) + 1e-9)) ** dim


def _tile_call(kind: str, radius: float, seed: int, regions: int = 1) -> TileCall:
    args = ["tile", f"--radius={radius!r}", f"--kind={kind}", f"--seed={seed}"]
    if regions > 1:
        args.append(f"--regions-per-axis={regions}")
    return TileCall(kind, radius, tuple(args))


class Tiling:
    """Two CLI tilings: 2-D pure at radius 0.01 in 4x4 regions (2,500
    roundels) and 3-D superposition at radius 1/24 (1,728 roundels).

    Nearly all the work is ensemble geometry (the O(N^2) ownership search)
    and none of it is lattice.  The two dimensions check 9 against 27
    neighbour cells under a future cell list.
    """

    name = "tiling"
    unit = "roundels"

    def inputs(self, seed: int, tiny: bool) -> tuple[TileCall, ...]:
        # Radii must divide the unit box side: 0.007, say, exits 3.
        if tiny:
            return (_tile_call("pure", 0.25, seed, regions=2),
                    _tile_call("superposition", 0.25, seed))
        return (_tile_call("pure", 0.01, seed, regions=4),
                _tile_call("superposition", 1.0 / 24.0, seed))

    def ops(self, inp) -> int:
        return len(inp)

    def work(self, inp) -> int:
        return sum(call.roundels for call in inp)

    def arrays(self, inp) -> dict[str, int]:
        sizes = {}
        for call in inp:
            dim = 2 if call.kind == "pure" else 3
            points = call.roundels * 8  # default boundary samples per roundel
            sizes[f"{call.kind}.boundary_points"] = points * dim * 8
            # _owners_of compares 2048-point blocks against every center
            sizes[f"{call.kind}.owner_block"] = min(points, 2048) * call.roundels * dim * 8
        return sizes

    def bytes_moved(self, inp) -> int:
        total = 0
        for call in inp:
            dim = 2 if call.kind == "pure" else 3
            total += call.roundels * 8 * call.roundels * dim * 8
        return total  # every point-center difference of the ownership search

    def job(self, inp, out: Path) -> list[int]:
        return [_cli(list(call.args), out / call.kind) for call in inp]

    def check(self, inp, codes: list[int], out: Path) -> list[Op]:
        ops = []
        for call, code in zip(inp, codes):
            op = _cli_op(f"tile-{call.kind}", code, out / call.kind)
            if code == 0:
                summary = json.loads((out / call.kind / "tile_summary.json").read_text())
                op.require(summary["roundels"] == call.roundels,
                           f"{summary['roundels']} roundels, expected {call.roundels}")
            ops.append(op)
        return ops


# ---------------------------------------------------------------------------
# field-io: text round trip of two seeded random fields
# ---------------------------------------------------------------------------

class FieldIO:
    """Text round trip of a seeded random 12^4 ReflectorField and LatticeField.

    Exercises the lattice module's writer and reader, not its kernels; the
    spans of write_field and read_field tell a faster writer from a fused
    stencil.  At 16^4 a part took 4-6 s on a 2-vCPU host, too much of a
    job; the work is per site, so 12^4 measures the same code.
    """

    name = "field-io"
    unit = "sites"

    def inputs(self, seed: int, tiny: bool) -> tuple[ReflectorField, LatticeField]:
        rng = np.random.default_rng(seed)
        lat = HypercubicLattice(spacing=0.1, extent=(3,) * 4 if tiny else (12,) * 4,
                                origin=tuple(rng.uniform(-1.0, 1.0, 4)))
        shape = lat.extent + (4,)

        def draw():
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        return (ReflectorField(lat, draw(), draw()), LatticeField(lat, draw()))

    def ops(self, inp) -> int:
        return 2

    def work(self, inp) -> int:
        return 2 * math.prod(inp[0].lattice.extent)

    def arrays(self, inp) -> dict[str, int]:
        return {"reflector_field": inp[0].phi1.nbytes + inp[0].phi2.nbytes,
                "lattice_field": inp[1].values.nbytes}

    def bytes_moved(self, inp) -> int:
        return 2 * sum(self.arrays(inp).values())  # written once, read once

    def job(self, inp, out: Path) -> tuple:
        out.mkdir(parents=True, exist_ok=True)
        lattice.write_field(out / "reflector.field", inp[0])
        reflector = lattice.read_field(out / "reflector.field")
        lattice.write_field(out / "lattice.field", inp[1])
        return reflector, lattice.read_field(out / "lattice.field")

    def check(self, inp, back, out: Path) -> list[Op]:
        reflector = Op("reflector-roundtrip",
                       {"file": _digest(out, {"reflector.field"})})
        reflector.require(back[0].lattice == inp[0].lattice
                          and np.array_equal(back[0].phi1, inp[0].phi1)
                          and np.array_equal(back[0].phi2, inp[0].phi2),
                          "reflector field did not round-trip bitwise")
        field_ = Op("lattice-roundtrip", {"file": _digest(out, {"lattice.field"})})
        field_.require(back[1].lattice == inp[1].lattice
                       and np.array_equal(back[1].values, inp[1].values),
                       "lattice field did not round-trip bitwise")
        return [reflector, field_]


# ---------------------------------------------------------------------------
# orbit-scan: many small operations in one process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Orbit:
    n: int
    f: float
    center: tuple[float, float, float, float]  # (x0, r, theta, x3)
    kind: str


@dataclass(frozen=True)
class OrbitInputs:
    seed: int
    orbits: tuple[Orbit, ...]
    commands: tuple[tuple[str, tuple[str, ...]], ...]  # (op name, CLI args)
    map_points: int


#: The seed commit's own failing check, counted as a failed operation: the
#: roundel sweep expects the 2-D eBa exponent for both kinds, while nl (and so
#: eBa = nl*f) is dimension-aware and gives -2 in 3-D.
SWEEP_DEFECT = ("scaling-sweep-superposition", "roundel-slope-eBa", -1.0, -2.0)


class OrbitScan:
    """Many small operations in one process: 100 solve-bohr calls, a
    20,001-point local-solve, both scaling sweeps at 2,000 radii and
    spacings, lattice-verify, the acceptance tilings and 100 orbit-to-M-space
    maps.

    Without it bohr, fitting, mspace and the per-call cost of cli (argparse
    rebuilt on every call, report and CSV writing) go unmeasured.
    """

    name = "orbit-scan"
    unit = "ops"

    def inputs(self, seed: int, tiny: bool) -> OrbitInputs:
        rng = np.random.default_rng(seed)
        count = 3 if tiny else 100
        ns = rng.integers(1, 4, count)
        speeds = rng.uniform(0.001, 0.9, count)
        orbits = tuple(
            Orbit(n=int(n), f=-float(v) * int(n),
                  center=(float(rng.uniform(-1, 1)), float(rng.uniform(0, 2)),
                          float(rng.uniform(0, 2 * math.pi)),
                          float(rng.uniform(-1, 1))),
                  kind=("pure", "superposition")[i % 2])
            for i, (n, v) in enumerate(zip(ns, speeds)))
        sweep = "9" if tiny else "2000"
        commands = [(f"solve-bohr-{i:03d}",
                     ("solve-bohr", f"--f={o.f!r}", f"--n={o.n}"))
                    for i, o in enumerate(orbits)]
        commands += [
            ("local-solve", ("local-solve", f"--a-count={101 if tiny else 20001}",
                             "--include-zero")),
            ("scaling-sweep-pure", ("scaling-sweep", "--kind=pure",
                                    f"--r-count={sweep}", f"--a-count={sweep}")),
            ("scaling-sweep-superposition", ("scaling-sweep", "--kind=superposition",
                                             f"--r-count={sweep}", f"--a-count={sweep}")),
            ("lattice-verify", ("lattice-verify", "--conjugate-charge")
             + (("--extent=6", "--spacings", "0.2", "0.1") if tiny else ())),
            ("tile-pure", ("tile", "--radius=0.25", "--kind=pure")),
            ("tile-superposition", ("tile", "--radius=0.25", "--kind=superposition")),
        ]
        commands = tuple((name, args + (f"--seed={seed}",)) for name, args in commands)
        return OrbitInputs(seed=seed, orbits=orbits, commands=commands,
                           map_points=8 if tiny else 32)

    def ops(self, inp) -> int:
        return len(inp.commands) + len(inp.orbits)

    def work(self, inp) -> int:
        return self.ops(inp)

    def arrays(self, inp) -> dict[str, int]:
        return {"lattice_verify_field": _field_bytes((16, 16, 3, 3)),
                "local_solve_grid": 20001 * 8}

    def bytes_moved(self, inp) -> int:
        return 0  # scalar work: no array large enough to matter

    def job(self, inp: OrbitInputs, out: Path) -> tuple[list[int], list]:
        codes = [_cli(list(args), out / name) for name, args in inp.commands]
        maps = []
        for orbit in inp.orbits:
            state = bohr.solve_bohr(BohrInput(e=1.0, f=orbit.f, n=orbit.n, m=1.0))
            spec = mspace.RoundelSpec(center=mspace.LPoint(*orbit.center),
                                      R=state.R, kind=orbit.kind)
            points = mspace.boundary_points(spec, inp.map_points, seed=inp.seed)
            images = [mspace.l_to_m(p, state.R) for p in points]
            maps.append((points, images,
                         [mspace.m_to_l(q, state.R) for q in images]))
        return codes, maps

    def check(self, inp: OrbitInputs, result, out: Path) -> list[Op]:
        codes, maps = result
        ops = []
        for (name, _), code in zip(inp.commands, codes):
            if name == SWEEP_DEFECT[0]:
                ops.append(_sweep_defect_op(code, out / name))
            else:
                ops.append(_cli_op(name, code, out / name))
        for i, (points, images, backs) in enumerate(maps):
            op = Op(f"orbit-map-{i:03d}", {"s_sum": math.fsum(q.s for q in images)})
            worst = max(_roundtrip_error(p, b) for p, b in zip(points, backs))
            # The package's own tolerance: theta = (R*theta)/R is exact only
            # to rounding, so about one point in ten differs in its last bit.
            op.require(worst <= 1e-14, f"m_to_l(l_to_m(p)) is off p by {worst:.3e}")
            ops.append(op)
        return ops


def _roundtrip_error(p: mspace.LPoint, back: mspace.LPoint) -> float:
    if (back.x0, back.r, back.x3) != (p.x0, p.r, p.x3):
        return math.inf
    angle = p.theta + 2 * math.pi * p.turns
    return abs(back.theta + 2 * math.pi * back.turns - angle) / max(1.0, abs(angle))


def _sweep_defect_op(code: int, out: Path) -> Op:
    """The superposition sweep: its data must match, its exit code is the
    seed commit's known defect until the expected exponent is fixed."""
    name, check_name, expected, measured = SWEEP_DEFECT
    op = Op(name, {"data": _digest(out, {"roundel_sweep.csv", "lattice_sweep.csv"})})
    if code == 0:
        return op
    if code != 1:  # the CLI writes its report on exit codes 0 and 1 only
        op.problem = f"exit code {code}"
        return op
    report = json.loads((out / "scaling_sweep_report.json").read_text())
    failing = [c for c in report["checks"] if not c["passed"]]
    if ([c["name"] for c in failing] == [check_name]
            and failing[0]["expected"] == expected
            and abs(failing[0]["measured"] - measured) <= 0.02):
        op.known = True
        op.problem = (f"known seed defect: {check_name} measured "
                      f"{failing[0]['measured']:.4f} against expected {expected:g}; "
                      "SCALING_EXPONENTS uses the 2-D value for both kinds")
    else:
        op.problem = f"exit code {code}, failing checks {[c['name'] for c in failing]}"
    return op


# ---------------------------------------------------------------------------
# The workloads: parts run back to back in one job
# ---------------------------------------------------------------------------

class Workload:
    """A job that runs the jobs of ``parts`` one after the other.

    Work is counted in jobs, because the parts count theirs in different
    units; :meth:`part_work` gives those.  Operation names are prefixed
    with their part's name, and each part writes under its own directory.
    """

    unit = "jobs"

    def __init__(self, name: str, parts: tuple, predicts: tuple[str, ...]):
        self.name = name
        self.parts = parts
        self.predicts = predicts

    def inputs(self, seed: int, tiny: bool) -> tuple:
        return tuple(part.inputs(seed, tiny) for part in self.parts)

    def _each(self, inp):
        return zip(self.parts, inp)

    def ops(self, inp) -> int:
        return sum(part.ops(i) for part, i in self._each(inp))

    def work(self, inp) -> int:
        return 1

    def part_work(self, inp) -> dict[str, str]:
        return {part.name: f"{part.work(i)} {part.unit}" for part, i in self._each(inp)}

    def arrays(self, inp) -> dict[str, int]:
        return {f"{part.name}.{key}": nbytes for part, i in self._each(inp)
                for key, nbytes in part.arrays(i).items()}

    def bytes_moved(self, inp) -> int:
        return sum(part.bytes_moved(i) for part, i in self._each(inp))

    def job(self, inp, out: Path) -> tuple:
        return tuple(part.job(i, out / part.name) for part, i in self._each(inp))

    def check(self, inp, result, out: Path) -> list[Op]:
        ops = []
        for (part, i), r in zip(self._each(inp), result):
            for op in part.check(i, r, out / part.name):
                op.name = f"{part.name}/{op.name}"
                ops.append(op)
        return ops


WORKLOADS = {wl.name: wl for wl in (
    Workload("lattice-io", (LatticeBattery(), FieldIO()), predicts=(
        "algebra.*, lattice.dirac_*, lattice.wave_apply, "
        "lattice.equivalence_check, lattice.dirac_residual.copy_ratio -> "
        "work_per_s and job_s_p50 on lattice-io",
        "lattice.*.peak_fields -> peak_rss_mib on lattice-io",
        "lattice.write_field, lattice.read_field -> work_per_s and job_s_p50 "
        "on lattice-io",
    )),
    Workload("tiling-scan", (Tiling(), OrbitScan()), predicts=(
        "ensemble.tile.self_s, ensemble.verify_ensemble -> work_per_s and "
        "job_s_p50 on tiling-scan",
        "ensemble.*.peak_mib -> peak_rss_mib on tiling-scan",
        "cli.main.self_s, cli.write_csv, bohr.*, fitting.*, mspace.* -> "
        "job_s_p50 on tiling-scan",
    )),
)}
