"""Batch front end: solves, tilings, lattice verifications, scaling sweeps.

Every command writes deterministic artifacts (CSV tables with 17
significant digits, LF endings; JSON reports with sorted keys) into the
output directory and prints one line per check.  Exit codes: 0 all
checks pass, 1 a check failed, 2 configuration error, 3 domain error (a
:class:`~bohrqed.DomainError`, and nothing else), 4 internal error (any
other exception; its traceback goes to stderr), 5 out of memory (a
``MemoryError``, numpy's for an array too big included).  A run that
exits 3, 4 or 5 once its output directory resolves still writes its
report: the checks made so far, the exit code and the error's type and
message.

Every option may also come from a ``--config`` file of ``key = value``
lines, parsed as flags before the command line's own, which win;
``true``/``false`` set a bare flag (any other word but 1/yes/on and
0/no/off is a config error), space-separated values a sequence.
The output directory resolves in order: ``--out``, ``BOHRQED_OUT``, the
config file's ``out``, ``./bohrqed-out``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from ._domain import DomainError, finite, positive, whole
from .algebra import LorentzTransform, bq_frobenius_arr
from .bohr import (
    BohrInput,
    local_solve_rho,
    mass_shell_residual,
    solve_bohr,
)
from .ensemble import (
    InfeasibleCoverage,
    count_interactions,
    partition_regions,
    scaling_sweep,
    tile,
    verify_ensemble,
)
from .fitting import fit_loglog
from .mspace import kind_dim
from .lattice import (
    HypercubicLattice,
    LatticeField,
    _replacing,
    bohr_phi_field,
    bohr_potential_field,
    build_lattices,
    charge_conjugate_field,
    dirac_apply_values,
    dirac_residual,
    equivalence_check,
    limit_sweep,
    photon_residual,
    renormalize_mass,
    wave_apply,
)

EXIT_OK, EXIT_CHECK_FAIL, EXIT_CONFIG, EXIT_DOMAIN, EXIT_INTERNAL, EXIT_MEMORY = (
    0, 1, 2, 3, 4, 5)

SLOPE_TOL = 0.02


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------

class RunReport:
    """Accumulates named checks; overall status is the AND of all of them."""

    def __init__(self, command: str, seed: int, config_hash: str):
        self.command = command
        self.meta = {"version": __version__, "seed": seed,
                     "config_hash": config_hash}
        self.checks: list[dict] = []

    def check(self, name: str, measured: float, expected: float,
              tolerance: float, mode: str = "within") -> bool:
        if mode == "within":
            passed = abs(measured - expected) <= tolerance
        elif mode == "at-least":
            passed = measured >= expected - tolerance
        elif mode == "at-most":
            passed = measured <= expected + tolerance
        else:
            raise ValueError(f"unknown check mode {mode!r}")
        self.checks.append({
            "name": name, "measured": measured, "expected": expected,
            "tolerance": tolerance, "mode": mode, "passed": bool(passed),
            "skipped": False,
        })
        return passed

    def skip(self, name: str, reason: str) -> None:
        self.checks.append({"name": name, "skipped": True, "reason": reason,
                            "passed": True})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def print_lines(self) -> None:
        for c in self.checks:
            if c.get("skipped"):
                print(f"[skip] {self.command}:{c['name']} ({c['reason']})")
            else:
                status = "pass" if c["passed"] else "FAIL"
                print(f"[{status}] {self.command}:{c['name']} "
                      f"measured={_fmt(c['measured'])} "
                      f"expected={_fmt(c['expected'])} "
                      f"tol={_fmt(c['tolerance'])} ({c['mode']})")

    def as_dict(self) -> dict:
        return {"command": self.command, "metadata": self.meta,
                "checks": self.checks, "passed": self.passed}


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    newline="\n")


_CSV_ROWS = 4096  # rows formatted per write: the text in memory is one block


def write_csv(path: Path, header: list[str], columns) -> None:
    """One table from one 1-D sequence (or array) per column, all of one
    length: a column whose first value is a float is written with 17
    significant digits, any other through ``str``.  A failed write leaves
    the previous table at ``path``, or none."""
    columns = [col if isinstance(col, np.ndarray) else np.array(col, dtype=object)
               for col in columns]  # slices of either give Python values by tolist
    if len(lengths := {len(col) for col in columns}) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {sorted(lengths)}")
    first = next(zip(*[col[:1].tolist() for col in columns]), ())
    row = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
    with _replacing(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, min(lengths, default=0), _CSV_ROWS):
            block = [col[start:start + _CSV_ROWS].tolist() for col in columns]
            fh.write("".join(map(row.__mod__, zip(*block))))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def config_hash(ns: argparse.Namespace) -> str:
    """Digest of the experiment parameters (not the output location)."""
    skip = ("func", "out", "config")
    items = sorted((k, repr(v)) for k, v in vars(ns).items() if k not in skip)
    digest = hashlib.sha256(repr(items).encode()).hexdigest()
    return digest[:16]


def _config_tokens(parser: argparse.ArgumentParser, command: str,
                   cfg: dict[str, str]) -> list[str]:
    """The config entries of ``command`` as flag tokens; keys of other
    subcommands and ``out`` give none, a key naming no option is an error."""
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    known = {action.dest for sub in commands.values() for action in sub._actions
             if action.option_strings} - {"help"}
    options = {action.dest: action for action in commands[command]._actions}
    tokens = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise ConfigError(f"config key {key} names no option")
        action = options.get(dest)
        if action is None or dest == "out":
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            if value.lower() in ("1", "true", "yes", "on"):
                tokens.append(flag)
            elif value.lower() not in ("0", "false", "no", "off"):
                raise ConfigError(f"config key {key} takes true or false, got {value!r}")
        elif action.nargs == "+":
            tokens += [flag, *value.split()]
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def parse_args(argv=None) -> tuple[argparse.Namespace, dict[str, str]]:
    """Namespace and config entries of one run: the entries are parsed as
    flags put before the command line's, so they meet the same types and
    choices, and an explicit flag wins as the last one given.  A repeated
    ``--spacings`` value is a :class:`ConfigError`."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = parser.parse_args(argv)
    cfg = load_config(ns.config)
    if cfg:
        tokens = _config_tokens(parser, ns.command, cfg)
        stderr = io.StringIO()  # argparse's message, raised naming the file
        try:
            with contextlib.redirect_stderr(stderr):
                ns = parser.parse_args(argv[:1] + tokens + argv[1:])
        except SystemExit:
            message = stderr.getvalue().partition(": error: ")[2].strip()
            raise ConfigError(f"{ns.config}: {message}") from None
    spacings = getattr(ns, "spacings", [])
    repeated = [h for h in spacings if spacings.count(h) > 1]
    if repeated:
        raise ConfigError(f"--spacings lists {repeated[0]!r} more than once")
    return ns, cfg


def resolve_out_dir(ns: argparse.Namespace, cfg: dict[str, str]) -> Path:
    path = Path(ns.out or os.environ.get("BOHRQED_OUT") or cfg.get("out")
                or "./bohrqed-out")
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve_bohr(ns, out: Path, report: RunReport) -> None:
    inp = BohrInput(e=ns.e, f=ns.f, n=ns.n, m=ns.m)
    state = solve_bohr(inp, allow_repulsive=ns.allow_repulsive)
    ts = ns.tolerance_scale
    report.check("mass-shell-residual", mass_shell_residual(state), 0.0,
                 1e-12 * ts, mode="at-most")
    report.check("quantization-mu-R", abs(state.mu * state.R - inp.n) / inp.n,
                 0.0, 1e-12 * ts, mode="at-most")
    v2 = (inp.e * inp.f / inp.n) ** 2
    if inp.attractive:
        e_closed = inp.m * math.sqrt(1.0 - v2)
    else:  # repulsive override: potential energy enters with the other sign
        e_closed = inp.m * (1.0 + v2) / math.sqrt(1.0 - v2)
    report.check("energy-identity", abs(state.E - e_closed) / inp.m, 0.0,
                 1e-12 * ts, mode="at-most")
    write_json(out / "bohr_state.json", {
        "input": {"e": inp.e, "f": inp.f, "n": inp.n, "m": inp.m},
        "v": state.v, "R": state.R, "mu": state.mu, "nu": state.nu,
        "eta": state.eta, "A": state.A, "E": state.E,
        "potential_energy": state.potential_energy,
    })


def cmd_local_solve(ns, out: Path, report: RunReport) -> None:
    finite("a-min and a-max", ns.a_min, ns.a_max)
    finite("the span a-max - a-min", ns.a_max - ns.a_min)  # or linspace gives NaN
    whole("a-count", ns.a_count, 2)
    grid = np.linspace(ns.a_min, ns.a_max, ns.a_count).tolist()
    if ns.include_zero and 0.0 not in grid:
        grid.append(0.0)
    grid.sort()
    local_solve_rho([0.0], ns.e, ns.m, ns.n)  # e, m and n alone: no A range
    try:
        solved = local_solve_rho(grid, ns.e, ns.m, ns.n)
    except DomainError as err:  # a grid point's A: name the range it is from
        raise type(err)(f"{err}, on A from a-min {ns.a_min} to a-max {ns.a_max}"
                        ) from None
    A, rho = np.array(grid), solved.rho
    sign_violations = np.count_nonzero((A != 0) & (rho * A < 0))
    monotone_violations = np.count_nonzero(rho[1:] < rho[:-1] - 1e-15)
    ts = ns.tolerance_scale
    report.check("cubic-residual-max", float(solved.residual.max(initial=0.0)), 0.0,
                 1e-10 * ts, mode="at-most")
    report.check("sign-rule-violations", float(sign_violations), 0.0, 0.0)
    report.check("monotonicity-violations", float(monotone_violations), 0.0, 0.0)
    branch = np.full(len(grid), "degenerate", dtype=object)  # three shared strings
    branch[A > 0], branch[A < 0] = "positive-root", "negative-root"
    # a degenerate point already carries NaN for R and f
    write_csv(out / "local_solve.csv",
              ["A", "rho", "R", "f", "residual", "branch"],
              [grid, rho, solved.R, solved.f, solved.residual, branch])


def cmd_tile(ns, out: Path, report: RunReport) -> None:
    domain = [(0.0, ns.side)] * kind_dim(ns.kind)
    ens = tile(domain, ns.radius, kind=ns.kind, c=ns.c or None,
               boundary_samples=ns.boundary_samples, seed=ns.seed)
    if ns.regions_per_axis != 1:
        ens = partition_regions(ens, ns.regions_per_axis)
    stats = verify_ensemble(ens)
    ts = ns.tolerance_scale
    report.check("non-overlap", stats["max_overlap"], 0.0, 1e-12 * ts,
                 mode="at-most")
    if not report.check("coverage-ratio", stats["max_coverage_ratio"], ens.c,
                        0.0, mode="at-most"):
        raise InfeasibleCoverage(
            f"coverage needs c >= {stats['max_coverage_ratio']:.6f}")
    write_json(out / "tile_summary.json", {
        "kind": ens.kind, "c": ens.c, "roundels": len(ens.ids),
        "regions": len(set(ens.regions.tolist())),
        "boundary_points": len(ens.boundary),
        "max_overlap": stats["max_overlap"],
        "max_coverage_ratio": stats["max_coverage_ratio"],
        "interactions": count_interactions(ns.side, ns.radius, ns.kind)
        if ns.side > 2 * ns.radius else 1,
    })
    header = ["owner", "region"] + [f"x{i+1}" for i in range(ens.dim)]
    write_csv(out / "boundary_points.csv", header,
              [ens.owners, ens.boundary_regions, *ens.boundary.T])


def _field(lat: HypercubicLattice, *components) -> np.ndarray:
    """A broadcast view of values on ``lat`` whose leading biquaternion
    components are ``components`` (open grids or constants), the others zero."""
    values = np.zeros(np.broadcast(*components).shape + (4,), dtype=complex)
    for k, component in enumerate(components):
        values[..., k] = component
    return np.broadcast_to(values, lat.extent + (4,))


def cmd_lattice_verify(ns, out: Path, report: RunReport) -> None:
    ts = ns.tolerance_scale
    inp = BohrInput(e=ns.e, f=ns.f, n=ns.n, m=ns.m)
    state = solve_bohr(inp)
    mode = "central" if ns.central_differences else "backward"
    expected_order = 2.0 if ns.central_differences else 1.0

    # stencil exactness on affine and quadratic fields
    lat = HypercubicLattice(spacing=0.25, extent=(6, 6, 6, 6))
    grids = lat.coordinate_grids()
    applied = dirac_apply_values(_field(lat, grids[1]), lat)
    # the sites with a full backward stencil
    err = float(np.max(bq_frobenius_arr((applied - _field(lat, 0.0, 1.0))[1:, 1:, 1:, 1:])))
    report.check("stencil-affine-exactness", err, 0.0, 1e-12 * ts,
                 mode="at-most")

    rep = photon_residual(LatticeField(lat, _field(lat, 1j * grids[2] ** 2)),
                          LatticeField(lat, _field(lat, 2j)))
    report.check("wave-quadratic-exactness", rep.max_residual, 0.0,
                 1e-12 * ts, mode="at-most")

    # uniform-sphere interior: quadratic potential against its constant source
    rho = 0.01
    rep = photon_residual(
        LatticeField(lat, _field(lat, 1j * (4.0 * math.pi / 3.0) * rho * grids[2] ** 2)),
        LatticeField(lat, _field(lat, 1j * (8.0 * math.pi / 3.0) * rho)))
    report.check("photon-sphere-residual", rep.max_residual, 0.0, 1e-12 * ts,
                 mode="at-most")

    # convergence orders; the finest Dirac residual is also the baseline of
    # the charge-conjugation check
    spacings = sorted(ns.spacings, reverse=True)
    dirac_res, photon_res = [], []
    for h in spacings:
        lat_h = HypercubicLattice(spacing=h, extent=(ns.extent, ns.extent, 3, 3))
        phi, pot = bohr_phi_field(lat_h, state), bohr_potential_field(lat_h, state)
        base = dirac_residual(phi, pot, e=inp.e, mass=inp.m, mode=mode)
        dirac_res.append(base.max_residual)
        g = lat_h.coordinate_grids()
        smooth = np.exp(1j * (0.7 * g[1] - 0.4 * g[0]))
        photon_res.append(photon_residual(
            LatticeField(lat_h, _field(lat_h, smooth)),
            LatticeField(lat_h, _field(lat_h, (0.4 ** 2 - 0.7 ** 2) * smooth))).max_residual)
    if len(spacings) < 2:
        report.skip("dirac-convergence-order", "needs >= 2 spacings")
        report.skip("photon-convergence-order", "needs >= 2 spacings")
    else:
        report.check("dirac-convergence-order", fit_loglog(spacings, dirac_res).slope,
                     expected_order, 0.1, mode="at-least")
        report.check("photon-convergence-order",
                     fit_loglog(spacings, photon_res).slope, 2.0, 0.1,
                     mode="at-least")

    # frame equivalence: identity, rotation, rapidity-1 boost
    bindings = {
        "identity": LorentzTransform.identity(),
        "rotation": LorentzTransform.rotation([0, 0, 1], math.pi / 2),
        "boost": LorentzTransform.boost([1, 0, 0], ns.rapidity),
    }
    lat_k = HypercubicLattice(spacing=0.2, extent=(6, 6, 6, 6),
                              frame="compromise")
    gk = lat_k.coordinate_grids()
    A_vals = _field(lat_k, 1j * np.sin(0.8 * gk[1]) * np.cos(0.3 * gk[0]), 0.0,
                    0.5 * np.cos(0.6 * gk[3]))
    A_k = LatticeField(lat_k, A_vals)
    J_k = LatticeField(lat_k, np.nan_to_num(
        wave_apply(A_vals, lat_k)), label="current")
    for name, Z in bindings.items():
        _, _, binding = build_lattices(a=0.1, R_k=0.2, extent=(6, 6, 6, 6), Z=Z)
        try:
            eq = equivalence_check(binding, A_k, J_k)
        except (DomainError, FloatingPointError) as err:  # fixed A_k, J_k: Z overflows
            raise DomainError(f"rapidity {ns.rapidity} carries the boosted "
                              f"fields past the float range: {err}") from None
        report.check(f"equivalence-{name}", eq.commutation_residual, 0.0,
                     1e-10 * ts, mode="at-most")

    # mass renormalization bookkeeping
    report.check("mass-renormalization",
                 abs(renormalize_mass(2.5, a=0.1, R_k=0.4) - 0.625), 0.0,
                 1e-14 * ts, mode="at-most")

    if ns.conjugate_charge:
        conj = dirac_residual(charge_conjugate_field(phi), pot,
                              e=-inp.e, mass=inp.m, mode=mode)
        rel = abs(conj.max_residual - base.max_residual) / base.max_residual
        report.check("charge-conjugation-invariance", rel, 0.0, 1e-12 * ts,
                     mode="at-most")


def _record_sweep(ns, out: Path, report: RunReport, exponents: dict,
                  family: str, sweep, points: str) -> None:
    """Write one sweep's table and check its slopes against the expected."""
    write_csv(out / f"{family}_sweep.csv", list(sweep.columns),
              sweep.columns.values())
    tol = SLOPE_TOL * ns.tolerance_scale
    for name, fit in sorted(sweep.slopes.items()):
        expected = sweep.expected[name]
        report.check(f"{family}-slope-{name}", fit.slope, expected, tol)
        exponents[f"{family}.{name}"] = {
            "slope": fit.slope, "expected": expected,
            "deviation": fit.slope - expected, "tolerance": tol,
            "low_confidence": fit.low_confidence,
        }
    if sweep.low_confidence:
        report.skip(f"{family}-confidence", "fit flagged low-confidence "
                    f"(fewer than 3 {points} or span < 2 decades)")


def cmd_scaling_sweep(ns, out: Path, report: RunReport) -> None:
    positive("radii", ns.r_min)
    positive("radii", ns.r_max)
    positive("spacings", ns.a_min)
    positive("spacings", ns.a_max)
    whole("r-count", ns.r_count, 2)
    whole("a-count", ns.a_count, 2)
    radii = np.geomspace(ns.r_min, ns.r_max, ns.r_count)
    spacings = np.geomspace(ns.a_min, ns.a_max, ns.a_count)
    exponents = {}
    template = BohrInput(e=ns.e, f=ns.f, n=ns.n, m=ns.m)
    # both sweeps before either table: a rejected input leaves no table
    roundel = scaling_sweep(template, radii, T=ns.big_t, kind=ns.kind)
    lattice = limit_sweep(ns.p, spacings, n=ns.n, T=ns.big_t)
    _record_sweep(ns, out, report, exponents, "roundel", roundel, "radii")
    _record_sweep(ns, out, report, exponents, "lattice", lattice, "spacings")
    write_json(out / "exponents.json", exponents)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def nonnegative(text: str) -> float:
    """A finite number >= 0: a tolerance scale of 0 asks for exact checks."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call
    of :func:`main` in the process: nothing may mutate a parsed default."""
    parser = argparse.ArgumentParser(
        prog="bohrqed",
        description="Bohr-orbit electrodynamics laboratory: solves, tilings, "
                    "lattice verifications, scaling sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="key = value file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--tolerance-scale", type=nonnegative, default=1.0)

    def orbit(p):
        p.add_argument("--e", type=float, default=1.0)
        p.add_argument("--f", type=float, default=-1.0 / 137.035999)
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--m", type=float, default=1.0)

    p = sub.add_parser("solve-bohr", help="solve one two-body orbit")
    common(p)
    orbit(p)
    p.add_argument("--allow-repulsive", action="store_true")
    p.set_defaults(func=cmd_solve_bohr)

    p = sub.add_parser("local-solve", help="charge density over a potential grid")
    common(p)
    p.add_argument("--e", type=float, default=1.0)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--a-min", type=float, default=-2.0)
    p.add_argument("--a-max", type=float, default=2.0)
    p.add_argument("--a-count", type=int, default=41)
    p.add_argument("--include-zero", action="store_true")
    p.set_defaults(func=cmd_local_solve)

    p = sub.add_parser("tile", help="tile a box with touching roundels")
    common(p)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=0.25)
    p.add_argument("--kind", type=str, default="pure",
                   choices=["pure", "superposition"])
    p.add_argument("--c", type=float, default=0.0,
                   help="coverage slack; 0 means the kind's default")
    p.add_argument("--boundary-samples", type=int, default=8)
    p.add_argument("--regions-per-axis", type=int, default=1)
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("lattice-verify",
                       help="discrete operator and frame-equivalence checks")
    common(p)
    orbit(p)
    p.add_argument("--extent", type=int, default=16)
    # a list, because config_hash hashes its repr; every call shares it
    p.add_argument("--spacings", type=float, nargs="+",
                   default=[0.2, 0.1, 0.05, 0.025])
    p.add_argument("--rapidity", type=float, default=1.0)
    p.add_argument("--central-differences", action="store_true")
    p.add_argument("--conjugate-charge", action="store_true")
    p.set_defaults(func=cmd_lattice_verify)

    p = sub.add_parser("scaling-sweep",
                       help="roundel and lattice limit power laws")
    common(p)
    orbit(p)
    p.add_argument("--kind", type=str, default="pure",
                   choices=["pure", "superposition"])
    p.add_argument("--r-min", type=float, default=1e-3)
    p.add_argument("--r-max", type=float, default=1e-1)
    p.add_argument("--r-count", type=int, default=9)
    p.add_argument("--a-min", type=float, default=1e-3)
    p.add_argument("--a-max", type=float, default=1e-1)
    p.add_argument("--a-count", type=int, default=9)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--big-t", type=float, default=1.0)
    p.set_defaults(func=cmd_scaling_sweep)

    return parser


def main(argv=None) -> int:
    report = None  # a run that fails once the output directory resolves has one
    try:
        ns, cfg = parse_args(argv)
        out = resolve_out_dir(ns, cfg)
        path = out / f"{ns.command.replace('-', '_')}_report.json"
        report = RunReport(ns.command, seed=ns.seed, config_hash=config_hash(ns))
        ns.func(ns, out, report)
        report.print_lines()
        write_json(path, report.as_dict())
        return EXIT_OK if report.passed else EXIT_CHECK_FAIL
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        named = "" if type(exc) is DomainError else f"{type(exc).__name__}: "
        print(f"domain error: {named}{exc}", file=sys.stderr)
        code, error = EXIT_DOMAIN, exc
    except MemoryError as exc:  # a size the input asks for, not a defect
        print(f"out of memory: {type(exc).__name__}: {exc}", file=sys.stderr)
        code, error = EXIT_MEMORY, exc
    except Exception as exc:
        traceback.print_exc()
        print("internal error: see the traceback above", file=sys.stderr)
        code, error = EXIT_INTERNAL, exc
    if report is not None:
        with contextlib.suppress(OSError):  # the exit code still says it
            write_json(path, report.as_dict() | {
                "passed": False, "exit_code": code,
                "error": {"type": type(error).__name__, "message": str(error)}})
    return code


if __name__ == "__main__":
    sys.exit(main())
