import ast
import dataclasses
import inspect
import math
from pathlib import Path

import pytest

from bohrqed import DomainError, algebra, bohr, ensemble, fitting, lattice, mspace

MODULES = [algebra, bohr, ensemble, fitting, lattice, mspace]
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # a stale __all__ entry breaks only ``from module import *``
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


#: Public names nothing in the package or the benchmark reaches, and
#: defaulted parameters nothing there sets, and why each stays; a member is
#: ``Class.member``, a parameter ``f(p)``, ``Class.method(p)`` or
#: ``Class(field)``.  A test-only reference belongs in
#: ``tests/reference_*.py``; a parameter only tests set, nowhere.
KEEP = {
    "Reflector": "the paper's anti-diagonal reflector; test_algebra's TestReflector "
                 "checks its algebra",
    "DiagonalMatrix": "the product of two reflectors, checked with Reflector",
    "reflector_mul": "the one product of two reflectors, checked with Reflector",
    "total_charge": "the net charge of an ensemble, a lab quantity; test_ensemble "
                    "checks its left-to-right fold",
    "boundary_fill_distance": "acceptance C6: the boundary set fills the box as "
                              "the radii shrink",
    "LorentzTransform.apply": "the paper's sandwich q -> g q g†, and the scalar "
                              "oracle of the plane transport",
    "LorentzTransform.inverse": "undoes a transform (g -> g‡); test_algebra "
                                "checks the round trip",
    "EquivalenceReport.lp_residual": "acceptance C9: the photon equation holds on "
                                     "the snapshot lattice",
}


def _reads(node) -> set[str]:
    """Every name ``node`` loads, and every attribute it takes, both as a
    name (a module's) and as ``.attr`` (a member's)."""
    names, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
            attrs.add(n.attr)
    return names | attrs | {"." + a for a in attrs}


def _assigned(node, target: str):
    """The literal value of a module-level ``target = ...``, else None."""
    if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                         for t in node.targets] == [target]:
        return ast.literal_eval(node.value)
    return None


def _members(cls: ast.ClassDef):
    """``(name, node)`` of the public methods, properties, static methods
    and annotated fields of ``cls``; the rest of its body is the class's."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name, node


def _unused(package: dict[str, str], benchmarks: list[str], keep=()) -> set[str]:
    """The public names and ``Class.member``s of the ``package`` sources
    (file name -> text) that neither its module-level code (the
    ``python -m bohrqed`` entry included) nor the ``benchmarks`` reach,
    directly or through the definitions they read, nor ``keep``.

    A member counts as reached when reached code takes an attribute of its
    name; a definition or member body nothing reaches lends its reads
    nothing.  A keyword argument in a benchmark reaches the field of that
    name, and a dotted ``LAYERS`` name the member it traces.  ``__all__``
    entries and ``__init__``'s re-exports are not references.
    """
    public, members, uses = set(), set(), {}
    roots = {"." + name.rpartition(".")[2] if "." in name else name for name in keep}
    layers = set()
    for path, text in package.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.ImportFrom) and path == "__init__.py":
                public |= {alias.name for alias in node.names}
            elif isinstance(node, ast.FunctionDef):
                uses.setdefault(node.name, set()).update(_reads(node))
            elif isinstance(node, ast.ClassDef):
                inside = dict(_members(node))
                for name, member in inside.items():
                    uses.setdefault("." + name, set()).update(_reads(member))
                    if not node.name.startswith("_"):
                        members.add(f"{node.name}.{name}")
                body = [n for n in node.body if n not in inside.values()]
                uses.setdefault(node.name, set()).update(
                    *map(_reads, body + node.bases + node.decorator_list))
            elif (names := _assigned(node, "__all__")) is not None:
                public |= set(names)
            else:
                roots |= _reads(node)
    for text in benchmarks:
        tree = ast.parse(text)
        roots |= _reads(tree)
        roots |= {"." + n.arg for n in ast.walk(tree) if isinstance(n, ast.keyword) and n.arg}
        for node in tree.body:
            for names in (_assigned(node, "LAYERS") or {}).values():
                for name in names:  # a traced name, or a class and its method
                    owner, _, member = name.rpartition(".")
                    layers.add(owner or member)
                    if owner:
                        roots.add("." + member)
    reached, todo = set(roots), list(roots)
    while todo:
        for name in uses.pop(todo.pop(), ()):
            if name not in reached:
                reached.add(name)
                todo.append(name)
    unused = public - reached - layers
    unused |= {m for m in members if "." + m.partition(".")[2] not in reached}
    return unused - set(keep)


def _parameters(package: dict[str, str]):
    """``(owner, name, position, default)`` of each defaulted parameter of
    the public functions, methods, static methods and dataclass fields of
    the ``package`` sources: ``owner`` is ``f``, ``Class.method`` or
    ``Class``, ``position`` the parameter's index among a call's positional
    arguments (None if it is keyword-only)."""
    public, found = set(), []

    def signature(prefix: str, node: ast.FunctionDef, bound: bool):
        args = node.args.posonlyargs + node.args.args
        given = [None] * (len(args) - len(node.args.defaults)) + node.args.defaults
        for k, (arg, default) in enumerate(zip(args, given)):
            if default is not None:
                found.append((prefix, arg.arg, k - bound, default))
        found.extend((prefix, arg.arg, None, default)
                     for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                     if default is not None)

    trees = {path: ast.parse(text).body for path, text in package.items()}
    for path, body in trees.items():
        for node in body:
            if isinstance(node, ast.ImportFrom) and path == "__init__.py":
                public |= {alias.name for alias in node.names}
            elif (names := _assigned(node, "__all__")) is not None:
                public |= set(names)
    for node in (node for body in trees.values() for node in body):
        if isinstance(node, ast.FunctionDef) and node.name in public:
            signature(node.name, node, False)
        elif isinstance(node, ast.ClassDef) and node.name in public:
            dataclass = any("dataclass" in ast.dump(d) for d in node.decorator_list)
            fields = [n for n in node.body if isinstance(n, ast.AnnAssign)]
            for name, member in _members(node):
                if isinstance(member, ast.FunctionDef):
                    static = any("staticmethod" in ast.dump(d) for d in member.decorator_list)
                    signature(f"{node.name}.{name}", member, not static)
                elif dataclass and member.value is not None:
                    found.append((node.name, name, fields.index(member), member.value))
    return found


def _same(value, default) -> bool:
    """Whether the expression ``value`` is the literal ``default``."""
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except ValueError:
        return False


def _unset(package: dict[str, str], benchmarks: list[str], keep=()) -> set[str]:
    """The defaulted parameters of :func:`_parameters` that no call in the
    ``package`` or the ``benchmarks`` passes a value other than the default,
    by keyword, by position or through a ``*`` or ``**`` splat, nor ``keep``.
    A call is matched by the name it calls, ``f(...)`` or ``x.f(...)``."""
    calls = {}
    for text in [*package.values(), *benchmarks]:
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                calls.setdefault(name, []).append(n)

    def passes(call, name, position, default) -> bool:
        for k, arg in enumerate(call.args[:0 if position is None else position + 1]):
            if isinstance(arg, ast.Starred):
                return True
            if k == position:
                return not _same(arg, default)
        return any(kw.arg is None or (kw.arg == name and not _same(kw.value, default))
                   for kw in call.keywords)

    return {f"{owner}({name})" for owner, name, position, default in _parameters(package)
            if not any(passes(call, name, position, default)
                       for call in calls.get(owner.rpartition(".")[2], ()))} - set(keep)


def _sources(folder: str) -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted((ROOT / folder).glob("*.py"))}


def test_public_names_have_a_caller():
    package = _sources("src/bohrqed")
    benchmarks = list(_sources("benchmarks").values())
    assert sorted(_unused(package, benchmarks, KEEP)) == []
    assert sorted(_unset(package, benchmarks, KEEP)) == []
    # every entry is still needed: nothing reaches it but its own reason
    needed = _unused(package, benchmarks) | _unset(package, benchmarks)
    assert sorted(needed & set(KEEP)) == sorted(KEEP)


#: A class with one member of each kind the guard judges, for its self-test.
_PLANTED = """
__all__ = ["Thing"]

@dataclass
class Thing:
    tested: int
    passed: int = 0
    spare: int = 0

    def checked(self):
        return self.tested

    def inner(self):
        return 0

    def scaled(self, factor=1.0, offset=0.0):
        return (self.passed + self.spare) * factor + offset

class _Caller:
    def unreached(self, thing):
        return thing.inner()
"""


def test_guard_flags_members_only_tests_read():
    # ``tested`` and ``checked`` only tests would read, ``passed`` a benchmark
    # passes by keyword, and ``inner`` only an unreached method calls
    assert _unused({"planted.py": _PLANTED}, ["Thing(1, passed=2).scaled(2.0)"]) == {
        "Thing.tested", "Thing.checked", "Thing.inner"}


@pytest.mark.parametrize(("calls", "unset"), [
    # ``spare`` only tests would set; ``offset`` is passed its default alone
    ("Thing(1, passed=2).scaled(factor=3, offset=0.0)", {"Thing(spare)", "Thing.scaled(offset)"}),
    ("Thing(1, 2, 0).scaled(3.0, 0)", {"Thing(spare)", "Thing.scaled(offset)"}),
    ("Thing(1, 2, 3).scaled(1.0, -1)", {"Thing.scaled(factor)"}),
    ("Thing(*fields).scaled(2.0, *rest)", set()),
    ("Thing(1, **fields).scaled(**options)", set()),
    ("Thing(1, *fields).scaled(*options)", set()),
])
def test_guard_flags_parameters_only_tests_set(calls, unset):
    assert _unset({"planted.py": _PLANTED}, [calls]) == unset


def test_sources_parse_as_python_3_10():
    """The grammar of every source and test file is Python 3.10's, the
    floor ``pyproject.toml`` declares; this checks syntax only, not the
    names a file imports or calls."""
    for folder in ("src", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# ---------------------------------------------------------------------------
# The float-input contract: every public function and input class rejects a
# non-finite float with a DomainError whose message shows the value
# ---------------------------------------------------------------------------

_STATE = bohr.solve_bohr(bohr.BohrInput(e=1.0, f=-0.5, n=1, m=1.0))
_LAT = lattice.HypercubicLattice(spacing=0.1, extent=3)
_L = mspace.LPoint(x0=0.0, r=1.0, theta=0.5, x3=0.0)
_UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))
_ENSEMBLE = ensemble.tile(_UNIT_SQUARE, 0.25)

#: name -> (callable, fixed arguments, walked float arguments).  Each float
#: of the walked arguments, inside a tuple or list too, is swapped in turn.
CONTRACT = {
    "LorentzTransform.rotation": (
        algebra.LorentzTransform.rotation, dict(axis=[0, 0, 1]), dict(angle=0.5)),
    "LorentzTransform.boost": (
        algebra.LorentzTransform.boost, dict(axis=[1, 0, 0]), dict(rapidity=0.5)),
    "BohrInput": (bohr.BohrInput, dict(n=1), dict(e=1.0, f=-0.5, m=1.0)),
    "local_solve_rho": (
        bohr.local_solve_rho, dict(n=1), dict(A=[0.5, 0.0, -1.0], e=1.0, m=1.0)),
    "Ensemble": (
        ensemble.Ensemble,
        {f.name: getattr(_ENSEMBLE, f.name) for f in dataclasses.fields(_ENSEMBLE)
         if f.name not in ("c", "domain")},
        dict(c=_ENSEMBLE.c, domain=_ENSEMBLE.domain)),
    "tile": (ensemble.tile, {},
             dict(domain=_UNIT_SQUARE, R=0.25, c=1.5)),
    "count_interactions": (
        ensemble.count_interactions, dict(kind="pure"), dict(T=2.0, R=0.5)),
    "scaling_sweep": (
        ensemble.scaling_sweep, dict(template=_STATE.input),
        dict(radii=[0.1, 0.05], T=1.0)),
    "fit_sweep": (
        fitting.fit_sweep,
        dict(name="xs", row=lambda x: {"y": x}, expected={"y": 1.0}),
        dict(xs=[1.0, 2.0])),
    "HypercubicLattice": (
        lattice.HypercubicLattice, dict(extent=3),
        dict(spacing=0.1, origin=(0.0, 0.0, 0.0, 0.0))),
    "build_lattices": (
        lattice.build_lattices, dict(extent=3, Z=algebra.LorentzTransform.identity()),
        dict(a=0.1, R_k=0.2)),
    "dirac_residual": (
        lattice.dirac_residual,
        dict(phi=lattice.bohr_phi_field(_LAT, _STATE),
             A=lattice.bohr_potential_field(_LAT, _STATE)),
        dict(e=1.0, mass=1.0)),
    "renormalize_mass": (
        lattice.renormalize_mass, {}, dict(M_global=1.0, a=0.1, R_k=0.2)),
    "limit_sweep": (
        lattice.limit_sweep, {}, dict(p=1.0, spacings=[0.1, 0.05], T=1.0)),
    "LPoint": (mspace.LPoint, {}, dict(x0=0.0, r=1.0, theta=0.5, x3=0.0)),
    "MPoint": (mspace.MPoint, {}, dict(x0=0.0, s=0.5, r=1.0, x3=0.0)),
    "RoundelSpec": (mspace.RoundelSpec, dict(center=_L), dict(R=0.25)),
    "l_to_m": (mspace.l_to_m, dict(p=_L), dict(R=1.0)),
    "m_to_l": (mspace.m_to_l, dict(p=mspace.l_to_m(_L, 1.0)), dict(R=1.0)),
}

#: What the contract skips of the float-annotated parameters: result types
#: are outputs, ``fit_sweep``'s ``row`` is a callable and its ``expected``
#: slopes are only stored beside the fits.
NOT_INPUTS = {"BohrState", "LocalSolveGrid", "PowerFit", "Sweep"}
NOT_WALKED = {"fit_sweep": {"row", "expected"}}


def _float_slots(value, path=()):
    """The index paths of the floats in ``value``, a float or nested sequence."""
    if isinstance(value, float):
        return [path]
    if isinstance(value, (tuple, list)):
        return [slot for i, item in enumerate(value)
                for slot in _float_slots(item, path + (i,))]
    return []


def _swapped(value, path, new):
    if not path:
        return new
    items = list(value)
    items[path[0]] = _swapped(items[path[0]], path[1:], new)
    return type(value)(items)


def _cases():
    for name, (_, _, walked) in CONTRACT.items():
        for key, value in walked.items():
            for path in _float_slots(value):
                for bad in (math.nan, math.inf, -math.inf):
                    where = key + "".join(f"[{i}]" for i in path)
                    yield pytest.param(name, key, path, bad, id=f"{name}-{where}-{bad}")


def _public_float_parameters():
    """name -> float-annotated parameter names, over every ``__all__`` callable
    and the public static methods of its classes."""
    found = {}
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) and issubclass(obj, Exception):
                continue
            targets = [(name, obj)] if callable(obj) else []
            if inspect.isclass(obj):
                targets += [(f"{name}.{key}", member.__func__)
                            for key, member in vars(obj).items()
                            if isinstance(member, staticmethod)]
            for target_name, target in targets:
                params = {p.name for p in inspect.signature(target).parameters.values()
                          if "float" in str(p.annotation)}
                if params:
                    found[target_name] = params
    return found


def test_contract_covers_every_float_parameter():
    want = {name: params - NOT_WALKED.get(name, set())
            for name, params in _public_float_parameters().items()
            if name not in NOT_INPUTS}
    assert {name: set(walked) for name, (_, _, walked) in CONTRACT.items()} == want


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_contract_baseline_is_valid(name):
    target, fixed, walked = CONTRACT[name]
    target(**fixed, **walked)


@pytest.mark.parametrize(("name", "key", "path", "bad"), list(_cases()))
def test_non_finite_float_named(name, key, path, bad):
    target, fixed, walked = CONTRACT[name]
    args = dict(walked, **{key: _swapped(walked[key], path, bad)})
    with pytest.raises(DomainError) as err:
        target(**fixed, **args)
    assert str(bad) in str(err.value)
