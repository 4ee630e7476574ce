"""Mutation testing of the lattice kernels: what the tests kill.

Each mutant is one small change to one target function, made in a copy of
the package in a temporary directory; ``src/`` is never written.  The tests
of ``TESTS`` run against every mutant with ``-x``, so a mutant is killed by
the first test id that fails (or errors, or times out) and survives when
all pass.  The operators:

- ``+`` and ``-`` swapped, in an expression or an augmented assignment;
- a sign coefficient flipped: a unary minus dropped, or a compared ``1``
  negated;
- a slice bound moved by +1 or -1;
- ``<=`` and ``<`` (``>=`` and ``>``) swapped;
- a term dropped: ``a + b`` or ``a - b`` as ``a``, ``x += b`` or ``x -= b``
  as ``pass``;
- a stride swapped with 0: in ``s if c else 0`` (or ``0 if c else s``) the
  stride branch as 0, and the 0 branch as the stride.

Run from the repository root::

    python tools/mutate.py                 # every mutant, both test files
    python tools/mutate.py --jobs 2        # two mutants at a time
    python tools/mutate.py --tests tests/test_lattice.py::TestDefinitionalReference
    python tools/mutate.py --self-check    # one known mutant must be killed

The results go to ``.mutants/``: ``matrix.json`` maps each
mutant to its status and the test id that killed it, ``kills.json`` maps
each test function to the mutants it killed first, and ``survivors.json``
lists the mutants no test killed.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import copy
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: module path -> the functions mutated in it.
TARGETS = {
    "src/bohrqed/lattice.py": (
        "_interior", "_slabs", "_walk", "_stored", "_window", "_stencil",
        "_unit_rows", "_dirac", "_wave", "_max_norm", "_maxima", "_field_values",
        "equivalence_check"),
    "src/bohrqed/algebra.py": ("bq_mul_planes",),
}
TESTS = ("tests/test_lattice.py", "tests/test_algebra.py")
OUT = ROOT / ".mutants"
#: Seconds a test run may take, raised to 10 times the unmutated run.
TIMEOUT = 300.0

#: The self-check's mutant (the backward difference read as a forward one)
#: and the test ids it runs; the mutant must fail them, the original pass.
SELF_CHECK_MUTANT = "lattice._stencil:drop-minus:-lo"
SELF_CHECK_TESTS = ("tests/test_lattice.py::TestDiracApply",)

_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.LtE: ast.Lt, ast.Lt: ast.LtE,
         ast.GtE: ast.Gt, ast.Gt: ast.GtE}


def _zero(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0 and node.value is not False


def _mutations(node):
    """``(name, apply)`` for each mutation of ``node``; ``apply(node)`` returns
    the node that replaces it."""
    if isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub):
        yield "swap-op", lambda n: ast.BinOp(n.left, _SWAP[type(n.op)](), n.right)
        yield "drop-term", lambda n: n.left
    elif isinstance(node, ast.AugAssign) and type(node.op) in (ast.Add, ast.Sub):
        yield "swap-op", lambda n: ast.AugAssign(n.target, _SWAP[type(n.op)](), n.value)
        yield "drop-term", lambda n: ast.Pass()
    elif isinstance(node, ast.Compare) and len(node.ops) == 1:
        if type(node.ops[0]) in _SWAP:
            yield "swap-compare", lambda n: ast.Compare(n.left, [_SWAP[type(n.ops[0])]()],
                                                        n.comparators)
        if (isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value == 1):
            yield "flip-sign", lambda n: ast.Compare(
                n.left, n.ops, [ast.UnaryOp(ast.USub(), n.comparators[0])])
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield "drop-minus", lambda n: n.operand
    elif isinstance(node, ast.Slice):
        for bound in ("lower", "upper"):
            if getattr(node, bound) is not None:
                for delta, op in (("+1", ast.Add), ("-1", ast.Sub)):
                    yield f"{bound}{delta}", lambda n, b=bound, o=op: ast.Slice(**{
                        **{k: getattr(n, k) for k in ("lower", "upper", "step")},
                        b: ast.BinOp(getattr(n, b), o(), ast.Constant(1))})
    elif isinstance(node, ast.IfExp) and (_zero(node.body) != _zero(node.orelse)):
        stride = "orelse" if _zero(node.body) else "body"
        zero = "body" if stride == "orelse" else "orelse"
        yield "stride-to-0", lambda n, s=stride: ast.IfExp(**{
            **{k: getattr(n, k) for k in ("test", "body", "orelse")}, s: ast.Constant(0)})
        yield "0-to-stride", lambda n, s=stride, z=zero: ast.IfExp(**{
            **{k: getattr(n, k) for k in ("test", "body", "orelse")}, z: getattr(n, s)})


def _functions(tree: ast.Module, names):
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in names}


def mutants() -> list[dict]:
    """Every mutant of the targets, in source order: an id (module, function,
    operator, the source of the mutated node, and an ordinal where that
    repeats), its module, function, walk index, operator and line."""
    found = []
    for path, names in TARGETS.items():
        module = Path(path).stem
        tree = ast.parse((ROOT / path).read_text())
        for name, func in _functions(tree, names).items():
            seen = {}
            for index, node in enumerate(ast.walk(func)):
                for op, _ in _mutations(node):
                    key = f"{module}.{name}:{op}:{ast.unparse(node)}"
                    seen[key] = seen.get(key, 0) + 1
                    found.append({"id": key if seen[key] == 1 else f"{key}#{seen[key]}",
                                  "path": path, "function": name, "index": index,
                                  "op": op, "line": node.lineno})
    return found


def mutated_source(mutant: dict) -> str:
    """The module of ``mutant`` with its one change, as source."""
    tree = ast.parse((ROOT / mutant["path"]).read_text())
    func = _functions(tree, (mutant["function"],))[mutant["function"]]
    target = list(ast.walk(func))[mutant["index"]]
    apply = dict(_mutations(target))[mutant["op"]]
    new = apply(copy.deepcopy(target))
    for parent in ast.walk(func):
        for field, value in ast.iter_fields(parent):
            if value is target:
                setattr(parent, field, new)
            elif isinstance(value, list) and any(v is target for v in value):
                setattr(parent, field, [new if v is target else v for v in value])
    return ast.unparse(ast.fix_missing_locations(tree))


def _workspace() -> Path:
    """A temporary copy of what the tests import and read."""
    work = Path(tempfile.mkdtemp(prefix="bohrqed-mutant-"))
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
    return work


_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run_tests(work: Path, tests, timeout: float) -> tuple[str, str | None, float]:
    """``("survived" | "killed" | "timeout", first failing id, seconds)``."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONHASHSEED": "0"}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "--no-header",
             "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", None, time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "survived", None, seconds
    first = _FAILED.search(proc.stdout)
    return "killed", first.group(1) if first else f"exit {proc.returncode}", seconds


def _function_of(test_id: str | None) -> str | None:
    """A test id without its parametrization."""
    return None if test_id is None else test_id.split("[")[0]


def _tree_digest(folder: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(folder.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(folder)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run(selected: list[dict], tests, jobs: int, out: Path = OUT) -> dict:
    """Every mutant of ``selected`` against ``tests``, ``jobs`` at a time, each
    worker in its own workspace; the results written to ``out``."""
    works = [_workspace() for _ in range(jobs)]
    try:
        for work in works:  # the unmutated code must pass, or nothing is measured
            status, first, seconds = run_tests(work, tests, TIMEOUT)
            if status != "survived":
                raise SystemExit(f"the tests fail without a mutant: {first}")
        limit = max(TIMEOUT, 10 * seconds)
        results = {}

        def one(k: int) -> None:
            work = works[k % jobs]
            for mutant in selected[k::jobs]:
                target = work / mutant["path"]
                original = target.read_text()
                target.write_text(mutated_source(mutant))
                try:
                    status, first, seconds = run_tests(work, tests, limit)
                finally:
                    target.write_text(original)
                results[mutant["id"]] = {**mutant, "status": status, "killed_by": first,
                                         "seconds": round(seconds, 2)}
                print(f"{status:8} {seconds:6.1f}s {mutant['id']}"
                      + (f"  <- {first}" if first else ""), flush=True)

        with ThreadPoolExecutor(jobs) as pool:
            list(pool.map(one, range(jobs)))
    finally:
        for work in works:
            shutil.rmtree(work, ignore_errors=True)
    matrix = {m["id"]: results[m["id"]] for m in selected}
    kills = {}
    for mutant_id, result in matrix.items():
        if result["status"] != "survived":
            kills.setdefault(_function_of(result["killed_by"]) or result["status"],
                             []).append(mutant_id)
    survivors = [{"id": i, "line": r["line"]} for i, r in matrix.items()
                 if r["status"] == "survived"]
    out.mkdir(parents=True, exist_ok=True)
    (out / "matrix.json").write_text(json.dumps(
        {"tests": list(tests), "mutants": matrix}, indent=1) + "\n")
    (out / "kills.json").write_text(json.dumps(dict(sorted(kills.items())), indent=1) + "\n")
    (out / "survivors.json").write_text(json.dumps(survivors, indent=1) + "\n")
    print(f"{len(matrix) - len(survivors)} of {len(matrix)} mutants killed; "
          f"{len(survivors)} survived (see {out})")
    return matrix


def self_check() -> int:
    """The known mutant against ``SELF_CHECK_TESTS``: the original passes, the
    mutant is killed, and ``src/`` is byte for byte what it was."""
    before = _tree_digest(ROOT / "src")
    (mutant,) = [m for m in mutants() if m["id"] == SELF_CHECK_MUTANT]
    with tempfile.TemporaryDirectory(prefix="bohrqed-self-check-") as out:
        matrix = run([mutant], SELF_CHECK_TESTS, 1, Path(out))
    problems = []
    if matrix[SELF_CHECK_MUTANT]["status"] != "killed":
        problems.append(f"{SELF_CHECK_MUTANT} was not killed")
    if _tree_digest(ROOT / "src") != before:
        problems.append("src/ changed")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tests", nargs="+", default=list(TESTS),
                        help="test files or ids to run against each mutant")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    run(mutants(), args.tests, args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
