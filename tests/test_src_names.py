"""Dead-code guard: every module-level function and class of ``src/ainfsign``,
and every method that is not a dunder, is used by the program itself or by
the benchmark in ``perfbench/``.

A use is a name, an attribute, an imported name or a dotted string (the
benchmark's tracer names what it wraps by string) anywhere in ``src/`` or
in the benchmark's non-test files.  Two kinds of mention do not count: one
inside the definition's own body (recursion) and a re-export in a package
``__init__``, which only makes a name reachable.  Code that only tests call
belongs in the tests; what stays for a test's sake is listed below with the
reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ainfsign"
BENCH = ROOT / "perfbench"

# name -> why it stays although nothing in src/ or perfbench/ uses it
ALLOWED = {
    "stratum_sign": "the independent recomputation of a stratum's boundary sign that "
                    "test_stratum_sign_recomputation_agrees compares against",
    "F2Poly.evaluate": "evaluation of a normal form at one assignment, by which the "
                       "tests of test_f2poly and test_prover confirm that a witness "
                       "refutes and that elaboration agrees with integer evaluation",
}


def _sources():
    yield from sorted(SRC.rglob("*.py"))
    yield from sorted(p for p in BENCH.glob("*.py") if not p.name.startswith("test_"))


def _definitions():
    """(qualified name, file, first line, last line) of every module-level def
    and class, and of every method that is not a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, defs):
                continue
            yield node.name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not member.name.startswith("__"):
                        yield (f"{node.name}.{member.name}", path,
                               member.lineno, member.end_lineno)


def _uses():
    """name -> [(file, line)] of every use."""
    uses: dict[str, list] = {}
    for path in _sources():
        reexports = path.name == "__init__.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and not reexports:
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                names = parts if all(p.isidentifier() for p in parts) else []
            else:
                continue
            for name in names:
                uses.setdefault(name, []).append((path, node.lineno))
    return uses


def unused_names() -> list[str]:
    uses = _uses()
    unused = []
    for name, path, first, last in _definitions():
        outside = [
            (p, line) for p, line in uses.get(name.split(".")[-1], [])
            if not (p == path and first <= line <= last)
        ]
        if not outside:
            unused.append(f"{path.relative_to(ROOT)}:{first} {name}")
    return unused


def test_every_src_definition_has_a_caller():
    unused = [entry for entry in unused_names() if entry.split()[-1] not in ALLOWED]
    assert not unused, "defined in src/ but used only by tests or not at all: " + ", ".join(unused)


def test_allowlist_names_only_uncalled_definitions():
    unused = {entry.split()[-1] for entry in unused_names()}
    assert set(ALLOWED) <= unused, set(ALLOWED) - unused
