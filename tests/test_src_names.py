"""Dead-code guards: every module-level function and class of
``src/ainfsign``, and every method that is not a dunder, is used by the
program itself or by the benchmark in ``perfbench/``.

The static guard counts a use as a name, an attribute, an imported name or a
dotted string (the benchmark's tracer names what it wraps by string)
anywhere in ``src/`` or in the benchmark's non-test files.  Two kinds of
mention do not count: one inside the definition's own body (recursion) and
a re-export in a package ``__init__``, which only makes a name reachable.
Code that only tests call belongs in the tests; what stays for a test's
sake is listed below with the reason.

A bare name cannot tell one owner's method from another's: ``Element.scale``
is a use of every ``scale``.  So the call-trace guard runs the command lines
of ``TRACED_ARGV`` in-process under ``sys.setprofile`` and requires every
function and method of ``src/`` to be entered, or to be listed, with the
reason, in ``ALLOWED`` or ``NOT_TRACED``.

The same trace guards route independence: the two sides of an independent
pair may share only the ``src/`` functions listed, with the reason, for
that pair.

A result record is built once: every assignment in ``src/`` to an attribute
of an object other than ``self`` is listed, with the reason, in
``ATTRIBUTE_ASSIGNMENTS``, and no method of a ``Frozen`` class but
``__init__`` changes a container held in one of its slots.
"""

import ast
import contextlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from test_ainfty import _exterior3_d_with_m3, bar_relation, truncated
from test_prover import symbolic_context

from ainfsign import cli, prover, signs
from ainfsign.ainfty import FilteredAInfty, OperationTable
from ainfsign.geomodel import checks
from ainfsign.novikov import GappedSpectrum
from ainfsign.strata import (
    BClass,
    ComponentData,
    ModuliDescriptor,
    composition_terms,
    enumerate_strata,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ainfsign"
BENCH = ROOT / "perfbench"

# name -> why it stays although nothing in src/ or perfbench/ uses it
ALLOWED = {
    "F2Poly.evaluate": "evaluation of a normal form at one assignment, by which the "
                       "tests of test_f2poly and test_prover confirm that a witness "
                       "refutes and that elaboration agrees with integer evaluation",
    "prove_identity": "one identity proved on its own context with a fresh dict of term "
                      "values, against which test_prover checks that prove_all's shared "
                      "dicts change no verdict and no witness",
}


def _sources():
    yield from sorted(SRC.rglob("*.py"))
    yield from sorted(p for p in BENCH.glob("*.py") if not p.name.startswith("test_"))


def _definitions():
    """(qualified name, file, AST node) of every module-level def and class,
    and of every method that is not a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, defs):
                continue
            yield node.name, path, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not member.name.startswith("__"):
                        yield f"{node.name}.{member.name}", path, member


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
    for name, path, node in _definitions():
        outside = [
            (p, line) for p, line in uses.get(name.split(".")[-1], [])
            if not (p == path and node.lineno <= line <= node.end_lineno)
        ]
        if not outside:
            unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unused


def test_every_src_definition_has_a_caller():
    unused = [entry for entry in unused_names() if entry.split()[-1] not in ALLOWED]
    assert not unused, "defined in src/ but used only by tests or not at all: " + ", ".join(unused)


def test_allowlist_names_only_uncalled_definitions():
    unused = {entry.split()[-1] for entry in unused_names()}
    assert set(ALLOWED) <= unused, set(ALLOWED) - unused


# The command lines the call trace runs: each README command at a small
# size, an explicit deformation (``--b``) by a form beyond the preset's
# sampled basis, and a structure file with stored values, so that the
# structure reader parses coefficients.  ``{structure}`` and ``{report}``
# stand for files in the test's temporary directory.
TRACED_ARGV = [
    ["prove-signs", "--k-max", "3", "--truth-table-k-max", "3", "--relations-k-max", "2",
     "--relations-spectrum", "0,1/2", "--relations-cutoff", "2", "--out", "{report}"],
    ["verify-geomodel", "--trials", "20", "--pushpull-trials", "5", "--seed", "1",
     "--out", "{report}"],
    ["check-dga", "--preset", "exterior4", "--k-max", "2", "--out", "{report}"],
    ["check-dga", "--preset", "interval-circle", "--k-max", "2", "--out", "{report}"],
    ["deform-check", "--preset", "interval2", "--k-max", "2", "--out", "{report}"],
    ["deform-check", "--preset", "interval2", "--b", '{"u^3|dv": "T"}', "--k-max", "2",
     "--out", "{report}"],
    ["check-ainfty", "--file", "{structure}", "--k-max", "2", "--out", "{report}"],
    # a cutoff below the file's re-bases the structure there
    ["check-ainfty", "--file", "{structure}", "--k-max", "2", "--cutoff", "1/2",
     "--out", "{report}"],
    # arity 3 has 8000 words, so it is sampled, word by word through _word_sums
    ["deform-check", "--preset", "interval2", "--k-max", "3", "--exhaustive-threshold", "500",
     "--sample-size", "5", "--out", "{report}"],
    ["enumerate-strata", "--k", "3", "--energy", "1", "--spectrum", "0,1/2,1", "--mus", "0,1,0",
     "--match"],
    ["nov-eval", "(1+T^(1/2))*(1-T^(1/2))"],
    ["anf", "--expr", "Sum(p=1..j-1, mu_p) + 1", "--bind", "j=3"],
]

# The exterior algebra on one generator with its product stored on the basis.
STRUCTURE = {
    "version": 1, "cutoff": "1", "spectrum_generators": [],
    "components": [{"name": "ext", "dimension": 0, "maslov_parity": 0}],
    "spaces": [{"name": "ext", "component": "ext",
                "basis": [{"gen": "1", "degree": 0}, {"gen": "e1", "degree": 1}]}],
    "operations": [{"k": 2, "energy": "0", "tag": "0", "values": [
        {"inputs": [["ext", "1"], ["ext", "1"]], "output": {"space": "ext", "coeffs": {"1": "1"}}},
        {"inputs": [["ext", "1"], ["ext", "e1"]], "output": {"space": "ext", "coeffs": {"e1": "1"}}},
        {"inputs": [["ext", "e1"], ["ext", "1"]], "output": {"space": "ext", "coeffs": {"e1": "-1"}}},
    ]}],
}

# name -> why no traced command enters it although the program calls it
NOT_TRACED = {
    "Element.normalized": "kept only because the benchmark's curved-workload control calls it",
    "structure_to_json": "writes a structure file; only the benchmark's relations-flat "
                         "setup writes one",
    "F2Poly.variables": "read only when an equivalence fails, to name the witness's variables",
    "Poly.variables": "read only when Form or SmoothMapModel rejects a coefficient, to name "
                      "the variables that are not interval coordinates",
    "_Parser.error": "runs only on a rejected argv",
    "_rebuild": "rebuilds a Frozen value for copy and pickle; no command copies a value",
}


def traced(call):
    """``call()``'s result and the code objects entered while it runs."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, codes


def entered_functions(tmp_path) -> set[tuple[str, int, str]]:
    """(resolved file, first line, name) of every code object entered while
    the command lines of ``TRACED_ARGV`` run; each must exit 0.  The first
    line of a decorated function is its first decorator's."""
    files = {"{structure}": tmp_path / "structure.json", "{report}": tmp_path / "report.json"}
    files["{structure}"].write_text(json.dumps(STRUCTURE))
    codes = set()
    for argv in TRACED_ARGV:
        argv = [str(files.get(a, a)) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code, entered = traced(lambda: cli.main(argv))
        codes |= entered
        assert code == 0, argv
    resolved = {c.co_filename: str(Path(c.co_filename).resolve()) for c in codes}
    return {(resolved[c.co_filename], c.co_firstlineno, c.co_name) for c in codes}


def test_every_src_function_is_entered_by_the_commands(tmp_path, monkeypatch):
    monkeypatch.delenv("AINFSIGN_REPORT_DIR", raising=False)
    entered = entered_functions(tmp_path)
    untraced = {
        name for name, path, node in _definitions()
        if not isinstance(node, ast.ClassDef)
        and (str(path), min([node.lineno] + [d.lineno for d in node.decorator_list]),
             node.name) not in entered
    }
    missing = untraced - set(ALLOWED) - set(NOT_TRACED)
    assert not missing, "no traced command enters these: " + ", ".join(sorted(missing))
    assert set(NOT_TRACED) <= untraced, set(NOT_TRACED) - untraced


# module.function -> why both the stratum walk (``enumerate_strata``) and the
# composition double sum (``composition_terms``) may enter it
SHARED_BY_STRATA_ROUTES = {
    "novikov._rational": "the normal form of an energy, in which both sides read the "
                         "parent's energy and the spectrum; it decides no index",
}


def _src_names(codes) -> set[str]:
    """``module.function`` of each code object of ``src/`` among ``codes``."""
    names = set()
    for code in codes:
        path = Path(code.co_filename).resolve()
        if SRC in path.parents:
            module = ".".join(path.relative_to(SRC).with_suffix("").parts)
            names.add(f"{module}.{code.co_name}")
    return names


def test_stratum_walk_and_composition_terms_share_only_the_allowlist():
    """The two routes of the boundary-stratum index set enter one set of
    ``src/`` code objects each; they may share only the listed functions.
    Each side's own ``sorted`` key (``lambda c: c.name``) is its own code
    object, so it is not shared."""
    a, b = ComponentData("a", 2, 0), ComponentData("b", 1, 1)
    parent = ModuliDescriptor(BClass(1), a, (a, b, a, b))
    spectrum = GappedSpectrum((Fraction(1, 2),), 2)
    strata, walked = traced(lambda: enumerate_strata(parent, spectrum, [a, b]))
    terms, summed = traced(lambda: composition_terms(parent, spectrum, [a, b]))
    assert len(strata) == len(terms) == 80
    assert _src_names(walked & summed) == set(SHARED_BY_STRATA_ROUTES)


# module.function -> why both the relation sweep (``_relation_sums``, then
# ``_word_sums`` on every word) and pi_1 D^2 on the bar construction may
# enter it
SHARED_BY_RELATION_ROUTES = {
    "ainfty.lookup": "OperationTable.lookup: the stored values that both routes sum",
    "ainfty.degree_of": "HomSpace.degree_of: an input's degree, from which each route "
                        "computes its own Koszul sign",
    "ainfty.zero": "Element.zero: the value of a word that no operation stores",
    "novikov.__add__": "NovikovElement.__add__: both routes add up coefficients",
    "novikov.__mul__": "NovikovElement.__mul__: both routes scale a value by the "
                       "energy factor and the sign",
    "novikov.<genexpr>": "the generator expression inside NovikovElement.__mul__",
    "novikov._of": "NovikovElement._of: the trusted constructor of a sum or product",
    "frozen.__init__": "Frozen.__init__: sets the slots of each coefficient built",
}


def _stored_only(A):
    """``A`` with each fallback's values on the basis words stored, and no
    fallback, so that no value is computed on either side of a trace."""
    values = {key: dict(entry) for key, entry in A.table.values.items()}
    for key, fallback in A.table.fallbacks.items():
        entry = values.setdefault(key, {})
        for word in itertools.product(A.basis_generators(), repeat=key[0]):
            spaces, gens = tuple([s for s, _ in word]), tuple([g for _, g in word])
            value = fallback(spaces, gens)
            if not value.is_zero():
                entry[(spaces, gens)] = value
    return FilteredAInfty(A.spaces, OperationTable(values), A.spectrum, A.cutoff)


def test_relation_sweep_and_bar_route_share_only_the_allowlist():
    """On exterior3-d with a stored m3, at k = 3, the relation sweep and the
    bar route agree on every word and share only the listed functions; the
    Koszul signs of ``ainfsign.signs`` are entered by the sweep alone."""
    A = _stored_only(_exterior3_d_with_m3())
    assert not A.table.fallbacks
    generators, plan = A.basis_generators(), A._splittings(3)
    words = list(itertools.product(range(len(generators)), repeat=3))
    (swept, summed), sweep = traced(lambda: (
        A._relation_sums(3, plan, generators, {}),
        [A._word_sums(word, plan, generators) for word in words]))
    bars, bar = traced(lambda: [bar_relation(A, [generators[i] for i in word]) for word in words])
    assert len(words) == 512 and sum(bool(truncated(A, sums)) for sums in bars) == 15
    for word, sums, bar_sums in zip(words, summed, bars):
        assert truncated(A, sums) == truncated(A, swept.get(word, {})) == truncated(A, bar_sums)
    assert _src_names(sweep & bar) == set(SHARED_BY_RELATION_ROUTES)
    assert "signs.koszul_prefix" in _src_names(sweep)
    assert not any(name.startswith("signs.") for name in _src_names(bar))


# module.function -> why both the truth table of the master identity
# (``prover._truth_table_master``, on ``master_sum``) and its ANF proof
# (``prover.prove_identity``, which sums the same ``signs.MASTER_TERMS`` on
# symbolic parities and decides the sum by ``anf_equivalent``) may enter it
MASTER_SUM_FORMULA = "a sign formula of the master sum, the formula under test"
SIGN_CONTEXT = "a method of SignContext, whose parity inputs the formulas read"
SHARED_BY_PROOF_ROUTES = {
    "signs.boundary_sign": MASTER_SUM_FORMULA,
    "signs.composition_sign": MASTER_SUM_FORMULA,
    "signs.operation_sign": MASTER_SUM_FORMULA,
    "signs.stokes_sign": MASTER_SUM_FORMULA,
    "signs.moduli_dim_parity": MASTER_SUM_FORMULA,
    "signs.parent_dim_parity": MASTER_SUM_FORMULA,
    "signs.parent_operation_sign": MASTER_SUM_FORMULA,
    "signs.parent_stokes_sign": MASTER_SUM_FORMULA,
    "signs.minus_sign": MASTER_SUM_FORMULA,
    "signs._par": "the formulas' reduction of an int mod 2; it returns a column or a "
                  "polynomial as it is",
    "signs._total": "the formulas' sum of several parities",
    "signs.__init__": SIGN_CONTEXT,
    "signs.prefix_mus": SIGN_CONTEXT,
    "signs.inner_mus": SIGN_CONTEXT,
    "signs.suffix_mus": SIGN_CONTEXT,
    "signs.node_defect": SIGN_CONTEXT,
    "prover._context": "builds the SignContext from the 2k+3 parity inputs, columns on "
                       "one side and variables on the other",
    "frozen.__init__": "Frozen.__init__: sets the slots of the SignContext",
}


def test_truth_table_and_anf_proof_share_only_the_allowlist():
    """At k = 4, j = 2, k_inner = 2 the truth table finds no odd assignment
    and the ANF proof finds the master sum zero; they share only the
    formulas of the master sum and their context.  Only the truth table
    sums the terms through ``master_sum``, and it enters no ``f2poly``
    code."""
    bad, table = traced(lambda: prover._truth_table_master(4, 2, 2))
    report, anf = traced(lambda: prover.prove_identity("master", symbolic_context(4, 2, 2)))
    assert bad is None and report.proved
    assert _src_names(table & anf) == set(SHARED_BY_PROOF_ROUTES)
    assert "f2poly.anf_equivalent" in _src_names(anf)
    assert "signs.master_sum" in _src_names(table)
    assert not any(name.startswith("f2poly.") for name in _src_names(table))


# module.function -> why both routes of a boundary stratum in the relation
# replay, the Stokes rewrite (``prover._stokes_rewrite_route``) and the
# composition (``prover._composition_route``), may enter it
F2_ARITHMETIC = "GF(2) arithmetic on the symbolic parities, in which both sums are written"
SHARED_BY_REPLAY_ROUTES = {
    "signs.operation_sign": "the operation sign, of the parent tuple on the Stokes side and "
                            "of the outer and inner tuples in coderivation_sign; a formula "
                            "under test",
    "signs._par": "the formulas' reduction of an int mod 2; it returns a polynomial as it is",
    "signs._total": "the formulas' sum of several parities",
    "signs.prefix_mus": SIGN_CONTEXT,
    "signs.inner_mus": SIGN_CONTEXT,
    "signs.suffix_mus": SIGN_CONTEXT,
    "signs.node_defect": SIGN_CONTEXT,
    "f2poly.__add__": F2_ARITHMETIC,
    "f2poly.__mul__": F2_ARITHMETIC,
    "f2poly.__init__": "F2Poly.__init__: the constructor of each sum and product",
    "f2poly._picked": "the monomial masks of each factor of a product, read off its bits",
    "f2poly.position": "Ring.position: appends a product's monomial that is new to the "
                       "ring of the context, which both routes share",
}


def test_stokes_rewrite_and_composition_routes_share_only_the_allowlist():
    """At k = 4, j = 2, k_inner = 2 the two routes of a boundary stratum
    cancel, and on one context they share only the listed functions: the
    boundary, Stokes and dimension signs are entered by the Stokes rewrite
    alone, the coderivation and reorder signs by the composition alone."""
    ctx = symbolic_context(4, 2, 2)
    stokes, rewritten = traced(lambda: prover._stokes_rewrite_route(ctx))
    composition, composed = traced(lambda: prover._composition_route(ctx))
    assert (stokes + composition + 1).is_zero()
    assert _src_names(rewritten & composed) == set(SHARED_BY_REPLAY_ROUTES)
    assert {"signs.boundary_sign", "signs.stokes_sign"} <= _src_names(rewritten)
    assert {"signs.coderivation_sign", "signs.pushpull_reorder_sign"} <= _src_names(composed)


# module.function -> why both push-pull routes of a mock splitting, nested
# (``geomodel.checks._nested_pushpull``: the inner push-pull fed into the
# outer) and glued (``geomodel.checks._glued_pushpull``: one push-pull over
# the fiber product), may enter it
CALCULUS = "a kernel of the form calculus, in which both routes are written"
SHARED_BY_PUSHPULL_ROUTES = {
    "geomodel.core.pullback": CALCULUS,
    "geomodel.core.pushforward": CALCULUS,
    "geomodel.core.wedge": CALCULUS,
    "geomodel.core.wedge_all": "the wedge of a route's pulled-back inputs, in leg order",
    "geomodel.core._pull_letter": "the pullback of one 1-form letter, inside pullback",
    "geomodel.core._merge_sign": "the Koszul sign of sorting letters, inside pullback, "
                                 "wedge and pushforward",
    "geomodel.core._subst_into": "the substitution of a coefficient, inside pullback",
    "geomodel.core._mul_into": "the product of two coefficients, inside wedge",
    "geomodel.core._divide": "an exact division of a coefficient, inside pushforward's "
                             "fiber integral",
    "geomodel.core.partial": "Poly.partial, by which pushforward integrates a fiber "
                             "variable out",
    "geomodel.core._of": "Poly._of and Form._of: the trusted constructors of each result",
    "geomodel.core._same_space": "Form._same_space: wedge's check that both factors live "
                                "on one space",
    "geomodel.core.k": "CorrespondenceModel.k: the arity of a span",
    "geomodel.core.<listcomp>": "a list built inside the calculus kernels",
    "geomodel.core.<dictcomp>": "a dict built inside the calculus kernels",
    "novikov.exact_rational": "the rule for an exact coefficient, which the calculus "
                              "kernels check",
    "novikov._rational": "the normal form of an exact coefficient",
    "frozen.__eq__": "Frozen.__eq__: the comparison of two spaces, by which each kernel "
                     "checks where a form lives",
}


def test_nested_and_glued_pushpull_share_only_the_allowlist():
    """On a nontrivial mock splitting with a prefix, an inner block of three
    and a suffix (outer arity 3, slot 2), the nested and the glued routes
    agree up to the reorder sign and share only the form calculus; only the
    nested route applies a correspondence, and only the glued one builds
    the fiber product."""
    outer, inner, j, xis, mus = checks.random_mock_instance(random.Random(38))
    assert (outer.k, inner.k, j) == (3, 3, 2)
    report = checks.check_pushpull_identities(outer, inner, j, xis, mus)
    assert report.passed and report.nontrivial
    nested, nesting = traced(lambda: checks._nested_pushpull(outer, inner, j, xis))
    (glued, reordered), gluing = traced(lambda: checks._glued_pushpull(outer, inner, j, xis))
    assert nested == glued.scale((-1) ** report.detail["reorder_sign"]) and not nested.is_zero()
    assert _src_names(nesting & gluing) == set(SHARED_BY_PUSHPULL_ROUTES)
    assert "geomodel.core.apply_correspondence" in _src_names(nesting)
    assert "geomodel.core.fiber_product" in _src_names(gluing)


# (module, enclosing function, target) -> why the assignment sets an
# attribute of an object other than ``self``
ATTRIBUTE_ASSIGNMENTS = {
    ("cli", "_checked", "convert.__name__"): "names an argparse type after its parser, "
                                            "for argparse's error message",
    ("frozen", "Frozen.__init_subclass__", "cls._fields"): "a Frozen subclass's field "
                                                           "names, set once as it is made",
    ("frozen", "Frozen.__init_subclass__", "cls._setters"): "a Frozen subclass's slot "
                                                            "setters, set once as it is made",
    ("geomodel.core", "Poly._of", "poly.terms"): "the trusted constructor fills the "
                                                 "instance it has just made",
    ("geomodel.core", "Form._of", "form.space"): "the trusted constructor fills the "
                                                 "instance it has just made",
    ("geomodel.core", "Form._of", "form.terms"): "the trusted constructor fills the "
                                                 "instance it has just made",
    ("novikov", "_parse_expr", "sc.pos"): "advances the parser's scanner",
    ("novikov", "_parse_term", "sc.pos"): "advances the parser's scanner",
    ("novikov", "_parse_factor", "sc.pos"): "advances the parser's scanner",
}


def _assigned(node):
    """The innermost targets of an assignment statement, unpacked."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        pending = [node.target]
    else:
        return
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending += target.elts
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        else:
            yield target


def attribute_assignments() -> dict[tuple[str, str, str], list[int]]:
    """(module, enclosing function, target text) -> lines of every
    assignment in ``src/`` whose target is an attribute of an object other
    than ``self``."""
    found: dict = {}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            for target in _assigned(child):
                if isinstance(target, ast.Attribute) and not (
                        isinstance(target.value, ast.Name) and target.value.id == "self"):
                    key = (module, ".".join(scope), ast.unparse(target))
                    found.setdefault(key, []).append(child.lineno)
            visit(child, module, scope)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text()), module, [])
    return found


def test_no_code_sets_an_attribute_of_another_object_but_the_allowlist():
    found = attribute_assignments()
    assert set(found) == set(ATTRIBUTE_ASSIGNMENTS), {
        key: lines for key, lines in found.items() if key not in ATTRIBUTE_ASSIGNMENTS}


# methods that change a list, dict or set in place
MUTATORS = {"append", "extend", "insert", "remove", "pop", "popitem", "clear", "update",
            "setdefault", "add", "discard", "sort", "reverse", "difference_update",
            "intersection_update", "symmetric_difference_update", "__setitem__",
            "__delitem__"}


def _frozen_classes():
    """(module, class node, slot names) of every ``Frozen`` subclass in
    ``src/``, with the slots it inherits from a ``Frozen`` base."""
    classes = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (module, node)
    slots = {"Frozen": set()}
    while True:
        added = False
        for name, (_, node) in classes.items():
            bases = [ast.unparse(base).split(".")[-1] for base in node.bases]
            if name in slots or not any(base in slots for base in bases):
                continue
            own = set()
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "__slots__":
                    own = set(ast.literal_eval(stmt.value))
            slots[name] = own.union(*[slots.get(base, set()) for base in bases])
            added = True
        if not added:
            break
    return [(classes[name][0], classes[name][1], names) for name, names in slots.items()
            if name != "Frozen"]


def container_changes() -> dict[tuple[str, str], list[str]]:
    """(module, Class.method) -> the code, in a method of a ``Frozen``
    class other than ``__init__``, that assigns into, deletes from, or calls
    a mutating method on a container held in a slot of ``self`` (directly,
    through a local name bound to it, or through an item of it)."""
    found: dict = {}
    for module, cls, slots in _frozen_classes():
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                continue
            aliases = set()
            for node in ast.walk(method):  # local names bound to a slot
                if (isinstance(node, (ast.Assign, ast.NamedExpr)) and
                        _held(node.value, slots, set())):
                    for target in (node.targets if isinstance(node, ast.Assign)
                                   else [node.target]):
                        if isinstance(target, ast.Name):
                            aliases.add(target.id)
            changes = []
            for node in ast.walk(method):
                if isinstance(node, ast.Delete):
                    targets = node.targets
                else:
                    targets = list(_assigned(node))
                changed = [target.value for target in targets
                           if isinstance(target, ast.Subscript)]
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in MUTATORS):
                    changed.append(node.func.value)
                if any(_held(value, slots, aliases) for value in changed):
                    changes.append(ast.unparse(node))
            if changes:
                found[(module, f"{cls.name}.{method.name}")] = changes
    return found


def _held(node, slots, aliases) -> bool:
    """Whether ``node`` is a slot of ``self``, a name bound to one, or an
    item of either."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in aliases
    return (isinstance(node, ast.Attribute) and node.attr in slots
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def test_no_frozen_method_but_init_changes_a_container_in_a_slot():
    """A ``Frozen`` object is built once: its ``__init__`` fills its slots,
    and no other method changes what they hold."""
    assert container_changes() == {}
