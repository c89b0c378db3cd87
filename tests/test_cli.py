import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from ainfsign import prover, structio
from ainfsign.ainfty import FilteredAInfty, OperationTable, exterior_dga, from_dga
from ainfsign.cli import main
from ainfsign.geomodel import CheckResult, checks

SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "ainfsign" / "schemas"


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@functools.cache
def ext2_text():
    """The exterior2 embedding with its operations stored on the basis, as
    structure-file text."""
    A = from_dga(exterior_dga(2), cutoff=1)
    gens = [g for g, _ in A.spaces["ext"].basis]
    values = {}
    for key in A.table.keys():
        spaces = ("ext",) * key[0]
        values[key] = {}
        for combo in itertools.product(gens, repeat=key[0]):
            value = A.table.lookup(key, spaces, combo)
            if not value.is_zero():
                values[key][(spaces, combo)] = value
    stored = FilteredAInfty(A.spaces, OperationTable(values=values), A.spectrum, A.cutoff)
    return json.dumps(structio.structure_to_json(stored))


def materialized_ext2(tmp_path):
    path = tmp_path / "ext2.json"
    path.write_text(ext2_text())
    return path


def test_nov_eval(capsys):
    code, out, _ = run(["nov-eval", "(1+T^(1/2))*(1-T^(1/2))"], capsys)
    assert code == 0 and out.strip() == "1 - T"


def test_nov_eval_bad_input(capsys):
    code, _, err = run(["nov-eval", "1 + * T"], capsys)
    assert code == 2 and "offset" in err


def test_prove_signs_exit_codes(capsys):
    code, out, _ = run(["prove-signs", "--k-max", "2", "--truth-table-k-max", "1"], capsys)
    assert code == 0 and "checks passed" in out
    code, _, err = run(["prove-signs", "--k-max", "0"], capsys)
    assert code == 2


def test_prove_signs_report_schema_and_determinism(tmp_path, capsys):
    schema = json.loads((SCHEMAS / "report.schema.json").read_text())
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run(
            ["prove-signs", "--k-max", "2", "--relations-k-max", "2",
             "--relations-spectrum", "0,1", "--relations-cutoff", "2",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        jsonschema.validate(json.loads(out.read_text()), schema)
    assert out1.read_bytes() == out2.read_bytes()


def test_report_dir_environment_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AINFSIGN_REPORT_DIR", str(tmp_path / "reports"))
    code, _, _ = run(["check-dga", "--preset", "exterior4", "--k-max", "2"], capsys)
    assert code == 0
    assert (tmp_path / "reports" / "check-dga.json").exists()


def test_verify_geomodel_small(capsys):
    code, out, _ = run(
        ["verify-geomodel", "--trials", "25", "--pushpull-trials", "5"], capsys
    )
    assert code == 0
    assert "composition" in out


# SHA-256 of the report as written before the exact kernel's fast paths.
GEOMODEL_TRIALS40_SEED3_SHA256 = "b5cb24653db770e4fce382cad48a8e39634f43608a1667a13aca76a42d16db4f"


def test_verify_geomodel_report_bytes_unchanged(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(
        ["verify-geomodel", "--trials", "40", "--seed", "3", "--out", str(out)], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEOMODEL_TRIALS40_SEED3_SHA256


@pytest.mark.parametrize("argv, flag", [
    (["--trials", "0"], "--trials"),
    (["--trials", "-3"], "--trials"),
    (["--pushpull-trials", "-2"], "--pushpull-trials"),
    (["--max-coords", "0"], "--max-coords"),
    (["--max-poly-deg", "-1"], "--max-poly-deg"),
])
def test_verify_geomodel_rejects_vacuous_counts(argv, flag, capsys):
    code, out, err = run(["verify-geomodel", *argv], capsys)
    assert code == 2 and f"{flag} must be >=" in err and "checks passed" not in out


def test_verify_geomodel_smallest_counts_accepted(capsys):
    code, out, _ = run(
        ["verify-geomodel", "--trials", "1", "--pushpull-trials", "0",
         "--max-coords", "1", "--max-poly-deg", "0"], capsys
    )
    assert code == 0 and "7/7 checks passed" in out


def test_verify_geomodel_timing_charges_each_checker(tmp_path, capsys, monkeypatch):
    clock = [0.0]

    def checker(index):
        def check(trials, seed, max_coords, max_poly_deg):
            clock[0] += index + 1  # each checker spends its own span of time
            return CheckResult(f"check-{index}", trials)
        return check

    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(checks, "ALL_CHECKS", tuple(checker(i) for i in range(7)))
    out = tmp_path / "report.json"
    code, _, _ = run(
        ["verify-geomodel", "--trials", "1", "--pushpull-trials", "0", "--timing",
         "--out", str(out)], capsys
    )
    assert code == 0
    runtimes = [c["runtime_s"] for c in json.loads(out.read_text())["checks"]]
    assert runtimes == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


def test_closed_stdout_keeps_report_and_verdict(tmp_path):
    report = tmp_path / "r.json"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ainfsign.cli", "check-dga", "--preset", "exterior3-d",
             "--k-max", "2", "--out", str(report)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr and b"Error" not in proc.stderr
    assert json.loads(report.read_text())["overall"] == "pass"


@pytest.mark.parametrize("argv", [
    ["enumerate-strata", "--k", "4", "--energy", "1", "--spectrum", "0,1/2", "--match"],
    ["nov-eval", "(1+T^(1/2))*(1-T^(1/2))"],
    ["anf", "--expr", "Sum(p=1..j-1, mu_p)", "--bind", "j=3"],
], ids=lambda argv: argv[0])
def test_closed_stdout_plain_commands(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ainfsign.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr and b"Error" not in proc.stderr


def test_prove_signs_timing_charges_each_obligation(tmp_path, capsys, monkeypatch):
    # every ANF decision spends one second of a fake clock
    clock = [0.0]

    def anf_equivalent(p, q):
        clock[0] += 1
        return True, None

    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(prover, "anf_equivalent", anf_equivalent)
    out = tmp_path / "report.json"
    code, _, _ = run(
        ["prove-signs", "--k-max", "2", "--relations-k-max", "2",
         "--relations-spectrum", "0,1", "--relations-cutoff", "2", "--timing",
         "--out", str(out)], capsys
    )
    assert code == 0
    checks = json.loads(out.read_text())["checks"]
    proofs = [c for c in checks if not c["id"].startswith("relation-cancellation")]
    relations = {c["id"]: c for c in checks if c["id"].startswith("relation-cancellation")}
    assert len(proofs) == 39 and all(c["runtime_s"] == 1.0 for c in proofs)
    # one decision per cancelled pair; the first level of arity k also
    # carries the master-identity prerequisites of the arity-k instances
    for check_id, prerequisites in (("k=1:energy=0", 3), ("k=1:energy=1", 0),
                                    ("k=2:energy=0", 6), ("k=2:energy=1", 0)):
        c = relations[f"relation-cancellation:{check_id}"]
        assert c["runtime_s"] == c["detail"]["pairs"] + prerequisites, check_id
    assert sum(c["runtime_s"] for c in checks) == clock[0]


def test_prove_signs_timing_is_unrounded(tmp_path, capsys, monkeypatch):
    # each ANF decision spends 2^-12 s of a fake clock: well under a
    # millisecond, and binary fractions add up exactly
    step = 2.0 ** -12
    clock = [0.0]

    def anf_equivalent(p, q):
        clock[0] += step
        return True, None

    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(prover, "anf_equivalent", anf_equivalent)
    out = tmp_path / "report.json"
    code, _, _ = run(["prove-signs", "--k-max", "2", "--timing", "--out", str(out)], capsys)
    assert code == 0
    runtimes = [c["runtime_s"] for c in json.loads(out.read_text())["checks"]]
    assert len(runtimes) == 39 and all(r == step for r in runtimes)
    assert sum(runtimes) == clock[0]


# SHA-256 of the report as written before the relation replay took its
# boundary payloads from enumerate_strata and its witnesses in closed form.
PROVE_SIGNS_K4_SHA256 = "52ce98e6294863cbf2883f6317f11ae07498ad48cf82005bf5f4bdaa1efdd22f"


def test_prove_signs_report_bytes_unchanged(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(
        ["prove-signs", "--k-max", "4", "--truth-table-k-max", "3", "--relations-k-max", "3",
         "--relations-spectrum", "0,1/2", "--relations-cutoff", "2", "--out", str(out)], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PROVE_SIGNS_K4_SHA256


@pytest.mark.parametrize("value", ["-1", "11"])
def test_prove_signs_rejects_truth_table_arity(capsys, value):
    code, _, err = run(["prove-signs", "--k-max", "1", "--truth-table-k-max", value], capsys)
    assert code == 2 and err.startswith("error: --truth-table-k-max must be in 0..10")


def test_prove_signs_largest_truth_table_arity_accepted(capsys):
    # --k-max 1 keeps the tables at k=1, well inside the bound
    code, _, _ = run(["prove-signs", "--k-max", "1", "--truth-table-k-max", "10"], capsys)
    assert code == 0


def test_check_dga_interval_circle(capsys):
    code, out, _ = run(
        ["check-dga", "--preset", "interval-circle", "--k-max", "2"], capsys
    )
    assert code == 0


# SHA-256 of each relation report as written before the relation values
# (Element, OperationTable, FilteredAInfty) were frozen.
RELATION_REPORTS_SHA256 = {
    "check-dga": "0ddc4dc1cc972bb373ba5bed5b6016c80da7fffad5e41e71bf4921274eef7b27",
    "deform-check": "e70cf10b411dae8bb2c9eb2ff3b68c1fcfd2b186445eeb0a980cf33540bb3f90",
    "check-ainfty": "ace4985cec95860b2969a663508d7d8fccb486d759416f8bb32d084637bd6a6c",
}


@pytest.mark.parametrize("argv", [
    ["check-dga", "--preset", "exterior3-d", "--k-max", "3"],
    ["deform-check", "--preset", "interval2", "--b", '{"u|dv": "-3/2*T"}', "--lam-min", "1",
     "--k-max", "2", "--seed", "1"],
    ["check-ainfty", "--file", "ext2.json", "--k-max", "3"],
], ids=lambda argv: argv[0])
def test_relation_report_bytes_unchanged(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the check-ainfty report records the relative file name
    materialized_ext2(tmp_path)
    code, _, _ = run(argv + ["--out", "report.json"], capsys)
    assert code == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == RELATION_REPORTS_SHA256[argv[0]]


def test_check_ainfty_roundtrip(tmp_path, capsys):
    path = materialized_ext2(tmp_path)
    schema = json.loads((SCHEMAS / "structure.schema.json").read_text())
    jsonschema.validate(json.loads(path.read_text()), schema)
    code, out, _ = run(["check-ainfty", "--file", str(path), "--k-max", "3"], capsys)
    assert code == 0


def test_check_ainfty_missing_file(capsys):
    code, _, err = run(["check-ainfty", "--file", "/nonexistent.json"], capsys)
    assert code == 2


def test_check_ainfty_reports_json_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "version": 1,\n  "oops"\n}')
    code, _, err = run(["check-ainfty", "--file", str(path)], capsys)
    assert code == 2 and "line 4" in err


def test_check_ainfty_reports_semantic_path(tmp_path, capsys):
    data = {
        "version": 1,
        "cutoff": "1",
        "spectrum_generators": [],
        "components": [{"name": "R", "dimension": 0, "maslov_parity": 0}],
        "spaces": [{"name": "H", "component": "missing", "basis": []}],
        "operations": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(["check-ainfty", "--file", str(path)], capsys)
    assert code == 2 and "$.spaces[0]" in err


def one_value_structure(value):
    """A structure file whose only operation value is ``value``."""
    return {
        "version": 1,
        "cutoff": "1",
        "spectrum_generators": [],
        "components": [{"name": "R", "dimension": 0, "maslov_parity": 0}],
        "spaces": [
            {"name": "H", "component": "R",
             "basis": [{"gen": "x", "degree": 0}, {"gen": "y", "degree": 1}]}
        ],
        "operations": [{"k": 1, "energy": "0", "tag": "0", "values": [value]}],
    }


@pytest.mark.parametrize("value, message, path", [
    ({"inputs": [["H", "z"]], "output": {"space": "H", "coeffs": {"y": "1"}}},
     "unknown generator 'z' of space 'H'", "$.operations[0].values[0].inputs[0]"),
    ({"inputs": [["H", "x"]], "output": {"space": "H", "coeffs": {"z": "1"}}},
     "unknown generator 'z' of space 'H'", "$.operations[0].values[0].output.coeffs.z"),
    ({"inputs": [[5]], "output": {"space": "H", "coeffs": {"y": "1"}}},
     "is not a [space, generator] pair", "$.operations[0].values[0].inputs[0]"),
    ({"inputs": [["H", "x"]], "output": {"space": "H", "coeffs": {"x": "1", "y": "1"}}},
     "output is not shifted-homogeneous", "$.operations[0].values[0].output.coeffs"),
], ids=["unknown-input-generator", "unknown-output-generator", "input-not-a-pair",
        "non-homogeneous-output"])
def test_check_ainfty_bad_operation_value_exits_two(value, message, path, tmp_path, capsys):
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(one_value_structure(value)))
    code, out, err = run(["check-ainfty", "--file", str(file), "--k-max", "1"], capsys)
    assert code == 2 and message in err and f"(at {path})" in err
    assert "checks passed" not in out


def ext2_with(path, value):
    """The materialized exterior2 structure with the node at ``path`` (a
    tuple of keys and indices; empty for the whole document) replaced."""
    doc = json.loads(ext2_text())
    if not path:
        return value
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("path, value, message, at", [
    ((), [], "expected an object", "$"),
    (("spaces",), {}, "expected a list", "$.spaces"),
    (("spaces", 0, "basis"), "x", "expected a list", "$.spaces[0].basis"),
    (("operations", 0, "values"), {}, "expected a list", "$.operations[0].values"),
    (("spectrum_generators",), "1/2", "expected a list", "$.spectrum_generators"),
    (("spaces", 0), 5, "expected an object", "$.spaces[0]"),
    (("operations", 1, "values", 0), 5, "expected an object", "$.operations[1].values[0]"),
    (("operations", 1, "values", 0, "output"), [], "expected an object",
     "$.operations[1].values[0].output"),
    (("operations", 1, "values", 0, "output", "coeffs"), "1", "expected an object",
     "$.operations[1].values[0].output.coeffs"),
    (("cutoff",), "0", "cutoff must be positive", "$.cutoff"),
    (("spectrum_generators",), ["1", "-1"], "spectrum generator must be positive",
     "$.spectrum_generators[1]"),
    (("operations", 0, "k"), -1, "arity must be nonnegative", "$.operations[0].k"),
], ids=["top-level", "spaces", "basis", "values", "spectrum-generators", "space-entry",
        "operation-value", "output", "coeffs", "cutoff", "negative-generator", "negative-arity"])
def test_check_ainfty_malformed_shape_exits_two(path, value, message, at, tmp_path, capsys):
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(ext2_with(path, value)))
    code, out, err = run(["check-ainfty", "--file", str(file), "--k-max", "1"], capsys)
    assert code == 2 and message in err and f"(at {at})" in err, err
    assert "checks passed" not in out


def json_paths(node, path=()):
    """Every node's path in a JSON document, the root's included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for step, child in children:
        yield from json_paths(child, path + (step,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_check_ainfty_any_one_node_replaced_exits_cleanly(data):
    path = data.draw(st.sampled_from(list(json_paths(json.loads(ext2_text())))))
    doc = ext2_with(path, data.draw(JSON_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "fuzzed.json"
        file.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["check-ainfty", "--file", str(file), "--k-max", "1",
                         "--out", str(Path(tmp) / "report.json")])
    assert code in (0, 1, 2)


def test_relation_failure_exits_one(tmp_path, capsys):
    # a lone unary operation that does not square to zero
    data = {
        "version": 1,
        "cutoff": "1",
        "spectrum_generators": [],
        "components": [{"name": "R", "dimension": 0, "maslov_parity": 0}],
        "spaces": [
            {"name": "H", "component": "R",
             "basis": [{"gen": "x", "degree": 0}, {"gen": "y", "degree": 1}]}
        ],
        "operations": [
            {"k": 1, "energy": "0", "tag": "0", "values": [
                {"inputs": [["H", "x"]], "output": {"space": "H", "coeffs": {"y": "1"}}},
                {"inputs": [["H", "y"]], "output": {"space": "H", "coeffs": {"x": "1"}}},
            ]}
        ],
    }
    path = tmp_path / "notadiff.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(["check-ainfty", "--file", str(path), "--k-max", "1"], capsys)
    assert code == 1 and "FAIL" in out


def test_enumerate_strata_json_and_schema(capsys):
    code, out, _ = run(
        ["enumerate-strata", "--k", "3", "--energy", "1", "--spectrum", "0,1/2,1",
         "--match"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    schema = json.loads((SCHEMAS / "strata.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert payload["matching"]["perfect"] is True
    assert payload["parity_consistent"] is True
    assert all(s["sign"] in (0, 1) for s in payload["strata"])


def test_enumerate_strata_bad_energy(capsys):
    code, _, err = run(
        ["enumerate-strata", "--k", "2", "--energy", "1/3", "--spectrum", "0,1/2"],
        capsys,
    )
    assert code == 2


def test_deform_check_explicit_and_random(capsys):
    code, out, _ = run(
        ["deform-check", "--preset", "interval2", "--b", '{"u|dv": "T"}',
         "--random", "2", "--k-max", "2"],
        capsys,
    )
    assert code == 0
    assert "curved-instance-present" in out


@pytest.mark.parametrize("b, message", [
    ('{"nope": "T"}', "unknown generator 'nope'"),
    ('{"u|dv^du": "T"}', "unknown generator 'u|dv^du'"),
    ('["u|dv"]', "must be a JSON object"),
    ('{"u|dv": 3}', "must be a string"),
])
def test_deform_check_rejects_malformed_cochain(b, message, capsys):
    code, _, err = run(["deform-check", "--preset", "interval2", "--b", b], capsys)
    assert code == 2 and message in err


def test_anf_command(capsys):
    code, out, _ = run(["anf", "--expr", "d1*(d2+1) + d1"], capsys)
    assert code == 0 and out.strip() == "d1*d2"
    code, out, _ = run(
        ["anf", "--expr", "Sum(p=1..j-1, mu_p)", "--bind", "j=3"], capsys
    )
    assert code == 0 and out.strip() == "mu_1 + mu_2"
    code, _, err = run(["anf", "--expr", "x*(y"], capsys)
    assert code == 2 and "offset" in err


def test_anf_from_file(tmp_path, capsys):
    path = tmp_path / "expr.txt"
    path.write_text("(k2-1)*(k1-j)\n")
    code, out, _ = run(
        ["anf", "--file", str(path), "--bind", "k2=2", "--bind", "k1=3", "--bind", "j=1"],
        capsys,
    )
    assert code == 0 and out.strip() == "0"


def test_structure_dump_load_identity(tmp_path):
    path = materialized_ext2(tmp_path)
    A = structio.load_structure(path)
    again = structio.structure_to_json(A)
    assert json.loads(path.read_text()) == again


def test_unreadable_input_files_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    not_utf8 = tmp_path / "not-utf8.txt"
    not_utf8.write_bytes(b"\xff\xfe\x00")
    for argv, name in [(["anf", "--file", str(missing)], missing),
                       (["anf", "--file", str(tmp_path)], tmp_path),
                       (["check-ainfty", "--file", str(tmp_path)], tmp_path),
                       (["anf", "--file", str(not_utf8)], not_utf8),
                       (["check-ainfty", "--file", str(not_utf8)], not_utf8)]:
        code, out, err = run(argv, capsys)
        assert code == 2 and err.startswith("error: ") and str(name) in err, (argv, err)
        assert "checks passed" not in out


@pytest.mark.parametrize("argv, flag", [
    (["check-dga", "--k-max", "-1"], "--k-max must be >= 0"),
    (["check-ainfty", "--file", "ext2.json", "--k-max", "-1"], "--k-max must be >= 0"),
    (["deform-check", "--random", "1", "--k-max", "-2"], "--k-max must be >= 0"),
    (["deform-check", "--random", "-1", "--b", '{"u|dv": "T"}'], "--random must be >= 0"),
    (["deform-check", "--random", "1", "--sample-size", "0"], "--sample-size must be >= 1"),
    (["deform-check", "--random", "1", "--exhaustive-threshold", "-1"],
     "--exhaustive-threshold must be >= 0"),
    (["prove-signs", "--k-max", "1", "--relations-k-max", "-1"],
     "--relations-k-max must be >= 0"),
    (["enumerate-strata", "--k", "0", "--energy", "0", "--spectrum", "0"], "--k must be >= 1"),
    (["enumerate-strata", "--k", "-1", "--energy", "0", "--spectrum", "0"], "--k must be >= 1"),
    (["deform-check", "--random", "1", "--lam-min", "0"], "--lam-min must be > 0"),
    (["deform-check", "--random", "1", "--lam-min", "-1"], "--lam-min must be > 0"),
    (["check-ainfty", "--file", "ext2.json", "--cutoff", "0"], "--cutoff must be > 0"),
    (["check-ainfty", "--file", "ext2.json", "--cutoff", "-1"], "--cutoff must be > 0"),
    (["check-dga", "--cutoff", "0"], "--cutoff must be > 0"),
    (["prove-signs", "--k-max", "1", "--relations-k-max", "1", "--relations-cutoff", "0"],
     "--relations-cutoff must be > 0"),
    (["enumerate-strata", "--k", "1", "--energy", "0", "--spectrum", "0", "--cutoff", "0"],
     "--cutoff must be > 0"),
    (["enumerate-strata", "--k", "1", "--energy", "-1", "--spectrum", "0"],
     "--energy must be >= 0"),
    (["enumerate-strata", "--k", "2", "--energy", "0", "--spectrum", "0", "--mus", "0,2"],
     "--mus entries must be 0 or 1"),
    (["enumerate-strata", "--k", "1", "--energy", "0", "--spectrum", "0", "--dim-out", "-1"],
     "--dim-out must be >= 0"),
    (["enumerate-strata", "--k", "1", "--energy", "0", "--spectrum", "0", "--node-dim", "-1"],
     "--node-dim must be >= 0"),
], ids=["check-dga-k-max", "check-ainfty-k-max", "deform-check-k-max", "random",
        "sample-size", "exhaustive-threshold", "relations-k-max", "strata-k-zero",
        "strata-k-negative", "lam-min-zero", "lam-min-negative", "check-ainfty-cutoff-zero",
        "check-ainfty-cutoff-negative", "check-dga-cutoff", "relations-cutoff",
        "strata-cutoff", "strata-energy", "strata-mus", "strata-dim-out", "strata-node-dim"])
def test_out_of_range_counts_exit_two(argv, flag, tmp_path, capsys, monkeypatch):
    materialized_ext2(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 2 and f"error: {flag}" in err, err
    assert "checks passed" not in out


_MISSING, _DIRECTORY = "<missing file>", "<directory>"
ARGV_TOKENS = (
    st.integers(-2, 2).map(str)
    | st.sampled_from(["1/2", "-1/3", "0/1", "1/0", "3/2"])
    | st.sampled_from(["", "x", "T^(", "{", "[]", '{"u|dv": "T"}', "j=3", "=1", "0,1/2",
                       "d1*(d2+1)", "exterior4", "interval2", _MISSING, _DIRECTORY])
)
ARGV_GRAMMAR = {
    "nov-eval": ([], ["expr"]),
    "anf": (["--expr", "--file", "--bind"], []),
    "enumerate-strata": (["--k", "--energy", "--spectrum", "--cutoff", "--tag", "--dim-out",
                          "--mu-out", "--mus", "--node-dim", "--node-mu", "--match"], []),
    "prove-signs": (["--k-max", "--truth-table-k-max", "--relations-k-max",
                     "--relations-spectrum", "--relations-cutoff"], []),
    "check-dga": (["--preset", "--k-max", "--cutoff"], []),
    "deform-check": (["--preset", "--b", "--random", "--lam-min", "--k-max",
                      "--exhaustive-threshold", "--sample-size"], []),
}


@st.composite
def drawn_argv(draw):
    command = draw(st.sampled_from(sorted(ARGV_GRAMMAR)))
    flags, positional = ARGV_GRAMMAR[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4)) if flags else ():
        argv.append(flag)
        if flag != "--match":
            argv.append(draw(ARGV_TOKENS))
    argv += [draw(ARGV_TOKENS) for _ in positional]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=drawn_argv())
def test_any_drawn_argv_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        substitute = {_MISSING: str(Path(tmp) / "missing"), _DIRECTORY: tmp}
        argv = [substitute.get(token, token) for token in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
