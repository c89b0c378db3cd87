import argparse
import ast
import contextlib
import functools
import hashlib
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from ainfsign import ainfty, cli, prover, signs, structio
from ainfsign.ainfty import Element, FilteredAInfty, OperationTable, exterior_dga, from_dga
from ainfsign.cli import PRESETS, main
from ainfsign.geomodel import checks
from ainfsign.novikov import NovikovElement, spectrum_closure

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
    assert code == 2 and err.startswith("error: '1 + * T': ") and "offset" in err


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


@pytest.mark.parametrize("out, report_dir, source", [
    ("missing/r.json", None, "--out"),
    (".", None, "--out"),
    (None, "file/sub", "AINFSIGN_REPORT_DIR"),
    (None, "file", "AINFSIGN_REPORT_DIR"),
], ids=["out-missing-dir", "out-is-dir", "dir-under-file", "dir-is-file"])
def test_unwritable_report_exits_two(out, report_dir, source, tmp_path, capsys, monkeypatch):
    (tmp_path / "file").write_text("")
    argv = ["check-dga", "--k-max", "1"]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    if report_dir is None:
        monkeypatch.delenv("AINFSIGN_REPORT_DIR", raising=False)
    else:
        monkeypatch.setenv("AINFSIGN_REPORT_DIR", str(tmp_path / report_dir))
    code, _, err = run(argv, capsys)
    assert code == 2 and err.startswith(f"error: {source}: cannot write the report: "), err
    assert err.count("\n") == 1


def test_verify_geomodel_small(capsys):
    code, out, _ = run(
        ["verify-geomodel", "--trials", "25", "--pushpull-trials", "5"], capsys
    )
    assert code == 0
    assert "composition" in out


# SHA-256 of the report as written since push-pull draws one instance per
# trial, nontrivial by construction, and every checker counts its trials and
# nontrivial trials.
GEOMODEL_TRIALS40_SEED3_SHA256 = "e47c607321d16320962c868f5cb3e13e4b0801e07b71ba9e452c96560958c08f"
# The calculus benchmark's coordinate and polynomial-degree sizes, so the
# seeded stream of random forms and polynomials is pinned at those sizes.
GEOMODEL_TRIALS200_SEED5_SHA256 = "f6ba3e253f209a74cec75e0550ec69f0c244dfe2f89724ea973ae0b7456d4b5e"


def test_verify_geomodel_report_bytes_unchanged(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(
        ["verify-geomodel", "--trials", "40", "--seed", "3", "--out", str(out)], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEOMODEL_TRIALS40_SEED3_SHA256


def test_verify_geomodel_report_bytes_unchanged_at_benchmark_sizes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(
        ["verify-geomodel", "--trials", "200", "--max-coords", "4", "--max-poly-deg", "3",
         "--pushpull-trials", "30", "--seed", "5", "--out", str(out)], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEOMODEL_TRIALS200_SEED5_SHA256


@pytest.mark.parametrize("seed", range(10))
def test_verify_geomodel_few_pushpull_trials_pass(seed, tmp_path, capsys):
    """Each push-pull trial draws one instance, nontrivial by construction,
    so a short run neither stops early nor fails."""
    out = tmp_path / "report.json"
    code, _, _ = run(
        ["verify-geomodel", "--trials", "1", "--pushpull-trials", "5", "--seed", str(seed),
         "--out", str(out)], capsys
    )
    assert code == 0
    checks_ = json.loads(out.read_text())["checks"]
    assert checks_[-1]["detail"] == {"trials": 5, "nontrivial": 5}
    assert all(c["detail"]["trials"] == 1 for c in checks_[:-1])


@pytest.mark.parametrize("argv, flag", [
    (["--trials", "0"], "--trials"),
    (["--trials", "-3"], "--trials"),
    (["--pushpull-trials", "-2"], "--pushpull-trials"),
    (["--max-coords", "0"], "--max-coords"),
    (["--max-poly-deg", "-1"], "--max-poly-deg"),
])
def test_verify_geomodel_rejects_vacuous_counts(argv, flag, capsys):
    code, out, err = run(["verify-geomodel", *argv], capsys)
    assert code == 2 and f"error: argument {flag}: must be >=" in err
    assert "checks passed" not in out


def test_verify_geomodel_smallest_counts_accepted(capsys):
    code, out, _ = run(
        ["verify-geomodel", "--trials", "1", "--pushpull-trials", "0",
         "--max-coords", "1", "--max-poly-deg", "0"], capsys
    )
    assert code == 0 and "7/7 checks passed" in out


def test_verify_geomodel_timing_charges_each_checker(tmp_path, capsys, monkeypatch):
    clock = [0.0]

    def checker(index):
        def trial(rng, fresh, stats):
            clock[0] += index + 1  # each checker's trial spends its own span of time
            return False, None

        def check(trials, seed, *sizes):
            return checks._trial_loop(f"check-{index}", trials, seed, trial)
        return check

    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(checks, "ALL_CHECKS", tuple(checker(i) for i in range(7)))
    monkeypatch.setattr(checks, "verify_pushpull", checker(7))
    out = tmp_path / "report.json"
    code, _, _ = run(
        ["verify-geomodel", "--trials", "1", "--pushpull-trials", "1", "--timing",
         "--out", str(out)], capsys
    )
    assert code == 0
    runtimes = [c["runtime_s"] for c in json.loads(out.read_text())["checks"]]
    assert runtimes == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]


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
    # one decision per distinct splitting of an arity, charged to the level
    # that first reaches it, and nothing else
    assert len(relations) == 4
    spectrum = spectrum_closure([1], 2)
    for k in (1, 2):
        splittings = {payload[0] if kind == prover.PUSH_D else (payload[0], payload[3])
                      for energy in spectrum.closure if k > 1 or energy
                      for kind, payload in prover.expand_relation(k, energy, spectrum)}
        charged = [c["runtime_s"] for check_id, c in relations.items()
                   if check_id.startswith(f"relation-cancellation:k={k}:")]
        assert len(charged) == 2 and sum(charged) == len(splittings), k
    assert sum(c["runtime_s"] for c in checks) == clock[0]


def test_prove_signs_reports_a_wrong_sign_formula(tmp_path, capsys, monkeypatch):
    """A boundary sign flipped at inner arity 2 refutes the master identity
    and the boundary decomposition there, and every relation with such a
    stratum; the run still writes its report and exits 1."""
    real = signs.boundary_sign
    monkeypatch.setattr(signs, "boundary_sign",
                        lambda ctx: real(ctx) + 1 if ctx.k_inner == 2 else real(ctx))
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        ["prove-signs", "--k-max", "3", "--relations-k-max", "3",
         "--relations-spectrum", "0,1/2", "--relations-cutoff", "2", "--out", str(out)], capsys
    )
    assert code == 1 and "FAIL" in stdout
    failed = [c["id"] for c in json.loads(out.read_text())["checks"] if c["status"] == "fail"]
    assert len(failed) == 13
    assert [i for i in failed if i.startswith("identity=master")] == [
        "identity=master:j=1:k=2:k_inner=2", "identity=master:j=1:k=3:k_inner=2",
        "identity=master:j=2:k=3:k_inner=2",
    ]


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


# SHA-256 of the report as written since its parameters record
# --relations-cutoff; apart from that field it is the report written before
# the relation replay took its boundary payloads from enumerate_strata and
# its witnesses in closed form.
PROVE_SIGNS_K4_SHA256 = "05f7a6fb16e3e34d028b466d92fe8a721dd16d9c2b7139b8ecd9aa703c9437cb"


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
    assert code == 2 and err.startswith("error: argument --truth-table-k-max: must be in 0..10")


def test_prove_signs_largest_truth_table_arity_accepted(capsys):
    # --k-max 1 keeps the tables at k=1, well inside the bound
    code, _, _ = run(["prove-signs", "--k-max", "1", "--truth-table-k-max", "10"], capsys)
    assert code == 0


def test_check_dga_interval_circle(capsys):
    code, out, _ = run(
        ["check-dga", "--preset", "interval-circle", "--k-max", "2"], capsys
    )
    assert code == 0


# SHA-256 of each relation report as written since product-sign-convention
# and degree-parity report how much they checked, and since deform-check's
# parameters record --exhaustive-threshold and --sample-size.
RELATION_REPORTS_SHA256 = {
    "check-dga": "654b594eb6c21c0dbabf40fa5eb55da5049dc3faef5ac559a95c30c2e7ac2bb0",
    "deform-check": "f9866af3e29f1c2a593209c13f5e55e289d83c039678b2724b59dcc1b3cccc66",
    "check-ainfty": "2084d8e7fa31444444c0445decec7a6577bcfaa43e856690d73a7fea9f2856de",
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


# The report commands of the README's "Command line" section, each with the
# SHA-256 of its report as written since deform-check enumerates its
# cochains, since check-dga counts the words of an arity that no splitting
# reaches without sampling them and reports how many products it compared,
# and since prove-signs and deform-check record every flag that decides
# their checks; a change to any report byte shows here.
README_REPORTS = {
    "prove-signs": (
        ["prove-signs", "--k-max", "7", "--truth-table-k-max", "7", "--relations-k-max", "5",
         "--relations-spectrum", "0,1/2", "--relations-cutoff", "2"],
        "9421ca646bc20e9ebf9827603743f35336039bb017384fec2f3bdcbab59605fd",
    ),
    "verify-geomodel": (
        ["verify-geomodel", "--trials", "500", "--seed", "1", "--max-coords", "4",
         "--max-poly-deg", "3"],
        "fb3cd82e6ff78c235dd4d09f61449b48857407c25ed3dd9fbc2364b6ede24abf",
    ),
    "check-dga-exterior4": (
        ["check-dga", "--preset", "exterior4", "--k-max", "4"],
        "949aa06351f204e570bdb2c1b4902c40cfe63d602fd17de311c1677cdca23685",
    ),
    "check-dga-interval-circle": (
        ["check-dga", "--preset", "interval-circle", "--k-max", "4"],
        "3ba0d3760385f6f28fa93d79dee150c7ca2af78fd7f294bba9e117c107b2bc3a",
    ),
    "deform-check": (
        ["deform-check", "--preset", "interval2", "--lam-min", "1"],
        "0591ce029688043dc24d3a4509721da5f01404235fb94c9c9047f8805fd0c667",
    ),
}


@pytest.mark.parametrize("name", README_REPORTS)
def test_readme_report_bytes_unchanged(name, tmp_path, capsys):
    argv, sha256 = README_REPORTS[name]
    out = tmp_path / "report.json"
    code, _, _ = run(argv + ["--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# Calls of each entry point of the relation sweep during
# `check-dga --preset exterior3-d --k-max 3`.  The sweep goes over the
# operations' nonzero entries, so a passing run calls neither `_word_sums`
# nor `apply_raw`; its lookups are 259 for the sweep (72 tabulating each
# inner value once, and 187 outer ones, one wherever an inner output
# reaches) and 64 for the product-sign check.  A change in the work done
# shows here.
SWEEP_CALLS = {"_word_sums": 0, "apply_raw": 0, "lookup": 323}


def test_relation_sweep_work_is_pinned(tmp_path, capsys, monkeypatch):
    calls = dict.fromkeys(SWEEP_CALLS, 0)

    def counting(owner, name):
        original = getattr(owner, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(FilteredAInfty, "_word_sums")
    counting(FilteredAInfty, "apply_raw")
    counting(OperationTable, "lookup")
    argv = ["check-dga", "--preset", "exterior3-d", "--k-max", "3"]
    code, _, _ = run(argv + ["--out", str(tmp_path / "report.json")], capsys)
    assert code == 0
    assert calls == SWEEP_CALLS


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
    (("components", 0, "twist_trivialized"), False,
     "only a trivialized orientation twist is supported, got false",
     "$.components[0].twist_trivialized"),
    (("components",), [{"name": "ext", "dimension": 0, "maslov_parity": 0},
                       {"name": "ext", "dimension": 3, "maslov_parity": 0}],
     "repeated component 'ext'", "$.components[1].name"),
    (("spaces",), [{"name": "ext", "component": "ext", "basis": []}] * 2,
     "repeated space 'ext'", "$.spaces[1].name"),
    (("spaces", 0, "basis", 2), {"gen": "e1", "degree": 2},
     "repeated generator 'e1'", "$.spaces[0].basis[2].gen"),
    (("operations", 1, "values", 1, "inputs"), [["ext", "1"], ["ext", "1"]],
     'repeated inputs [["ext", "1"], ["ext", "1"]]', "$.operations[1].values[1].inputs"),
    (("spaces", 0, "basis", 1, "degree"), 1.5, "expected an integer, got 1.5",
     "$.spaces[0].basis[1].degree"),
    (("spaces", 0, "basis", 1, "degree"), "1", "expected an integer, got '1'",
     "$.spaces[0].basis[1].degree"),
    (("operations", 1, "k"), 2.5, "expected an integer, got 2.5", "$.operations[1].k"),
    (("components", 0, "dimension"), 2.9, "expected an integer, got 2.9",
     "$.components[0].dimension"),
    (("components", 0, "maslov_parity"), True, "expected an integer, got True",
     "$.components[0].maslov_parity"),
    (("components", 0, "maslov_parity"), 2, "maslov_parity must be 0 or 1, got 2",
     "$.components[0]"),
    (("components", 0, "dimension"), -1, "dimension must be >= 0, got -1", "$.components[0]"),
    (("cutoff",), 1e-7, "expected a string, got 1e-07", "$.cutoff"),
    (("spectrum_generators",), ["1", 0.5], "expected a string, got 0.5",
     "$.spectrum_generators[1]"),
    (("operations", 1, "energy"), 0.5, "expected a string, got 0.5", "$.operations[1].energy"),
    (("operations", 1, "energy"), 0, "expected a string, got 0", "$.operations[1].energy"),
    (("operations", 1, "values", 0, "output", "coeffs", "1"), 2, "expected a string, got 2",
     "$.operations[1].values[0].output.coeffs.1"),
    (("operations", 1, "tag"), 0, "expected a string, got 0", "$.operations[1].tag"),
    (("operations", 1, "tag"), ["0"], "expected a string, got ['0']", "$.operations[1].tag"),
    (("operations", 1, "energy"), "1/2", "operation energy 1/2 is outside the spectrum closure",
     "$.operations[1].energy"),
    (("operations", 1), {"k": 0, "energy": "0", "tag": "0", "values": [
        {"inputs": [], "output": {"space": "ext", "coeffs": {"1": "1"}}}]},
     "the zero-energy curvature operation must vanish", "$.operations[1].values[0]"),
], ids=["top-level", "spaces", "basis", "values", "spectrum-generators", "space-entry",
        "operation-value", "output", "coeffs", "cutoff", "negative-generator", "negative-arity",
        "twist-not-trivialized", "repeated-component", "repeated-space", "repeated-generator",
        "repeated-inputs", "float-degree", "string-degree", "float-arity", "float-dimension",
        "bool-maslov-parity", "maslov-parity-two", "negative-dimension", "number-cutoff",
        "number-generator", "float-energy", "int-energy", "number-coefficient", "number-tag",
        "list-tag", "energy-outside-spectrum", "nonzero-curvature"])
def test_check_ainfty_malformed_shape_exits_two(path, value, message, at, tmp_path, capsys):
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(ext2_with(path, value)))
    code, out, err = run(["check-ainfty", "--file", str(file), "--k-max", "1"], capsys)
    assert code == 2 and err.startswith(f"error: {file}: ") and err.count("\n") == 1, err
    assert message in err and f"(at {at})" in err, err
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


def test_relation_terms_in_different_spaces_exit_two(tmp_path, capsys):
    """m1 sends x and y into X, and m2 sends (x, x) and (x2, x) into Y, so the
    arity-2 relation at (x, x) adds m1(m2(x, x)) in X to m2(m1(x), x) in Y:
    the file is at fault, and the message names it, the word and the two
    spaces, in sorted order."""
    data = {
        "version": 1, "cutoff": "1", "spectrum_generators": [],
        "components": [{"name": "R", "dimension": 0, "maslov_parity": 0}],
        "spaces": [
            {"name": "X", "component": "R",
             "basis": [{"gen": "x", "degree": 1}, {"gen": "x2", "degree": 2}]},
            {"name": "Y", "component": "R", "basis": [{"gen": "y", "degree": 3}]},
        ],
        "operations": [
            {"k": 1, "energy": "0", "tag": "0", "values": [
                {"inputs": [["X", "x"]], "output": {"space": "X", "coeffs": {"x2": "1"}}},
                {"inputs": [["Y", "y"]], "output": {"space": "X", "coeffs": {"x2": "1"}}},
            ]},
            {"k": 2, "energy": "0", "tag": "0", "values": [
                {"inputs": [["X", "x"], ["X", "x"]],
                 "output": {"space": "Y", "coeffs": {"y": "1"}}},
                {"inputs": [["X", "x2"], ["X", "x"]],
                 "output": {"space": "Y", "coeffs": {"y": "1"}}},
            ]},
        ],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(data))
    code, out, err = run(["check-ainfty", "--file", str(path), "--k-max", "2"], capsys)
    assert code == 2 and err == (
        f"error: {path}: relation at the word [('X', 'x'), ('X', 'x')]: "
        "terms in spaces 'X' and 'Y'\n")
    assert "checks passed" not in out


def test_check_ainfty_records_the_cutoff_in_normal_form(tmp_path, capsys):
    path = materialized_ext2(tmp_path)
    code, out, _ = run(["check-ainfty", "--file", str(path), "--k-max", "1", "--cutoff", "2/2",
                        "--out", "-"], capsys)
    assert code == 0 and json.loads(out[out.index("{"):])["parameters"]["cutoff"] == "1"


@pytest.mark.parametrize("cutoff, code, checked, witness", [
    (None, 1, 2, "(T^2)*x"),
    ("2", 0, 7, None),
    ("5/2", 1, 2, "(T^2)*x"),
], ids=["own-cutoff", "below-the-square", "above-the-square"])
def test_check_ainfty_cutoff_checks_relations_modulo_that_power(cutoff, code, checked, witness,
                                                                 tmp_path, capsys):
    """m1 sends x to T*y and y to T*x, so m1(m1(x)) = T^2*x: the relations fail
    at the file's cutoff 3 and at 5/2, and hold modulo T^2."""
    data = {
        "version": 1, "cutoff": "3", "spectrum_generators": ["1/2"],
        "components": [{"name": "R", "dimension": 0, "maslov_parity": 0}],
        "spaces": [{"name": "H", "component": "R",
                    "basis": [{"gen": "x", "degree": 0}, {"gen": "y", "degree": 1}]}],
        "operations": [{"k": 1, "energy": "1", "tag": "0", "values": [
            {"inputs": [["H", "x"]], "output": {"space": "H", "coeffs": {"y": "1"}}},
            {"inputs": [["H", "y"]], "output": {"space": "H", "coeffs": {"x": "1"}}},
        ]}],
    }
    path = tmp_path / "square.json"
    path.write_text(json.dumps(data))
    flags = [] if cutoff is None else ["--cutoff", cutoff]
    got, out, _ = run(["check-ainfty", "--file", str(path), "--k-max", "2", *flags,
                       "--out", "-"], capsys)
    report = json.loads(out[out.index("{"):])
    relations = report["checks"][-1]
    assert got == code and report["parameters"]["cutoff"] == (cutoff or "3")
    assert relations["detail"]["tuples_checked"] == checked
    assert (relations["witness"] or {}).get("defect") == witness


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


# enumerate-strata argv -> SHA-256 of its standard output, which lists every
# stratum's sign: the README command, and one with odd Maslov parities on
# the inputs, the output and the node, in the form of the proofs benchmark.
ENUMERATE_STRATA_STDOUT_SHA256 = {
    "--k 3 --energy 1 --spectrum 0,1/2,1 --match":
        "e324522f6f166bf08f7ae22a2df5cff3f8ef903a06f7d88de142e82f64f3a35e",
    "--k 6 --energy 1 --spectrum 0,1/2 --mus 0,1,1,0,1,0 --mu-out 1 --dim-out 3 "
    "--node-mu 1 --node-dim 2 --match":
        "8a72e7510436efa3e2917cddfe0b07398c96e001732f428ddcb16ffd11bb3d7c",
}


@pytest.mark.parametrize("argv", ENUMERATE_STRATA_STDOUT_SHA256)
def test_enumerate_strata_stdout_bytes_unchanged(argv, capsys):
    code, out, _ = run(["enumerate-strata", *argv.split()], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_STRATA_STDOUT_SHA256[argv]


def test_enumerate_strata_match_uses_the_listed_strata(capsys, monkeypatch):
    """`--match` enumerates the strata once, and matches the strata it
    lists: one dropped from the enumeration is an unmatched term."""
    calls, enumerate_strata = [], cli.enumerate_strata

    def dropping(*args):
        calls.append(args)
        return enumerate_strata(*args)[1:]

    monkeypatch.setattr(cli, "enumerate_strata", dropping)
    code, out, _ = run(
        ["enumerate-strata", "--k", "3", "--energy", "1", "--spectrum", "0,1/2,1", "--match"],
        capsys,
    )
    payload = json.loads(out)
    assert len(calls) == 1 and code == 1
    assert payload["matching"]["unmatched_strata"] == []
    assert len(payload["matching"]["unmatched_terms"]) == 1


def test_enumerate_strata_bad_energy(capsys):
    code, _, err = run(
        ["enumerate-strata", "--k", "2", "--energy", "1/3", "--spectrum", "0,1/2"],
        capsys,
    )
    assert code == 2


def deform_report(argv, capsys) -> tuple[int, dict]:
    code, out, _ = run(["deform-check", *argv, "--out", "-"], capsys)
    return code, json.loads(out[out.index("{"):])


def test_reports_record_the_flags_that_decide_their_checks(capsys):
    """prove-signs records --relations-cutoff, which bounds the replayed
    energy levels, and deform-check the threshold and sample size, which
    decide what it samples."""
    code, out, _ = run(["prove-signs", "--k-max", "1", "--relations-k-max", "1",
                        "--relations-cutoff", "6/4", "--out", "-"], capsys)
    assert code == 0 and json.loads(out[out.index("{"):])["parameters"]["relations_cutoff"] == "3/2"
    code, report = deform_report(["--b", '{"u|dv": "T"}', "--k-max", "2",
                                  "--exhaustive-threshold", "50", "--sample-size", "30"], capsys)
    assert code == 0
    assert report["checks"][0]["detail"]["sampled_arities"] == [2]
    assert {key: report["parameters"][key] for key in ("exhaustive_threshold", "sample_size")} \
        == {"exhaustive_threshold": 50, "sample_size": 30}


def test_deform_check_explicit_cochain_is_the_only_candidate(capsys):
    code, report = deform_report(
        ["--preset", "interval2", "--b", '{"u|dv": "T"}', "--k-max", "2"], capsys)
    assert code == 0
    assert [c["id"] for c in report["checks"]] == ["deform:explicit", "curved-instance-present"]
    assert report["checks"][-1]["detail"] == {"curved": 1, "total": 1}


@pytest.mark.parametrize("sample_size, checked, sampled", [
    ("1000", 421, []), ("400", 421, []), ("399", 420, [2])])
def test_deform_check_enumerates_an_arity_no_larger_than_the_sample(
        sample_size, checked, sampled, capsys):
    """A sample draws with replacement and counts each draw, so an arity of
    at most --sample-size words is enumerated: 1 + 20 + 400 words to arity
    2, not 1,000 draws at each arity."""
    code, report = deform_report(
        ["--preset", "interval2", "--k-max", "2", "--exhaustive-threshold", "0",
         "--sample-size", sample_size], capsys)
    assert code == 0
    deforms = [c["detail"] for c in report["checks"] if c["id"].startswith("deform:")]
    assert len(deforms) == 10
    assert all((d["tuples_checked"], d["sampled_arities"]) == (checked, sampled)
               for d in deforms)


@pytest.mark.parametrize("preset", PRESETS)
def test_check_dga_report_does_not_depend_on_the_seed(preset, capsys):
    """The presets store only m1 and m2, so no splitting reaches arity 4 or
    more, and arity 3 has at most 20**3 = 8,000 words, within the
    exhaustive threshold: check-dga never samples, and --seed is only
    recorded."""
    reports = []
    for seed in (1, 99):
        code, out, _ = run(["check-dga", "--preset", preset, "--k-max", "5",
                            "--seed", str(seed), "--out", "-"], capsys)
        assert code == 0
        report = json.loads(out[out.index("{"):])
        assert report["parameters"].pop("seed") == seed
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["checks"][0]["detail"]["sampled_arities"] == []


@pytest.mark.parametrize("seed", range(10))
def test_readme_deform_check_passes_at_every_seed(seed, capsys):
    code, report = deform_report(
        ["--preset", "interval2", "--lam-min", "1", "--seed", str(seed)], capsys)
    assert code == 0
    deforms = [c for c in report["checks"] if c["id"].startswith("deform:")]
    assert len(deforms) == 10
    assert all(c["detail"]["sampled_arities"] == [3] for c in deforms)
    assert report["checks"][-1] == {"id": "curved-instance-present", "status": "pass",
                                    "detail": {"curved": 4, "total": 10}}


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("lam_min", ["1", "1/2"])
def test_deform_check_candidates_are_the_odd_generators_times_t_lam(preset, lam_min, capsys):
    dga = PRESETS[preset]()
    A = from_dga(dga, 4 * Fraction(lam_min))
    odd = [g for g, d in A.spaces[dga.space_name].basis if d % 2 == 1]
    assert odd  # every preset has a cochain to deform by
    _, report = deform_report(["--preset", preset, "--lam-min", lam_min, "--k-max", "0"], capsys)
    coefficient = NovikovElement.monomial(1, Fraction(lam_min))
    assert [(c["id"], c["detail"]["b"]) for c in report["checks"][:-1]] == [
        (f"deform:{g}", str(Element(dga.space_name, {g: coefficient}))) for g in odd]


def test_deform_check_exterior4_has_no_curved_candidate(capsys):
    # d = 0 on the exterior algebra, so no deformation is curved
    code, report = deform_report(["--preset", "exterior4", "--k-max", "1"], capsys)
    assert code == 1
    assert all(c["status"] == "pass" for c in report["checks"][:-1])
    assert report["checks"][-1]["detail"] == {"curved": 0, "total": 8}


@pytest.mark.parametrize("b, message", [
    ('{"nope": "T"}', "unknown generator 'nope'"),
    ('{"u|dv^du": "T"}', "unknown generator 'u|dv^du'"),
    ('{"u^0|dv": "T"}', "unknown generator 'u^0|dv'"),
    ('["u|dv"]', "expected an object, got ['u|dv'] (at --b)"),
    ('{"u|dv": 3}', "expected a string, got 3 (at --b.u|dv)"),
])
def test_deform_check_rejects_malformed_cochain(b, message, capsys):
    code, _, err = run(["deform-check", "--preset", "interval2", "--b", b], capsys)
    assert code == 2 and message in err and "(at --b" in err and err.count("\n") == 1, err


def test_repeated_command_parses_the_same_form_keys(capsys, monkeypatch):
    """A form key is parsed once per preset, not once per process: a
    command run twice in one process enters the parser as often each time."""
    monkeypatch.delenv("AINFSIGN_REPORT_DIR", raising=False)
    parser = inspect.unwrap(ainfty._parse_form_key).__code__
    argv = ["deform-check", "--preset", "interval2", "--b", '{"u^3|dv": "T"}', "--k-max", "2"]
    entries = []
    for _ in range(2):
        entered = [0]

        def hook(frame, event, arg):
            entered[0] += frame.f_code is parser
            return None  # no line tracing

        previous = sys.gettrace()
        sys.settrace(hook)
        try:
            code, _, _ = run(argv, capsys)
        finally:
            sys.settrace(previous)
        assert code == 0
        entries.append(entered[0])
    assert entries[0] > 0 and entries[1] == entries[0], entries


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
    (["check-dga", "--k-max", "-1"], "argument --k-max: must be >= 0"),
    (["check-ainfty", "--file", "ext2.json", "--k-max", "-1"], "argument --k-max: must be >= 0"),
    (["deform-check", "--k-max", "-2"], "argument --k-max: must be >= 0"),
    # the candidates are enumerated, so there is no count of random ones
    (["deform-check", "--random", "1"], "unrecognized arguments: --random 1"),
    (["deform-check", "--sample-size", "0"], "argument --sample-size: must be >= 1"),
    (["deform-check", "--exhaustive-threshold", "-1"],
     "argument --exhaustive-threshold: must be >= 0"),
    (["prove-signs", "--k-max", "1", "--relations-k-max", "-1"],
     "argument --relations-k-max: must be >= 0"),
    (["prove-signs", "--k-max", "2", "--relations-k-max", "3"],
     "--relations-k-max must be <= --k-max (2)"),
    (["enumerate-strata", "--k", "0", "--energy", "0", "--spectrum", "0"],
     "argument --k: must be >= 1"),
    (["enumerate-strata", "--k", "-1", "--energy", "0", "--spectrum", "0"],
     "argument --k: must be >= 1"),
    (["deform-check", "--lam-min", "0"], "argument --lam-min: must be > 0"),
    (["deform-check", "--lam-min", "-1"], "argument --lam-min: must be > 0"),
    (["check-ainfty", "--file", "ext2.json", "--cutoff", "0"], "argument --cutoff: must be > 0"),
    (["check-ainfty", "--file", "ext2.json", "--cutoff", "-1"], "argument --cutoff: must be > 0"),
    (["check-dga", "--cutoff", "0"], "argument --cutoff: must be > 0"),
    (["prove-signs", "--k-max", "1", "--relations-k-max", "1", "--relations-cutoff", "0"],
     "argument --relations-cutoff: must be > 0"),
    # any cutoff above the energy gives the same strata, so there is no flag
    (["enumerate-strata", "--k", "1", "--energy", "0", "--spectrum", "0", "--cutoff", "0"],
     "unrecognized arguments: --cutoff 0"),
    (["enumerate-strata", "--k", "1", "--energy", "-1", "--spectrum", "0"],
     "argument --energy: must be >= 0"),
    (["enumerate-strata", "--k", "2", "--energy", "0", "--spectrum", "0", "--mus", "0,2"],
     "argument --mus: entries must be 0 or 1"),
    (["enumerate-strata", "--k", "1", "--energy", "0", "--spectrum", "0", "--dim-out", "-1"],
     "argument --dim-out: must be >= 0"),
    (["enumerate-strata", "--k", "1", "--energy", "0", "--spectrum", "0", "--node-dim", "-1"],
     "argument --node-dim: must be >= 0"),
    (["check-dga", "--cutoff", "abc"], "argument --cutoff: bad rational 'abc'"),
    (["enumerate-strata", "--k", "3", "--mus", "0,0,0", "--energy", "1/0",
      "--spectrum", "0,1/2"], "argument --energy: bad rational '1/0'"),
    (["enumerate-strata", "--k", "3", "--mus", "0,x", "--energy", "1", "--spectrum", "0,1/2"],
     "argument --mus: entries must be 0 or 1, got '0,x'"),
    (["enumerate-strata", "--k", "1", "--energy", "1", "--spectrum", "0,x"],
     "argument --spectrum: bad rational 'x'"),
    (["prove-signs", "--k-max", "1", "--relations-k-max", "1", "--relations-spectrum", "0,y"],
     "argument --relations-spectrum: bad rational 'y'"),
    (["check-ainfty", "--file", "ext2.json", "--cutoff", "5"],
     "--cutoff 5 exceeds the structure's cutoff 1"),
    (["deform-check", "--b", "notjson"], "--b: not JSON"),
    (["deform-check", "--b", '{"u|dv": "T+1/0"}'],
     "bad coefficient 'T+1/0': denominator must be positive (at offset 4) (at --b.u|dv)"),
    (["deform-check", "--b", '{"1|": "T"}'], "--b: the deforming element must have even"),
    (["deform-check", "--b", '{"u|dv": "1"}'], "--b: every coefficient of b needs valuation"),
    (["enumerate-strata", "--k", "2", "--energy", "1/2", "--spectrum", "0,1"],
     "--energy: parent energy 1/2 is not in the spectrum closure"),
    (["check-dga", "--k-max", "x"], "argument --k-max: invalid int value: 'x'"),
    (["anf", "--expr", "a", "--file", "b"], "argument --file: not allowed with argument --expr"),
    (["anf", "--bind", "j=x"], "argument --bind: expected name=integer, got 'j=x'"),
    # a binding of no name would bind nothing
    (["anf", "--expr", "x", "--bind", "=1"], "argument --bind: expected name=integer, got '=1'"),
    (["anf", "--expr", "x", "--bind", "1x=1"],
     "argument --bind: expected name=integer, got '1x=1'"),
    # of two bindings of one name neither may win silently
    (["anf", "--expr", "x", "--bind", "x=1", "--bind", "x=0"], "--bind: repeated name 'x'"),
    # an energy below 0 is wrong whether or not the spectrum would reach it
    (["prove-signs", "--k-max", "1", "--relations-spectrum", "-1"],
     "argument --relations-spectrum: must be >= 0"),
    (["enumerate-strata", "--k", "1", "--energy", "1", "--spectrum", "1,-1"],
     "argument --spectrum: must be >= 0"),
    (["check-dga", "--k-max", "1", "--out", ""], "argument --out: must not be empty"),
    # a zero cochain deforms nothing, so there is nothing to check
    (["deform-check", "--b", "{}"], "--b: the deforming element is zero"),
    (["deform-check", "--b", '{"u|dv": "0"}'], "--b: the deforming element is zero"),
    # every flag is checked on its own, whether or not the command reads it
    (["prove-signs", "--k-max", "1", "--relations-cutoff", "0"],
     "argument --relations-cutoff: must be > 0"),
    # an argv token is echoed with its newline escaped, so the message is one line
    (["check-dga", "x\ny"], "unrecognized arguments: x\\ny"),
], ids=["check-dga-k-max", "check-ainfty-k-max", "deform-check-k-max", "random",
        "sample-size", "exhaustive-threshold", "relations-k-max",
        "relations-k-max-above-k-max", "strata-k-zero",
        "strata-k-negative", "lam-min-zero", "lam-min-negative", "check-ainfty-cutoff-zero",
        "check-ainfty-cutoff-negative", "check-dga-cutoff", "relations-cutoff",
        "strata-cutoff", "strata-energy", "strata-mus", "strata-dim-out", "strata-node-dim",
        "check-dga-cutoff-unparsed", "strata-energy-unparsed", "strata-mus-unparsed",
        "strata-spectrum-unparsed", "relations-spectrum-unparsed",
        "check-ainfty-cutoff-above-structure", "b-not-json", "b-coefficient-unparsed",
        "b-odd", "b-valuation", "strata-energy-outside-spectrum", "check-dga-k-max-unparsed",
        "anf-expr-and-file", "anf-bind-unparsed", "anf-bind-empty-name",
        "anf-bind-digit-first", "anf-bind-repeated", "relations-spectrum-negative", "strata-spectrum-negative",
        "out-empty", "b-empty", "b-zero",
        "relations-cutoff-unreplayed", "token-with-newline"])
def test_out_of_range_counts_exit_two(argv, flag, tmp_path, capsys, monkeypatch):
    materialized_ext2(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 2 and f"error: {flag}" in err and err.count("\n") == 1, err
    assert "checks passed" not in out


# Input nested deeper than a recursive reader goes: the JSON decoder, or the
# element and sign-expression parsers.
@pytest.mark.parametrize("argv, source", [
    (["anf", "--expr", "(" * 400 + "x" + ")" * 400], "--expr"),
    (["anf", "--file", "minus.txt"], "minus.txt"),
    (["nov-eval", "(" * 2000 + "T" + ")" * 2000], "'(((("),
    (["check-ainfty", "--file", "nested.json"], "nested.json"),
    (["deform-check", "--preset", "interval2", "--b", "[" * 20_000], "--b"),
], ids=["anf-expr-parentheses", "anf-file-minus-signs", "nov-eval-parentheses",
        "check-ainfty-nested-json", "deform-check-b-nested-json"])
def test_deeply_nested_input_exits_two(argv, source, tmp_path, capsys, monkeypatch):
    (tmp_path / "minus.txt").write_text("-" * 5_000 + "x")
    (tmp_path / "nested.json").write_text("[" * 100_000)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 2 and err.startswith(f"error: {source}") and err.count("\n") == 1, err[:200]
    assert err.endswith(": nested too deeply to read\n") and not out


def test_cli_import_loads_only_what_the_commands_use():
    """Start-up pays for no module that no command needs: importing the
    command line loads neither ``dataclasses`` nor ``typing``, ``pathlib``
    or ``inspect``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import ainfsign.cli, sys; print(sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    loaded = set(ast.literal_eval(proc.stdout))
    assert "ainfsign.cli" in loaded
    assert not loaded & {"dataclasses", "typing", "pathlib", "inspect"}, sorted(loaded)


# Run in a fresh interpreter with the argv lists, as Python literals, in
# sys.argv[1]: prints each run's exit code, then the modules then loaded.
COMMANDS_THEN_MODULES = """\
import ast, contextlib, io, sys
from ainfsign import cli
codes = []
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:  # --help and --version print and exit
            codes.append(exc.code)
print(codes)
print(sorted(sys.modules))
"""


def test_commands_load_no_compression_modules(tmp_path):
    """argparse sizes help text by ``shutil.get_terminal_size``, and
    ``shutil`` loads ``bz2``, ``lzma``, ``zlib`` and ``fnmatch``; the command
    line sizes it without them, whether a command runs, prints help or its
    version, or is rejected.  A fresh interpreter, since pytest loads
    ``shutil`` itself."""
    argvs = [["nov-eval", "T"], ["check-dga", "--k-max", "1", "--out", str(tmp_path / "r.json")],
             ["prove-signs", "--k-max", "1"], ["check-dga", "--k-max", "-1"],
             ["--help"], ["--version"], ["check-dga", "--help"]]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("AINFSIGN_REPORT_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COMMANDS_THEN_MODULES, repr(argvs)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    codes, loaded = map(ast.literal_eval, proc.stdout.splitlines())
    assert codes == [0, 0, 0, 2, 0, 0, 0]
    assert not set(loaded) & {"shutil", "bz2", "lzma", "zlib", "fnmatch"}, loaded


# Run in a fresh interpreter: the help formatter's width, argparse's own
# width, and the argv whose stdout differs between cli.main and a reference
# parser built with argparse's own formatter (top-level help, --version and
# every subcommand's help), as JSON on stderr, so stdout may be a terminal.
HELP_AS_ARGPARSE_PRINTS_IT = """\
import argparse, contextlib, io, json, sys
from ainfsign import cli

def printed(parse, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            parse(argv)
        except SystemExit:
            pass
    return out.getvalue()

formatter, cli._help_formatter = cli._help_formatter, argparse.HelpFormatter
reference = cli.build_parser()
cli._help_formatter = formatter
argvs = [["--help"], ["--version"]] + [[name, "--help"] for name, *_ in cli.COMMANDS]
print(json.dumps({
    "width": cli._help_formatter("ainfsign")._width,
    "argparse_width": argparse.HelpFormatter("ainfsign")._width,
    "differ": [argv for argv in argvs
               if printed(cli.main, argv) != printed(reference.parse_args, argv)],
}), file=sys.stderr)
"""


def help_as_argparse_prints_it(columns, stdout) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("COLUMNS", None)
    if columns is not None:
        env["COLUMNS"] = columns
    proc = subprocess.run([sys.executable, "-S", "-c", HELP_AS_ARGPARSE_PRINTS_IT],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                          timeout=60, check=True)
    return json.loads(proc.stderr)


@pytest.mark.parametrize("columns, width", [
    (None, 78), ("0", 78), ("50", 48), ("120", 118), ("abc", 78), ("-3", 78),
])
def test_help_is_sized_as_argparse_sizes_it(columns, width):
    """Help and version bytes are argparse's at every ``COLUMNS``, on an
    output that is not a terminal."""
    assert help_as_argparse_prints_it(columns, subprocess.DEVNULL) == {
        "width": width, "argparse_width": width, "differ": []}


@pytest.mark.skipif(not hasattr(os, "openpty"), reason="no pseudo-terminals here")
@pytest.mark.parametrize("columns, width", [
    (100, 98), (0, 78 if sys.version_info >= (3, 11) else -2),
])
def test_help_on_a_terminal_is_sized_as_argparse_sizes_it(columns, width):
    """With ``COLUMNS`` unset, the terminal's width, and argparse's
    fallback on a terminal that reports none."""
    import fcntl
    import struct
    import termios

    primary, secondary = os.openpty()
    try:
        fcntl.ioctl(secondary, termios.TIOCSWINSZ, struct.pack("HHHH", 24, columns, 0, 0))
        result = help_as_argparse_prints_it(None, secondary)
    finally:
        os.close(primary)
        os.close(secondary)
    assert result == {"width": width, "argparse_width": width, "differ": []}


def test_check_ainfty_cutoff_up_to_the_structure_cutoff_accepted(tmp_path, capsys):
    path = materialized_ext2(tmp_path)
    out = tmp_path / "report.json"
    code, _, _ = run(["check-ainfty", "--file", str(path), "--k-max", "2", "--cutoff", "1",
                      "--out", str(out)], capsys)
    assert code == 0 and json.loads(out.read_text())["parameters"]["cutoff"] == "1"


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
    "enumerate-strata": (["--k", "--energy", "--spectrum", "--tag", "--dim-out",
                          "--mu-out", "--mus", "--node-dim", "--node-mu", "--match"], []),
    "prove-signs": (["--k-max", "--truth-table-k-max", "--relations-k-max",
                     "--relations-spectrum", "--relations-cutoff"], []),
    "check-dga": (["--preset", "--k-max", "--cutoff"], []),
    "deform-check": (["--preset", "--b", "--lam-min", "--k-max",
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
            code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:  # one line that says what is wrong, and no usage block
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())


def parsed(parser, argv):
    """(namespace, exit code or error message, stdout) of one parse."""
    out, args, code = io.StringIO(), None, None
    with contextlib.redirect_stdout(out):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help and --version print and exit
            code = exc.code
        except cli.UsageError as exc:
            code = str(exc)
    return args, code, out.getvalue()


README_ARGV = [argv for argv, _ in README_REPORTS.values()] + [
    ["check-ainfty", "--file", "structure.json", "--k-max", "3"],
    ["enumerate-strata", "--k", "3", "--energy", "1", "--spectrum", "0,1/2,1", "--match"],
    ["nov-eval", "(1+T^(1/2))*(1-T^(1/2))"],
    ["anf", "--expr", "Sum(p=1..j-1, mu_p)", "--bind", "j=3"],
]


def test_readme_argv_cover_every_command():
    assert {argv[0] for argv in README_ARGV} == {name for name, *_ in cli.COMMANDS}


@pytest.mark.parametrize("argv", README_ARGV + [[name, "--help"] for name, *_ in cli.COMMANDS],
                         ids=lambda argv: " ".join(argv[:2]))
def test_one_command_parser_equals_the_full_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    alone = parsed(cli.build_parser(argv[0]), argv)
    assert alone == parsed(cli.build_parser(), argv)
    namespace, code, out = alone
    assert namespace is not None or code == 0 and out.startswith(f"usage: ainfsign {argv[0]}")


@settings(max_examples=150, deadline=None)
@given(argv=drawn_argv())
def test_one_command_parser_parses_any_drawn_argv_alike(argv):
    assert parsed(cli.build_parser(argv[0]), argv) == parsed(cli.build_parser(), argv), argv


# The top-level outputs, as the full parser has always given them (at 80
# columns); main builds that parser whenever argv does not start with a
# command name.
CHOICES = ("'prove-signs', 'verify-geomodel', 'check-dga', 'check-ainfty', 'deform-check', "
           "'enumerate-strata', 'nov-eval', 'anf'")
TOP_LEVEL_HELP = """\
usage: ainfsign [-h] [--version]
                {prove-signs,verify-geomodel,check-dga,check-ainfty,deform-check,enumerate-strata,nov-eval,anf}
                ...

exact verification toolkit for filtered A-infinity sign conventions

positional arguments:
  {prove-signs,verify-geomodel,check-dga,check-ainfty,deform-check,enumerate-strata,nov-eval,anf}
    prove-signs         prove the sign identities symbolically
    verify-geomodel     randomized exact push-pull calculus checks
    check-dga           relations of a built-in algebra embedding
    check-ainfty        relations of a structure file
    deform-check        bounding-cochain deformations keep the relations
    enumerate-strata    codimension-1 boundary strata with signs
    nov-eval            evaluate a Novikov ring expression
    anf                 normalize a sign expression over GF(2)

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""
TOP_LEVEL = [
    (["--help"], 0, TOP_LEVEL_HELP, ""),
    (["--version"], 0, f"ainfsign {cli.__version__}\n", ""),
    ([], 2, "", "error: the following arguments are required: command\n"),
    (["bogus"], 2, "",
     f"error: argument command: invalid choice: 'bogus' (choose from {CHOICES})\n"),
    (["--seed", "1", "check-dga"], 2, "",
     f"error: argument command: invalid choice: '1' (choose from {CHOICES})\n"),
]


@pytest.mark.parametrize("argv, code, out, err", TOP_LEVEL, ids=lambda v: str(v))
def test_top_level_outputs_are_unchanged(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["ainfsign", "nov-eval", "1/2*T"])
    assert run(None, capsys) == (0, "1/2*T\n", "")


@pytest.mark.parametrize("argv, subparsers", [
    (["check-dga", "--k-max", "1", "--out", os.devnull], 1),
    (["nov-eval", "T"], 1),
    (["--help"], 8),
    (["bogus"], 8),
])
def test_main_builds_only_the_invoked_subparser(argv, subparsers, capsys, monkeypatch):
    calls = []
    original = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        calls.append(name)
        return original(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    for _ in range(2):  # a second run builds its parser again
        calls.clear()
        try:
            main(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        assert len(calls) == subparsers
