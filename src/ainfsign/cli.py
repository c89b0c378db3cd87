"""Command-line entry point orchestrating the verification suites.

Human-readable summaries go to standard output; machine-readable JSON
reports (schema ``schemas/report.schema.json``) go to ``--out`` or, when it
is set, the directory named by the ``AINFSIGN_REPORT_DIR`` environment
variable.  Exit codes: 0 all checks pass, 1 a verification failed (the
report carries a witness), 2 usage or input errors.  Identical inputs and
seed produce byte-identical reports; per-check timings are recorded only
under ``--timing`` so they never break reproducibility.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, f2poly, novikov, prover, structio
from .ainfty import (
    Element,
    check_product_sign_convention,
    cube_torus_dga,
    deform,
    exterior_dga,
    from_dga,
    validate_degree_parity,
)
from .geomodel import run_all_checks, space, verify_pushpull
from .novikov import NovikovElement, spectrum_closure
from .strata import (
    BClass,
    ComponentData,
    ModuliDescriptor,
    codim1_parity_consistent,
    enumerate_strata,
    match_composition_terms,
)


class UsageError(Exception):
    pass


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc


def _parse_positive(flag: str, text: str) -> Fraction:
    value = _parse_fraction(text)
    if value <= 0:
        raise UsageError(f"{flag} must be > 0")
    return value


def _parse_spectrum(text: str, cutoff: Fraction):
    levels = [_parse_fraction(part) for part in text.split(",") if part.strip() != ""]
    generators = [e for e in levels if e > 0]
    spectrum = spectrum_closure(generators, cutoff)
    for e in levels:
        if e not in spectrum:
            raise UsageError(f"energy {e} is not reachable below cutoff {cutoff}")
    return spectrum


def _require_at_least(*bounds: tuple[str, int, int]) -> None:
    """Reject a count below the least value at which the command checks
    something, naming its flag."""
    for flag, value, least in bounds:
        if value < least:
            raise UsageError(f"{flag} must be >= {least}")


class Report:
    def __init__(self, command: str, parameters: dict, timing: bool):
        self.command = command
        self.parameters = parameters
        self.timing = timing
        self.checks: list[dict] = []

    def add(self, check_id: str, passed: bool, runtime_s: float, **extra):
        record: dict = {"id": check_id, "status": "pass" if passed else "fail"}
        record.update(extra)
        if self.timing:
            record["runtime_s"] = runtime_s
        self.checks.append(record)

    @property
    def overall(self) -> str:
        return "pass" if all(c["status"] == "pass" for c in self.checks) else "fail"

    def to_json(self) -> dict:
        return {
            "tool": "ainfsign",
            "version": __version__,
            "command": self.command,
            "parameters": self.parameters,
            "checks": self.checks,
            "overall": self.overall,
        }

    def finish(self, out: str | None) -> int:
        payload = json.dumps(self.to_json(), indent=2, default=str) + "\n"
        target = out
        if target is None and os.environ.get("AINFSIGN_REPORT_DIR"):
            directory = Path(os.environ["AINFSIGN_REPORT_DIR"])
            directory.mkdir(parents=True, exist_ok=True)
            target = str(directory / f"{self.command}.json")
        if target and target != "-":
            Path(target).write_text(payload)
        failed = [c for c in self.checks if c["status"] == "fail"]
        lines = [
            f"{'ok  ' if c['status'] == 'pass' else 'FAIL'} {c['id']}\n" for c in self.checks
        ]
        lines.append(
            f"{self.command}: {len(self.checks) - len(failed)}/{len(self.checks)} checks passed\n"
        )
        if target == "-":
            lines.append(payload)
        elif target:
            lines.append(f"report written to {target}\n")
        _emit("".join(lines))
        return 0 if self.overall == "pass" else 1


def _emit(text: str) -> None:
    """Write text to stdout.  If the reader closed it early (say, `| head -1`),
    whatever was computed or written to a file still stands: point stdout at
    devnull so that the flush at exit cannot fail again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# --- subcommands ----------------------------------------------------------------


def cmd_prove_signs(args) -> int:
    _require_at_least(("--k-max", args.k_max, 1), ("--relations-k-max", args.relations_k_max, 0))
    if not 0 <= args.truth_table_k_max <= prover.TRUTH_TABLE_K_MAX:
        raise UsageError(f"--truth-table-k-max must be in 0..{prover.TRUTH_TABLE_K_MAX}")
    report = Report(
        "prove-signs",
        {
            "k_max": args.k_max,
            "truth_table_k_max": args.truth_table_k_max,
            "relations_k_max": args.relations_k_max,
            "relations_spectrum": args.relations_spectrum,
            "seed": args.seed,
            "assumptions": [
                "boundary-sign formula applied verbatim to inner arity 0 "
                "(empty sums over the inner block)"
            ],
        },
        args.timing,
    )
    for rep in prover.prove_all(args.k_max, args.truth_table_k_max):
        inst = rep.instance
        check_id = ":".join(f"{key}={inst[key]}" for key in sorted(inst))
        report.add(check_id, rep.proved, rep.elapsed_s, witness=rep.witness)
    if args.relations_k_max:
        cutoff = _parse_positive("--relations-cutoff", args.relations_cutoff)
        spectrum = _parse_spectrum(args.relations_spectrum, cutoff)
        for k in range(1, args.relations_k_max + 1):
            for crep in prover.prove_relation_cancellation(k, spectrum):
                report.add(
                    f"relation-cancellation:k={k}:energy={crep.energy}",
                    crep.cancels,
                    crep.elapsed_s,
                    detail={"pairs": len(crep.pairs), "residual": crep.residual},
                )
    return report.finish(args.out)


def cmd_verify_geomodel(args) -> int:
    # --pushpull-trials 0 skips the mock suite; every other count must let
    # the checkers draw at least one instance.
    _require_at_least(("--trials", args.trials, 1),
                      ("--pushpull-trials", args.pushpull_trials, 0),
                      ("--max-coords", args.max_coords, 1),
                      ("--max-poly-deg", args.max_poly_deg, 0))
    report = Report(
        "verify-geomodel",
        {
            "trials": args.trials,
            "seed": args.seed,
            "max_coords": args.max_coords,
            "max_poly_deg": args.max_poly_deg,
            "pushpull_trials": args.pushpull_trials,
        },
        args.timing,
    )
    for result in run_all_checks(args.trials, args.seed, args.max_coords, args.max_poly_deg):
        report.add(
            result.name, result.passed, result.elapsed_s,
            witness=result.failures[0] if result.failures else None,
            detail=result.stats,
        )
    if args.pushpull_trials:
        started = time.perf_counter()
        result = verify_pushpull(args.pushpull_trials, args.seed)
        report.add(
            result.name, result.passed, time.perf_counter() - started,
            witness=result.failures[0] if result.failures else None,
            detail=result.stats,
        )
    return report.finish(args.out)


def _preset_structure(preset: str, cutoff: Fraction):
    if preset == "exterior4":
        return exterior_dga(4), from_dga(exterior_dga(4), cutoff)
    if preset == "exterior3-d":
        dga = exterior_dga(
            3,
            differential={"e1": {"e2^e3": 1}, "e2": {"e1^e3": -1}, "e3": {"e1^e2": 1}},
        )
        return dga, from_dga(dga, cutoff)
    if preset == "interval-circle":
        dga = cube_torus_dga(space(("t", "interval"), ("c", "circle")))
        return dga, from_dga(dga, cutoff)
    if preset == "interval2":
        dga = cube_torus_dga(space(("u", "interval"), ("v", "interval")))
        return dga, from_dga(dga, cutoff)
    raise UsageError(f"unknown preset {preset!r}")


def cmd_check_dga(args) -> int:
    _require_at_least(("--k-max", args.k_max, 0))
    cutoff = _parse_positive("--cutoff", args.cutoff)
    dga, A = _preset_structure(args.preset, cutoff)
    report = Report(
        "check-dga",
        {"preset": args.preset, "k_max": args.k_max, "cutoff": str(cutoff), "seed": args.seed},
        args.timing,
    )
    started = time.perf_counter()
    rel = A.check_relations(args.k_max, seed=args.seed)
    report.add("relations", rel.passed, time.perf_counter() - started, witness=rel.witness,
               detail={"tuples_checked": rel.checked})
    started = time.perf_counter()
    violations = check_product_sign_convention(A, dga)
    report.add("product-sign-convention", not violations, time.perf_counter() - started,
               witness=violations[0] if violations else None)
    return report.finish(args.out)


def cmd_check_ainfty(args) -> int:
    _require_at_least(("--k-max", args.k_max, 0))
    try:
        A = structio.load_structure(args.file)
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"--file {args.file}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.file}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except structio.FormatError as exc:
        raise UsageError(f"{args.file}: {exc}") from exc
    report = Report(
        "check-ainfty",
        {"file": str(args.file), "k_max": args.k_max,
         "cutoff": args.cutoff or str(A.cutoff), "seed": args.seed},
        args.timing,
    )
    cutoff = _parse_positive("--cutoff", args.cutoff) if args.cutoff else None
    started = time.perf_counter()
    violations = validate_degree_parity(A)
    report.add("degree-parity", not violations, time.perf_counter() - started,
               witness=violations[0] if violations else None)
    started = time.perf_counter()
    rel = A.check_relations(args.k_max, cutoff=cutoff, seed=args.seed)
    report.add("relations", rel.passed, time.perf_counter() - started, witness=rel.witness,
               detail={"tuples_checked": rel.checked})
    return report.finish(args.out)


def _random_even_element(A, dga, rng, lam_min: Fraction) -> Element:
    """A random deformation candidate: odd-degree generators (even shifted
    degree on a parity-0 component) with coefficients of valuation lam_min."""
    space_name = dga.space_name
    hom = A.spaces[space_name]
    odd_gens = [g for g, d in hom.basis if d % 2 == 1]
    chosen = rng.sample(odd_gens, k=min(len(odd_gens), rng.randrange(1, 3)))
    coeffs = {}
    for g in chosen:
        q = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
        coeffs[g] = NovikovElement.monomial(q, lam_min * rng.choice([1, 1, 2]))
    return Element(space_name, coeffs)


def cmd_deform_check(args) -> int:
    _require_at_least(("--k-max", args.k_max, 0), ("--random", args.random, 0),
                      ("--exhaustive-threshold", args.exhaustive_threshold, 0),
                      ("--sample-size", args.sample_size, 1))
    lam_min = _parse_positive("--lam-min", args.lam_min)
    cutoff = 4 * lam_min
    dga, A = _preset_structure(args.preset, cutoff)
    report = Report(
        "deform-check",
        {"preset": args.preset, "lam_min": str(lam_min), "b": args.b,
         "random": args.random, "k_max": args.k_max, "seed": args.seed},
        args.timing,
    )
    candidates: list[tuple[str, Element]] = []
    if args.b:
        spec_dict = json.loads(args.b)
        if not isinstance(spec_dict, dict):
            raise UsageError("--b must be a JSON object mapping generators to coefficients")
        for g, c in spec_dict.items():
            if not dga.has_generator(g):
                raise UsageError(f"--b: unknown generator {g!r} of space {dga.space_name!r}")
            if not isinstance(c, str):
                raise UsageError(f"--b: coefficient of {g!r} must be a string, got {c!r}")
        coeffs = {g: novikov.parse(c) for g, c in spec_dict.items()}
        candidates.append(("explicit", Element(dga.space_name, coeffs)))
    rng = random.Random(args.seed)
    for i in range(args.random):
        candidates.append((f"random-{i}", _random_even_element(A, dga, rng, lam_min)))
    if not candidates:
        raise UsageError("provide --b and/or --random N")
    curved = 0
    for label, b in candidates:
        started = time.perf_counter()
        D = deform(A, b, lam_min)
        rel = D.check_relations(args.k_max, seed=args.seed,
                                exhaustive_threshold=args.exhaustive_threshold,
                                sample_size=args.sample_size)
        curvature = D.curvature()
        curved += not curvature.is_zero()
        report.add(
            f"deform:{label}", rel.passed, time.perf_counter() - started, witness=rel.witness,
            detail={"b": str(b), "curvature": str(curvature),
                    "tuples_checked": rel.checked},
        )
    started = time.perf_counter()
    report.add("curved-instance-present", curved > 0, time.perf_counter() - started,
               detail={"curved": curved, "total": len(candidates)})
    return report.finish(args.out)


def cmd_enumerate_strata(args) -> int:
    _require_at_least(("--k", args.k, 1), ("--dim-out", args.dim_out, 0),
                      ("--node-dim", args.node_dim, 0))
    cutoff = _parse_positive("--cutoff", args.cutoff) if args.cutoff else None
    energy = _parse_fraction(args.energy)
    if energy < 0:
        raise UsageError("--energy must be >= 0")
    if cutoff is None:
        cutoff = max(energy, Fraction(1)) + 1
    spectrum = _parse_spectrum(args.spectrum, cutoff)
    node = ComponentData("node", args.node_dim, args.node_mu)
    out_comp = ComponentData("out", args.dim_out, args.mu_out)
    mus = [int(m) for m in args.mus.split(",")] if args.mus else [0] * args.k
    if len(mus) != args.k:
        raise UsageError(f"--mus needs {args.k} entries")
    if not set(mus) <= {0, 1}:
        raise UsageError("--mus entries must be 0 or 1")
    inputs = tuple(
        ComponentData(f"in{i}", 0, mu) for i, mu in enumerate(mus, start=1)
    )
    parent = ModuliDescriptor(args.k, BClass(energy, args.tag), out_comp, inputs)
    try:
        strata = enumerate_strata(parent, spectrum, [node])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "parent": parent.to_json(),
        "strata": [s.to_json() for s in strata],
    }
    if args.match:
        match = match_composition_terms(parent, spectrum, [node])
        payload["matching"] = {
            "perfect": match.perfect,
            "matched": len(match.matched),
            "unmatched_strata": [list(map(str, t)) for t in match.unmatched_strata],
            "unmatched_terms": [list(map(str, t)) for t in match.unmatched_terms],
        }
        payload["parity_consistent"] = all(codim1_parity_consistent(s) for s in strata)
    _emit(json.dumps(payload, indent=2, default=str) + "\n")
    if args.match and not payload["matching"]["perfect"]:
        return 1
    return 0


def cmd_nov_eval(args) -> int:
    try:
        value = novikov.parse(args.expr)
    except novikov.NovikovParseError as exc:
        raise UsageError(str(exc)) from exc
    _emit(f"{value}\n")
    return 0


def cmd_anf(args) -> int:
    if args.expr and args.file:
        raise UsageError("give --expr or --file, not both")
    text = args.expr
    if args.file:
        try:
            text = Path(args.file).read_text().strip()
        except OSError as exc:
            raise UsageError(str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise UsageError(f"--file {args.file}: not UTF-8 text: {exc}") from exc
    if not text:
        raise UsageError("provide --expr or --file")
    bindings = {}
    for item in args.bind or []:
        name, _, value = item.partition("=")
        if not value.lstrip("-").isdigit():
            raise UsageError(f"--bind expects name=integer, got {item!r}")
        bindings[name] = int(value)
    try:
        expr = f2poly.parse_sign_expr(text)
        poly = f2poly.to_anf(expr, bindings, symbolic=True)
    except f2poly.SignExprError as exc:
        raise UsageError(str(exc)) from exc
    _emit(f"{poly}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ainfsign",
        description="exact verification toolkit for filtered A-infinity sign conventions",
    )
    parser.add_argument("--version", action="version", version=f"ainfsign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
        p.add_argument("--out", help="report file ('-' for stdout)")
        p.add_argument("--timing", action="store_true", help="record per-check runtimes")

    p = sub.add_parser("prove-signs", help="prove the sign identities symbolically")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--truth-table-k-max", type=int, default=0)
    p.add_argument("--relations-k-max", type=int, default=0,
                   help="also replay the relation cancellation up to this arity")
    p.add_argument("--relations-spectrum", default="0,1")
    p.add_argument("--relations-cutoff", default="4")
    common(p)
    p.set_defaults(func=cmd_prove_signs)

    p = sub.add_parser("verify-geomodel", help="randomized exact push-pull calculus checks")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--max-coords", type=int, default=4)
    p.add_argument("--max-poly-deg", type=int, default=3)
    p.add_argument("--pushpull-trials", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_verify_geomodel)

    p = sub.add_parser("check-dga", help="relations of a built-in algebra embedding")
    p.add_argument("--preset", default="exterior4",
                   choices=["exterior4", "exterior3-d", "interval-circle", "interval2"])
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--cutoff", default="1")
    common(p)
    p.set_defaults(func=cmd_check_dga)

    p = sub.add_parser("check-ainfty", help="relations of a structure file")
    p.add_argument("--file", required=True)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--cutoff", default=None)
    common(p)
    p.set_defaults(func=cmd_check_ainfty)

    p = sub.add_parser("deform-check", help="bounding-cochain deformations keep the relations")
    p.add_argument("--preset", default="interval2",
                   choices=["exterior4", "exterior3-d", "interval-circle", "interval2"])
    p.add_argument("--b", help='explicit element as JSON {"gen": "novikov expr", ...}')
    p.add_argument("--random", type=int, default=0, help="number of random admissible elements")
    p.add_argument("--lam-min", default="1")
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--exhaustive-threshold", type=int, default=500)
    p.add_argument("--sample-size", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_deform_check)

    p = sub.add_parser("enumerate-strata", help="codimension-1 boundary strata with signs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--energy", required=True)
    p.add_argument("--spectrum", required=True, help="comma-separated energies, e.g. 0,1/2,1")
    p.add_argument("--cutoff", default=None)
    p.add_argument("--tag", default="B")
    p.add_argument("--dim-out", type=int, default=0)
    p.add_argument("--mu-out", type=int, default=0, choices=[0, 1])
    p.add_argument("--mus", default=None, help="comma-separated input parities")
    p.add_argument("--node-dim", type=int, default=0)
    p.add_argument("--node-mu", type=int, default=0, choices=[0, 1])
    p.add_argument("--match", action="store_true",
                   help="also match strata against composition terms")
    p.set_defaults(func=cmd_enumerate_strata)

    p = sub.add_parser("nov-eval", help="evaluate a Novikov ring expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_nov_eval)

    p = sub.add_parser("anf", help="normalize a sign expression over GF(2)")
    p.add_argument("--expr")
    p.add_argument("--file")
    p.add_argument("--bind", action="append", help="name=integer binding, repeatable")
    p.set_defaults(func=cmd_anf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
