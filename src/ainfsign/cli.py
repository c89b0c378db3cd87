"""Command-line entry point orchestrating the verification suites.

Human-readable summaries go to standard output; machine-readable JSON
reports (schema ``schemas/report.schema.json``) go to ``--out`` or, when it
is set, the directory named by the ``AINFSIGN_REPORT_DIR`` environment
variable.  Exit codes: 0 all checks pass, 1 a verification failed (the
report carries a witness), 2 usage or input errors.  Identical inputs and
seed produce byte-identical reports; per-check timings are recorded only
under ``--timing`` so they never break reproducibility.

Every subcommand is one row of ``COMMANDS``: its name, help, the function
adding its flags and its handler.  ``main`` builds the parser of the
invoked subcommand alone, and the full parser only when the first
argument names no subcommand, so a command pays for its own flags only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__, f2poly, novikov, prover, structio
from .ainfty import (
    Element,
    FilteredAInfty,
    RelationReport,
    StructureError,
    check_product_sign_convention,
    cube_torus_dga,
    deform,
    exterior_dga,
    from_dga,
    validate_degree_parity,
)
from .geomodel import run_all_checks, space
from .novikov import NovikovElement, spectrum_closure
from .strata import (
    BClass,
    ComponentData,
    ModuliDescriptor,
    codim1_parity_consistent,
    composition_terms,
    enumerate_strata,
    match_composition_terms,
)


class UsageError(Exception):
    pass


# The message for input whose nesting exceeds the recursive readers' depth:
# the JSON decoder and the element and sign-expression parsers.
TOO_DEEP = "nested too deeply to read"


def _help_formatter(prog: str) -> argparse.HelpFormatter:
    """argparse's formatter at its own width, ``shutil.get_terminal_size()``
    columns less 2, found without importing ``shutil`` (and with it ``bz2``,
    ``lzma`` and ``zlib``): ``COLUMNS`` if a positive integer, else stdout's
    terminal width, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 80
        if sys.version_info >= (3, 11):  # before 3.11 a zero-width terminal stays 0
            columns = columns or 80
    return argparse.HelpFormatter(prog, width=columns - 2)


class _Parser(argparse.ArgumentParser):
    """Rejections raise :class:`UsageError`, which ``main`` reports.  Help
    text comes from :func:`_help_formatter`; subparsers share this class."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_help_formatter, **kwargs)

    def error(self, message):
        raise UsageError(message)


# --- argparse types: each checks one flag's value on its own -------------------


def _checked(parse, ok, requirement: str):
    """The value that ``parse`` reads from a flag's text, rejected with
    ``requirement`` unless ``ok``."""
    def convert(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(requirement)
        return value
    convert.__name__ = parse.__name__  # argparse says "invalid int value: 'x'"
    return convert


def _count(least: int):
    """A count of at least ``least``; below it the command checks nothing."""
    return _checked(int, lambda n: n >= least, f"must be >= {least}")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from exc


_positive = _checked(_rational, lambda q: q > 0, "must be > 0")
_nonnegative = _checked(_rational, lambda q: q >= 0, "must be >= 0")


def _rationals(text: str) -> list[Fraction]:
    """Comma-separated rationals, each >= 0; empty entries are skipped."""
    return [_nonnegative(part) for part in text.split(",") if part.strip()]


def _parities(text: str) -> list[int]:
    """Comma-separated entries, each 0 or 1."""
    if not set(text.replace(" ", "").split(",")) <= {"0", "1"}:
        raise argparse.ArgumentTypeError(f"entries must be 0 or 1, got {text!r}")
    return [int(e) for e in text.split(",")]


def _binding(text: str) -> tuple[str, int]:
    """``name=integer``, the name read as one token by the sign DSL's tokenizer."""
    name, _, value = text.partition("=")
    try:
        if f2poly._Tokens(name).peek()[:2] != ("name", name):
            raise ValueError(name)  # a binding of no name binds nothing
        return name, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected name=integer, got {text!r}") from None


def _spectrum(flag: str, levels: list[Fraction], cutoff: Fraction):
    """The spectrum that the positive ``levels`` generate below ``cutoff``;
    it must reach every level."""
    spectrum = spectrum_closure([e for e in levels if e > 0], cutoff)
    for e in levels:
        if e not in spectrum:
            raise UsageError(f"{flag}: energy {e} is not reachable below cutoff {cutoff}")
    return spectrum


class Report:
    def __init__(self, command: str, parameters: dict, timing: bool):
        self.command = command
        self.parameters = parameters
        self.timing = timing
        self.checks: list[dict] = []
        self._done_s = time.perf_counter()

    def add(self, check_id: str, passed: bool, done_s: float | None = None, **extra):
        """Add a check decided at the ``time.perf_counter()`` reading
        ``done_s``, by default now; its ``runtime_s`` runs from the previous
        check's ``done_s``, or from this report's start."""
        if done_s is None:
            done_s = time.perf_counter()
        record: dict = {"id": check_id, "status": "pass" if passed else "fail"}
        record.update(extra)
        if self.timing:
            record["runtime_s"] = done_s - self._done_s
        self._done_s = done_s
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
        try:
            if target is None and os.environ.get("AINFSIGN_REPORT_DIR"):
                directory = os.environ["AINFSIGN_REPORT_DIR"]
                os.makedirs(directory, exist_ok=True)
                target = os.path.join(directory, f"{self.command}.json")
            if target and target != "-":
                with open(target, "w") as fh:
                    fh.write(payload)
        except OSError as exc:
            source = "--out" if out is not None else "AINFSIGN_REPORT_DIR"
            raise UsageError(f"{source}: cannot write the report: {exc}") from exc
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
    if args.relations_k_max > args.k_max:
        # each replayed arity's master identity is proved in the same report
        raise UsageError(f"--relations-k-max must be <= --k-max ({args.k_max})")
    report = Report(
        "prove-signs",
        {
            "k_max": args.k_max,
            "truth_table_k_max": args.truth_table_k_max,
            "relations_k_max": args.relations_k_max,
            "relations_spectrum": ",".join(map(str, args.relations_spectrum)),
            "relations_cutoff": str(args.relations_cutoff),
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
        report.add(check_id, rep.proved, rep._done_s, witness=rep.witness)
    if args.relations_k_max:
        spectrum = _spectrum("--relations-spectrum", args.relations_spectrum, args.relations_cutoff)
        for k in range(1, args.relations_k_max + 1):
            for crep in prover.prove_relation_cancellation(k, spectrum):
                report.add(
                    f"relation-cancellation:k={k}:energy={crep.energy}",
                    crep.cancels,
                    crep._done_s,
                    detail={"pairs": len(crep.pairs), "residual": crep.residual},
                )
    return report.finish(args.out)


def cmd_verify_geomodel(args) -> int:
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
    for result in run_all_checks(args.trials, args.seed, args.max_coords, args.max_poly_deg,
                                 args.pushpull_trials):
        report.add(result.name, result.passed, result._done_s, witness=result.witness,
                   detail=result.stats)
    return report.finish(args.out)


# The built-in algebras of --preset, by name; check-dga defaults to the
# first and deform-check to the last.
PRESETS = {
    "exterior4": lambda: exterior_dga(4),
    "exterior3-d": lambda: exterior_dga(
        3, differential={"e1": {"e2^e3": 1}, "e2": {"e1^e3": -1}, "e3": {"e1^e2": 1}}
    ),
    "interval-circle": lambda: cube_torus_dga(space(("t", "interval"), ("c", "circle"))),
    "interval2": lambda: cube_torus_dga(space(("u", "interval"), ("v", "interval"))),
}


def _preset_structure(preset: str, cutoff: Fraction):
    dga = PRESETS[preset]()
    return dga, from_dga(dga, cutoff)


def _add_relations(report: Report, check_id: str, rel: RelationReport, **detail) -> None:
    """Add the relation sweep ``rel`` as one check, decided now; ``detail``
    leads the check's detail, before the sweep's counts."""
    report.add(check_id, rel.passed, witness=rel.witness,
               detail={**detail, "tuples_checked": rel.checked,
                       "sampled_arities": rel.sampled_arities})


def cmd_check_dga(args) -> int:
    dga, A = _preset_structure(args.preset, args.cutoff)
    report = Report(
        "check-dga",
        {"preset": args.preset, "k_max": args.k_max, "cutoff": str(args.cutoff),
         "seed": args.seed},
        args.timing,
    )
    _add_relations(report, "relations", A.check_relations(args.k_max, seed=args.seed))
    violations = check_product_sign_convention(A, dga)
    report.add("product-sign-convention", not violations,
               witness=violations[0] if violations else None,
               detail={"pairs_checked": len(A.spaces[dga.space_name].basis) ** 2})
    return report.finish(args.out)


def cmd_check_ainfty(args) -> int:
    try:
        A = structio.load_structure(args.file)
    except ValueError as exc:  # not UTF-8 text, not JSON, or not a structure
        raise UsageError(f"{args.file}: {exc}") from exc
    except RecursionError as exc:
        raise UsageError(f"{args.file}: {TOO_DEEP}") from exc
    cutoff = A.cutoff if args.cutoff is None else args.cutoff
    if cutoff > A.cutoff:
        # apply_operation truncates at the structure's cutoff, so relations
        # above it would be checked against truncated operations.
        raise UsageError(f"--cutoff {cutoff} exceeds the structure's cutoff {A.cutoff}")
    A = FilteredAInfty(A.spaces, A.table, A.spectrum, cutoff)  # checked modulo T^cutoff
    report = Report(
        "check-ainfty",
        {"file": str(args.file), "k_max": args.k_max, "cutoff": str(A.cutoff),
         "seed": args.seed},
        args.timing,
    )
    violations = validate_degree_parity(A)
    stored = sum(not v.is_zero() for entry in A.table.values.values() for v in entry.values())
    report.add("degree-parity", not violations,
               witness=violations[0] if violations else None,
               detail={"values_checked": stored})
    try:
        rel = A.check_relations(args.k_max, seed=args.seed)
    except StructureError as exc:  # say, relation terms in different hom spaces
        raise UsageError(f"{args.file}: {exc}") from exc
    _add_relations(report, "relations", rel)
    return report.finish(args.out)


def cmd_deform_check(args) -> int:
    dga, A = _preset_structure(args.preset, 4 * args.lam_min)
    report = Report(
        "deform-check",
        {"preset": args.preset, "lam_min": str(args.lam_min), "b": args.b,
         "k_max": args.k_max, "exhaustive_threshold": args.exhaustive_threshold,
         "sample_size": args.sample_size, "seed": args.seed},
        args.timing,
    )
    if args.b is not None:
        try:
            b = structio.element_from_json(A.spaces[dga.space_name], json.loads(args.b), "--b")
        except json.JSONDecodeError as exc:
            raise UsageError(f"--b: not JSON: {exc}") from exc
        except structio.FormatError as exc:
            raise UsageError(str(exc)) from exc
        except RecursionError as exc:
            raise UsageError(f"--b: {TOO_DEEP}") from exc
        if b.is_zero():
            raise UsageError("--b: the deforming element is zero, so nothing is deformed")
        candidates = [("explicit", b)]
    else:
        # T^lam_min * g for each odd-degree generator g: even shifted degree
        # on the parity-0 component, valuation lam_min
        unit = NovikovElement.monomial(1, args.lam_min)
        candidates = [(g, Element(dga.space_name, {g: unit}))
                      for g, d in A.spaces[dga.space_name].basis if d % 2 == 1]
    curved = 0
    for label, b in candidates:
        try:
            D = deform(A, b, args.lam_min)
        except StructureError as exc:  # only --b can be odd or of valuation below lam_min
            raise UsageError(f"--b: {exc}") from exc
        rel = D.check_relations(args.k_max, seed=args.seed,
                                exhaustive_threshold=args.exhaustive_threshold,
                                sample_size=args.sample_size)
        curvature = D.curvature()
        curved += not curvature.is_zero()
        _add_relations(report, f"deform:{label}", rel, b=str(b), curvature=str(curvature))
    report.add("curved-instance-present", curved > 0,
               detail={"curved": curved, "total": len(candidates)})
    return report.finish(args.out)


def cmd_enumerate_strata(args) -> int:
    # any cutoff above the energy gives the same strata
    spectrum = _spectrum("--spectrum", args.spectrum, max(args.energy, Fraction(1)) + 1)
    node = ComponentData("node", args.node_dim, args.node_mu)
    out_comp = ComponentData("out", args.dim_out, args.mu_out)
    mus = args.mus or [0] * args.k
    if len(mus) != args.k:
        raise UsageError(f"--mus needs {args.k} entries")
    inputs = tuple(ComponentData(f"in{i}", 0, mu) for i, mu in enumerate(mus, start=1))
    parent = ModuliDescriptor(BClass(args.energy, args.tag), out_comp, inputs)
    try:
        strata = enumerate_strata(parent, spectrum, [node])
    except ValueError as exc:  # the parent energy is outside the spectrum closure
        raise UsageError(f"--energy: {exc}") from exc
    payload = {
        "parent": parent.to_json(),
        "strata": [s.to_json() for s in strata],
    }
    if args.match:
        match = match_composition_terms(strata, composition_terms(parent, spectrum, [node]))
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
        raise UsageError(f"{args.expr!r}: {exc}") from exc
    except RecursionError as exc:
        raise UsageError(f"{args.expr!r}: {TOO_DEEP}") from exc
    _emit(f"{value}\n")
    return 0


def cmd_anf(args) -> int:
    bindings: dict[str, int] = {}
    for name, value in args.bind or []:
        if name in bindings:
            raise UsageError(f"--bind: repeated name {name!r}")
        bindings[name] = value
    try:
        if args.file is None:
            text = args.expr
        else:
            with open(args.file) as fh:
                text = fh.read().strip()
        poly = f2poly.to_anf(f2poly.parse_sign_expr(text), bindings)
    except ValueError as exc:  # not UTF-8 text, or not a sign expression
        raise UsageError(f"{args.file or '--expr'}: {exc}") from exc
    except RecursionError as exc:
        raise UsageError(f"{args.file or '--expr'}: {TOO_DEEP}") from exc
    _emit(f"{poly}\n")
    return 0


SAMPLE_SEED_HELP = ("picks the relation words sampled at each arity with more basis words "
                    "than the exhaustive threshold")


def _common(p, seed_help="seed recorded in the report"):
    p.add_argument("--seed", type=int, default=0, help=seed_help)
    p.add_argument("--out", type=_checked(str, bool, "must not be empty"),
                   help="report file ('-' for stdout)")
    p.add_argument("--timing", action="store_true", help="record per-check runtimes")


def _prove_signs_flags(p):
    p.add_argument("--k-max", type=_count(1), required=True)
    most = prover.TRUTH_TABLE_K_MAX
    p.add_argument("--truth-table-k-max", default=0,
                   type=_checked(int, range(most + 1).__contains__, f"must be in 0..{most}"))
    p.add_argument("--relations-k-max", type=_count(0), default=0,
                   help="also replay the relation cancellation up to this arity")
    p.add_argument("--relations-spectrum", type=_rationals, default="0,1")
    p.add_argument("--relations-cutoff", type=_positive, default="4")
    _common(p)


def _verify_geomodel_flags(p):
    # --pushpull-trials 0 skips the mock suite; every other count must let
    # the checkers draw at least one instance.
    p.add_argument("--trials", type=_count(1), default=500)
    p.add_argument("--max-coords", type=_count(1), default=4)
    p.add_argument("--max-poly-deg", type=_count(0), default=3)
    p.add_argument("--pushpull-trials", type=_count(0), default=100)
    _common(p)


def _check_dga_flags(p):
    p.add_argument("--preset", default=list(PRESETS)[0], choices=list(PRESETS))
    p.add_argument("--k-max", type=_count(0), default=4)
    p.add_argument("--cutoff", type=_positive, default="1",
                   help="recorded in the report; every preset embeds at energy zero, so it "
                   "does not change what is checked")
    _common(p)


def _check_ainfty_flags(p):
    p.add_argument("--file", required=True)
    p.add_argument("--k-max", type=_count(0), default=3)
    p.add_argument("--cutoff", type=_positive)
    _common(p, SAMPLE_SEED_HELP)


def _deform_check_flags(p):
    p.add_argument("--preset", default=list(PRESETS)[-1], choices=list(PRESETS))
    p.add_argument("--b", help='explicit element as JSON {"gen": "novikov expr", ...}; '
                   "checked in place of T^lam_min * g for each odd-degree generator g")
    p.add_argument("--lam-min", type=_positive, default="1")
    p.add_argument("--k-max", type=_count(0), default=3)
    p.add_argument("--exhaustive-threshold", type=_count(0), default=500)
    p.add_argument("--sample-size", type=_count(1), default=200)
    _common(p, SAMPLE_SEED_HELP)


def _enumerate_strata_flags(p):
    p.add_argument("--k", type=_count(1), required=True)
    p.add_argument("--energy", type=_nonnegative, required=True)
    p.add_argument("--spectrum", type=_rationals, required=True,
                   help="comma-separated energies, e.g. 0,1/2,1")
    p.add_argument("--tag", default="B")
    p.add_argument("--dim-out", type=_count(0), default=0)
    p.add_argument("--mu-out", type=int, default=0, choices=[0, 1])
    p.add_argument("--mus", type=_parities, help="comma-separated input parities")
    p.add_argument("--node-dim", type=_count(0), default=0)
    p.add_argument("--node-mu", type=int, default=0, choices=[0, 1])
    p.add_argument("--match", action="store_true",
                   help="also match strata against composition terms")


def _nov_eval_flags(p):
    p.add_argument("expr")


def _anf_flags(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--expr")
    source.add_argument("--file")
    p.add_argument("--bind", type=_binding, action="append",
                   help="name=integer binding, repeatable")


# Each subcommand: (name, help, the function adding its flags, handler).
COMMANDS = (
    ("prove-signs", "prove the sign identities symbolically", _prove_signs_flags,
     cmd_prove_signs),
    ("verify-geomodel", "randomized exact push-pull calculus checks", _verify_geomodel_flags,
     cmd_verify_geomodel),
    ("check-dga", "relations of a built-in algebra embedding", _check_dga_flags,
     cmd_check_dga),
    ("check-ainfty", "relations of a structure file", _check_ainfty_flags, cmd_check_ainfty),
    ("deform-check", "bounding-cochain deformations keep the relations", _deform_check_flags,
     cmd_deform_check),
    ("enumerate-strata", "codimension-1 boundary strata with signs", _enumerate_strata_flags,
     cmd_enumerate_strata),
    ("nov-eval", "evaluate a Novikov ring expression", _nov_eval_flags, cmd_nov_eval),
    ("anf", "normalize a sign expression over GF(2)", _anf_flags, cmd_anf),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the subcommand named ``command``, or of every
    subcommand when ``command`` names none.  A subcommand parses alike in
    both: its usage, help, defaults and errors do not depend on the others."""
    parser = _Parser(
        prog="ainfsign",
        description="exact verification toolkit for filtered A-infinity sign conventions",
    )
    parser.add_argument("--version", action="version", version=f"ainfsign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = [c for c in COMMANDS if c[0] == command] or COMMANDS
    for name, help_text, add_flags, handler in chosen:
        p = sub.add_parser(name, help=help_text)
        add_flags(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:  # OSError: an unreadable input file
        message = str(exc).replace("\n", "\\n")  # argparse echoes argv tokens as given
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
