"""The traced run: per-layer cProfile aggregation, counting wrappers and
spans, all installed from outside the program.

A layer is one module of ``ainfsign`` (plus the standard library's
``fractions``).  Its self time and call count are the sums of the profile
entries of the functions defined in its file.  Call counts of single
functions come from the same profile.  What a profile cannot give, the
wrappers count: the distinct and nonzero share of operation-table lookups,
nontrivial push-pull instances, proof obligations and the sweep spans.

A wrapper replaces a public name in every ``ainfsign`` module that holds
it, so calls through ``from x import name`` are counted too.  A name that
a later version removes is skipped and its counter reads 0.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import os
import sys
import time

LAYERS = {
    "fractions": "fractions",
    "novikov": "ainfsign.novikov",
    "f2poly": "ainfsign.f2poly",
    "signs": "ainfsign.signs",
    "prover": "ainfsign.prover",
    "strata": "ainfsign.strata",
    "geomodel.core": "ainfsign.geomodel.core",
    "geomodel.checks": "ainfsign.geomodel.checks",
    "ainfty": "ainfsign.ainfty",
    "structio": "ainfsign.structio",
    "cli": "ainfsign.cli",
}
# layer metric "<layer>.calls" is reported for these; "<layer>.self_s" for all
LAYER_CALLS = ("fractions", "novikov", "f2poly", "signs", "geomodel.core", "ainfty")

FUNCTION_CALLS = {
    "fractions.new.calls": ("fractions", "Fraction.__new__"),
    "novikov.from_terms.calls": ("ainfsign.novikov", "NovikovElement.from_terms"),
    "f2poly.anf_equivalent.calls": ("ainfsign.f2poly", "anf_equivalent"),
    "signs.master_sum.calls": ("ainfsign.signs", "master_sum"),
    "strata.enumerate_strata.calls": ("ainfsign.strata", "enumerate_strata"),
    "geomodel.form.new.calls": ("ainfsign.geomodel.core", "Form.__init__"),
    "geomodel.wedge.calls": ("ainfsign.geomodel.core", "wedge"),
    "geomodel.pullback.calls": ("ainfsign.geomodel.core", "pullback"),
    "geomodel.pushforward.calls": ("ainfsign.geomodel.core", "pushforward"),
    "geomodel.pushpull.attempts": ("ainfsign.geomodel.checks", "check_pushpull_identities"),
    "ainfty.apply_raw.calls": ("ainfsign.ainfty", "FilteredAInfty.apply_raw"),
    "ainfty.relation_defect.calls": ("ainfsign.ainfty", "FilteredAInfty.relation_defect"),
    "ainfty.parse_form_key.calls": ("ainfsign.ainfty", "_parse_form_key"),
}

# The sweeps a span is recorded around: the loops that do a command's work.
SWEEPS = {
    "prover.prove_all": ("ainfsign.prover", "prove_all"),
    "prover.prove_relation_cancellation": ("ainfsign.prover", "prove_relation_cancellation"),
    "geomodel.run_all_checks": ("ainfsign.geomodel.checks", "run_all_checks"),
    "geomodel.verify_pushpull": ("ainfsign.geomodel.checks", "verify_pushpull"),
    "ainfty.check_relations": ("ainfsign.ainfty", "FilteredAInfty.check_relations"),
    "ainfty.deform": ("ainfsign.ainfty", "deform"),
}
OBLIGATION_SWEEPS = ("prover.prove_all", "prover.prove_relation_cancellation")


def _resolve(module_name: str, path: str):
    """(owner, attribute name, value) of a dotted name, or None."""
    owner = sys.modules.get(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    value = getattr(owner, name, None) if owner is not None else None
    return None if value is None else (owner, name, value)


def _code_key(func) -> tuple:
    code = inspect.unwrap(func).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(i, [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


class Tracer:
    """Profiler, wrappers and spans of one traced repetition.  Counting and
    span recording happen only while ``active``, so the negative control
    that runs afterwards leaves no trace."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.profile = cProfile.Profile()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.active = False
        self.lookups = 0
        self.nonzero_lookups = 0
        self._distinct: set = set()
        self._tables: dict[int, object] = {}  # keeps tables alive so their ids stay unique
        self.nontrivial = 0
        self.obligations = 0

    def start(self) -> None:
        self.active = True
        self.profile.enable()

    def stop(self) -> None:
        self.profile.disable()
        self.active = False

    # --- spans ---

    def open_span(self, name: str) -> int:
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": self._stack[-1] if self._stack else None,
                           "run": self.run_id})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close_span(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    # --- wrappers ---

    def install(self) -> None:
        """Patch the wrappers in; call after ``ainfsign.cli`` is imported."""
        self._codes = {metric: _code_key(found[2]) for metric, (mod, path) in FUNCTION_CALLS.items()
                       if (found := _resolve(mod, path)) is not None}
        self._layer_files = {os.path.realpath(sys.modules[mod].__file__): layer
                             for layer, mod in LAYERS.items() if mod in sys.modules}
        for span_name, (mod, path) in SWEEPS.items():
            self._patch(mod, path, lambda f, s=span_name: self._sweep(s, f))
        self._patch("ainfsign.ainfty", "OperationTable.lookup", self._lookup)
        self._patch("ainfsign.geomodel.checks", "check_pushpull_identities", self._pushpull)

    def _patch(self, module_name: str, path: str, make) -> None:
        found = _resolve(module_name, path)
        if found is None:
            return
        owner, name, original = found
        wrapper = make(original)
        if inspect.isclass(owner):
            setattr(owner, name, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("ainfsign") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _sweep(self, span_name: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            index = self.open_span(span_name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close_span(index)
            if span_name in OBLIGATION_SWEEPS:
                self.obligations += len(result)
            return result

        return wrapper

    def _lookup(self, func):
        @functools.wraps(func)
        def wrapper(table, key, spaces, gens):
            value = func(table, key, spaces, gens)
            if self.active:
                self.lookups += 1
                self.nonzero_lookups += bool(value.coeffs)
                self._tables.setdefault(id(table), table)
                self._distinct.add((id(table), key, spaces, gens))
            return value

        return wrapper

    def _pushpull(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            report = func(*args, **kwargs)
            if self.active:
                self.nontrivial += bool(report.nontrivial)
            return report

        return wrapper

    # --- results ---

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        self.profile.create_stats()
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        by_code = {}
        total = 0.0
        for (filename, line, func), (_, nc, tt, _, _) in self.profile.stats.items():
            total += tt
            by_code[(filename, line, func)] = nc
            layer = self._layer_files.get(os.path.realpath(filename)) if filename != "~" else None
            if layer is not None:
                self_s[layer] += tt
                calls[layer] += nc
        out = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
        out.update({f"{layer}.calls": (calls[layer], "count") for layer in LAYER_CALLS})
        out.update({metric: (by_code.get(self._codes.get(metric), 0), "count")
                    for metric in FUNCTION_CALLS})
        attempts = out["geomodel.pushpull.attempts"][0]
        out["geomodel.pushpull.nontrivial_ratio"] = (self.nontrivial / attempts if attempts else 0.0, "ratio")
        out["prover.obligations"] = (self.obligations, "count")
        out["ainfty.lookup.calls"] = (self.lookups, "count")
        out["ainfty.lookup.distinct_ratio"] = (
            len(self._distinct) / self.lookups if self.lookups else 0.0, "ratio")
        out["ainfty.lookup.nonzero_ratio"] = (
            self.nonzero_lookups / self.lookups if self.lookups else 0.0, "ratio")
        out["profile.total_s"] = (total, "s")
        own = self_times(self.spans)
        out["span.sweeps.s"] = (sum(self.sweep_totals().values()), "s")
        out["span.commands.self_s"] = (
            sum(t for s, t in zip(self.spans, own) if s["name"].startswith("command:")), "s")
        return out

    def sweep_totals(self) -> dict[str, float]:
        """Summed duration of every sweep span, 0.0 for sweeps not entered."""
        totals = {f"span.{name}.s": 0.0 for name in SWEEPS}
        for span in self.spans:
            if span["name"] in SWEEPS:
                totals[f"span.{span['name']}.s"] += span["end"] - span["start"]
        return totals
