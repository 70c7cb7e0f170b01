"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each tubeke module from outside
the package.  Several modules bind functions at import time
(``from .metric_tensor import metric_jet``), the evaluators are methods of
``PotentialSolution`` and the verification suites sit in the
``diagnostics._SUITES`` table, so every wrapper is installed in each
namespace that holds the original object: every ``tubeke`` module, the
class, and the suite table.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent index, op id]``; spans stay in a list
until the run ends.  A span's self time is its duration minus the
durations of its direct children (the library is single-threaded, so
children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("potential_solver", "tube_geometry", "metric_tensor", "curvature",
          "diagnostics", "cli")

_GEOMETRY_FUNCTIONS = ("in_domain", "x_invariant", "normalizing_automorphism",
                       "apply", "jacobian", "jacobian_det", "classify_boundary",
                       "region", "in_cone")

_CLI_COMMANDS = ("_cmd_solve", "_cmd_eval", "_cmd_metric", "_cmd_curvature",
                 "_cmd_sweep", "_cmd_verify")


def _count_nodes(tracer, sol):
    tracer.counters["potential_solver.nodes"] += len(sol.xs)


def _count_pairs(tracer, values):
    tracer.counters["curvature.bisectional_batch.pairs"] += len(values)


def _count_nfev(tracer, res):
    tracer.counters["curvature.minimize.nfev"] += int(res.nfev)


def _count_checks(tracer, report):
    tracer.counters["diagnostics.checks"] += len(report.checks)
    tracer.counters["diagnostics.failed_checks"] += sum(not c.passed for c in report.checks)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.op = "setup"
        self._stack = []
        self._last_error = {}
        self._slots = self._find_slots()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, span=True, hook=None):
        layer = name.split(".")[0]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                index = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
                stack.append(index)
            else:
                self.counters[name + ".calls"] += 1
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                # count an exception once per layer, where it first escapes
                if self._last_error.get(layer) is not exc:
                    self._last_error[layer] = exc
                    self.errors[layer] += 1
                raise
            finally:
                if span:
                    stack.pop()
                    spans[index][2] = clock()
            if hook is not None:
                hook(self, out)
            return out

        return wrapper

    def _find_slots(self):
        """(holder, key, original, wrapper) for every binding to be replaced."""
        mods = {name: sys.modules["tubeke." + name] for name in LAYERS}
        targets = []  # (original, name, span, hook)
        ps, mt, cv = mods["potential_solver"], mods["metric_tensor"], mods["curvature"]
        targets.append((ps.solve_potential, "potential_solver.solve_potential", True, _count_nodes))
        targets.append((ps.load_solution, "potential_solver.load_solution", True, None))
        for fn in _GEOMETRY_FUNCTIONS:
            targets.append((getattr(mods["tube_geometry"], fn), "tube_geometry", True, None))
        for fn in ("x_derivatives", "metric_jet", "einstein_residual"):
            targets.append((getattr(mt, fn), "metric_tensor." + fn, True, None))
        targets.append((cv.tensor_from_jet, "curvature.tensor_from_jet", True, None))
        targets.append((cv.bisectional, "curvature.bisectional", True, None))
        targets.append((cv.bisectional_batch, "curvature.bisectional_batch", True, _count_pairs))
        targets.append((cv.bis_extremes_from_jet, "curvature.bis_extremes", True, None))
        targets.append((cv.sectional_max_from_jet, "curvature.sectional_max", True, None))
        if hasattr(cv, "minimize"):
            # counted, not timed: the Nelder-Mead time stays in the
            # extremes' self time, where the search is charged
            targets.append((cv.minimize, "curvature.minimize", False, _count_nfev))
        targets.append((mods["diagnostics"].run_suite, "diagnostics.run_suite", True, _count_checks))
        targets.append((mods["cli"].axis_sweep, "cli.axis_sweep", True, None))
        for fn in _CLI_COMMANDS:
            # the command handlers' exceptions become exit codes in main();
            # count them without a span
            if hasattr(mods["cli"], fn):
                targets.append((getattr(mods["cli"], fn), "cli." + fn[5:], False, None))

        wrappers = {}
        for original, name, span, hook in targets:
            wrappers.setdefault(id(original), (original, self._wrap(name, original, span, hook)))
        holders = [sys.modules["tubeke"]] + list(mods.values())
        slots = []
        for holder in holders:
            for key, value in vars(holder).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    slots.append((holder, key, value, wrappers[id(value)][1]))
        cls = ps.PotentialSolution
        for key in ("eval_F", "eval_f_derivs", "eval_Z"):
            original = vars(cls)[key]
            slots.append((cls, key, original, self._wrap("potential_solver.eval", original)))
        suites = mods["diagnostics"]._SUITES
        for key, original in suites.items():
            slots.append((suites, key, original, self._wrap("diagnostics." + key, original)))
        return slots

    def _bind(self, use_wrapper):
        for holder, key, original, wrapper in self._slots:
            value = wrapper if use_wrapper else original
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)

    def install(self):
        self._bind(True)

    def uninstall(self):
        self._bind(False)

    # -- results ------------------------------------------------------------

    def merge(self, other: dict) -> None:
        """Add the spans, counters and errors a child process dumped."""
        offset = len(self.spans)
        for name, start, end, parent, op in other["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        for key, value in other["counters"].items():
            self.counters[key] += value
        for key, value in other["errors"].items():
            self.errors[key] += value

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "errors": self.errors}, fh)

    def self_times(self) -> dict:
        """name -> (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for (name, start, end, parent, op), covered in zip(self.spans, child):
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - covered
        return out
