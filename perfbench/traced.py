"""Traced runner: one ``optbench`` line run in-process, with timers on each layer.

A pass calls ``optbench.cli.main`` with the workload's own arguments (a
``run`` line with ``--workers 1``), so the program's own ``run_experiment``,
``run_cell``, ``run_loop`` and eval-server session execute unchanged.  Its
records must be byte-identical to the untraced line's, which shows that it
traces the same program; for a pooled line this is also the
worker-count-invariance contract.

Timers are installed at class or module level, only in this process and
only during a pass:

- ``Optimizer.ask``/``tell`` (the ``core`` bookkeeping) and each class's
  ``_ask``/``_tell`` hooks (``solvers.<id>`` or ``combinators.<kind>``,
  keyed by the node the wizard built);
- ``BenchmarkFunction.__call__`` (``bench.eval``), ``make_function`` as
  ``run_cell`` calls it (``bench.make``), ``build_optimizer``
  (``wizard.build``) and ``ExternalEvaluator.__call__``
  (``evalserver.call``);
- ``run_cell`` (a cell span), the checkpoint callback ``run_cell`` hands to
  ``run_loop`` (``harness.checkpoint``: ``recommend`` plus ``noise_free``),
  ``emit_reports`` (``harness.report``), and for ``eval-server`` the child
  spawn and ``run_loop`` (the session, timed like a cell).

A timed call's *self* time excludes the timed calls nested in it, so the
layers add up without double counting.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import defaultdict
from pathlib import Path

import optbench.cli as cli
import optbench.harness.experiment as experiment
import optbench.wizard as wizard
from optbench import SelectionContext, explain_selection, parse_algorithm
from optbench.algospec import BetAndRun, Chain, Leaf, Wrap
from optbench.bench.transforms import BenchmarkFunction
from optbench.core import Optimizer
from optbench.harness.evalserver import ExternalEvaluator

_WRAP_KINDS = {"metamodel": "meta", "progressive": "prog", "softmax": "softmax"}

perf_counter = time.perf_counter


def layer_of(spec) -> str:
    """Metric prefix of the node a spec builds, e.g. ``solvers.cma``."""
    if isinstance(spec, str):
        spec = parse_algorithm(spec)
    if isinstance(spec, Leaf):
        return f"solvers.{spec.name}"
    if isinstance(spec, Chain):
        return "combinators.chain"
    if isinstance(spec, BetAndRun):
        return "combinators.bet"
    if isinstance(spec, Wrap):
        return f"combinators.{_WRAP_KINDS.get(spec.kind, spec.kind)}"
    return f"other.{type(spec).__name__}"


class Tracer:
    """Self-time accumulators per layer key, plus coarse spans.

    Calls inside an evaluation loop run millions of times, so they are kept
    as per-cell sums (``totals``); cells, constructions, checkpoints and
    reports are kept as spans with start, end, parent span and cell id.
    """

    def __init__(self):
        self._open: list[float] = []  # time spent in timed calls nested in each open call
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # key -> [calls, self s, total s]
        self.covered = 0.0  # time inside outermost timed calls
        self.spans: list[dict] = []
        self.cell_rows: list[dict] = []
        self.labels: dict[Optimizer, str] = {}
        self.cell: tuple[int | None, str | None] = (None, None)  # (span, id) of the running cell
        self.evals = 0  # top-level tells, i.e. evaluations told to the cell's optimizer
        self.retells = 0  # top-level asks answered with an already-told candidate

    @property
    def top_level(self) -> bool:
        return not self._open

    def call(self, key, fn, *args, span=False):
        """``fn(*args)``, its self time charged to ``key``; ``span`` also
        records the call as a span of the running cell."""
        stack = self._open
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            elapsed = end - start
            nested = stack.pop()
            total = self.totals[key]
            total[0] += 1
            total[1] += elapsed - nested
            total[2] += elapsed
            if stack:
                stack[-1] += elapsed
            else:
                self.covered += elapsed
            if span:
                self.span(key, start, end, *self.cell)

    def span(self, name, start, end, parent=None, cell=None) -> int:
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent, "cell": cell})
        return len(self.spans) - 1

    def label(self, handle) -> str:
        return self.labels.get(handle) or f"other.{type(handle).__name__}"


class TracedRunner:
    """Runs passes of one workload and accumulates counters across them."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts: dict[str, int] = defaultdict(int)
        self.cell_s = 0.0  # traced cell (or eval-server session) wall
        self.covered_in_cells = 0.0
        self.passes = 0
        self._saved: list = []

    # ------------------------------------------------------------------
    def run_pass(self, unit, out_dir: Path) -> str:
        """One traced pass; returns what the untraced line must match."""
        argv = list(unit.argv)
        if not unit.external:
            argv[argv.index("--workers") + 1] = "1"
            argv += ["--out", str(out_dir)]
        stdout = io.StringIO()
        self._install()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
        finally:
            self._restore()
            self.tracer.span("pass", start, perf_counter())
            self.passes += 1
        if code not in (0, 1):  # 1: some cells failed; the records count them
            raise RuntimeError(f"traced optbench {argv[0]} returned {code}")
        if unit.external:
            return stdout.getvalue()
        return (out_dir / "records.jsonl").read_text()

    # ------------------------------------------------------------------
    def _patch(self, owner, name, make) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else original))
        setattr(owner, name, make(original))

    def _restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _install(self) -> None:
        tracer = self.tracer
        call = tracer.call

        def ask(original):
            def traced(this):
                top = tracer.top_level
                cand = call("core.ask", original, this)
                if top and cand.observations:
                    tracer.retells += 1
                return cand
            return traced

        def tell(original):
            def traced(this, cand, loss):
                tracer.evals += tracer.top_level
                return call("core.tell", original, this, cand, loss)
            return traced

        self._patch(Optimizer, "ask", ask)
        self._patch(Optimizer, "tell", tell)
        classes, todo = [], [Optimizer]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            if "_ask" in cls.__dict__:
                self._patch(cls, "_ask", lambda original: lambda this: call(
                    tracer.label(this) + ".ask", original, this))
            if "_tell" in cls.__dict__:
                self._patch(cls, "_tell", lambda original: lambda this, cand, loss: call(
                    tracer.label(this) + ".tell", original, this, cand, loss))
        self._patch(BenchmarkFunction, "__call__", lambda original: lambda this, point: call(
            "bench.eval", original, this, point))
        self._patch(ExternalEvaluator, "__call__", lambda original: lambda this, point: call(
            "evalserver.call", original, this, point))
        self._patch(experiment, "make_function", lambda original: lambda spec, noise_seed=None: call(
            "bench.make", original, spec, noise_seed, span=True))

        def build(original):
            def traced(spec, context, _path=("alg",), _init_point=None):
                top = _path == ("alg",)
                node = parse_algorithm(spec) if isinstance(spec, str) else spec
                if top and isinstance(node, Leaf) and node.name == wizard.WIZARD_ID:
                    rule, _spec = call("wizard.explain", explain_selection,
                                       SelectionContext.from_problem(context.domain, context))
                    self.counts[f"wizard.rule_{rule}.cells"] += 1
                handle = call("wizard.build", original, spec, context, _path, _init_point, span=top)
                tracer.labels.setdefault(handle, layer_of(spec))  # abbo: the resolved spec labels first
                return handle
            return traced

        self._patch(wizard, "build_optimizer", build)

        def run_cell(original):
            def traced(suite_name, problem, budget, workers, text, spec, seed, master_seed):
                cell_id = f"{suite_name}/{problem.problem_id}/b{budget}/w{workers}/{text}/s{seed}"
                record = self._cell(cell_id, original, suite_name, problem, budget, workers,
                                    text, spec, seed, master_seed)
                self.counts["harness.checkpoints"] += len(record.checkpoints)
                return record
            return traced

        def run_loop(original):
            def traced(algorithm, function, context, checkpoint_callback=None):
                if checkpoint_callback is not None:
                    def checkpoint(done, handle):
                        return call("harness.checkpoint", checkpoint_callback, done, handle)
                    return original(algorithm, function, context, checkpoint)
                # eval-server: the session after spawn and handshake is the cell
                return self._cell("eval-server", original, algorithm, function, context)
            return traced

        self._patch(experiment, "run_cell", run_cell)
        self._patch(experiment, "run_loop", run_loop)
        self._patch(cli, "run_loop", run_loop)
        self._patch(cli, "emit_reports", lambda original: lambda records, out_dir: call(
            "harness.report", original, records, out_dir, span=True))
        self._patch(cli, "external_evaluator_session", lambda original: lambda command, timeout=30.0: call(
            "evalserver.spawn", original, command, timeout, span=True))

    def _cell(self, cell_id, fn, *args):
        """``fn(*args)`` as a cell: a span, its wall time and per-cell sums."""
        tracer = self.tracer
        covered0, evals0 = tracer.covered, tracer.evals
        totals0 = {key: value[:2] for key, value in tracer.totals.items()}
        start = perf_counter()
        span = tracer.span("cell", start, start, None, cell_id)
        tracer.cell = (span, cell_id)
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            tracer.spans[span]["end"] = end
            tracer.cell = (None, None)
            tracer.labels.clear()
            self.cell_s += end - start
            self.covered_in_cells += tracer.covered - covered0
            self.counts["harness.cells"] += 1
            self.counts["core.evals"] += tracer.evals - evals0
            for key, (calls, self_s, _total) in tracer.totals.items():
                before = totals0.get(key, (0, 0.0))
                if calls != before[0]:
                    tracer.cell_rows.append(
                        {"cell": cell_id, "name": key, "calls": calls - before[0], "self_s": self_s - before[1]}
                    )

    # ------------------------------------------------------------------
    def layer_metrics(self, solver_ids) -> dict[str, float]:
        """Per-layer figures over the passes run so far; counts are per pass."""
        totals, counts, passes = self.tracer.totals, self.counts, max(self.passes, 1)
        evals, cells = counts["core.evals"], counts["harness.cells"]

        def calls(key):
            return totals[key][0] if key in totals else 0

        def self_s(key):
            return totals[key][1] if key in totals else 0.0

        def total_s(key):
            return totals[key][2] if key in totals else 0.0

        def ratio(part, whole):
            return part / whole if whole else 0.0

        def per_call(key, scale):
            return ratio(self_s(key), calls(key)) * scale

        ask_tell = sum(
            value[1] for key, value in totals.items()
            if key.startswith(("core.", "solvers.", "combinators.", "other."))
        )
        out = {
            "bench.eval_us": per_call("bench.eval", 1e6),
            "bench.eval_share": ratio(self_s("bench.eval"), self.cell_s),
            "bench.make_ms": ratio(self_s("bench.make"), cells) * 1e3,
            "core.ask_us": ratio(self_s("core.ask"), evals) * 1e6,
            "core.tell_us": ratio(self_s("core.tell"), evals) * 1e6,
            "core.ask_tell_share": ratio(ask_tell, self.cell_s),
            "core.retell_frac": ratio(self.tracer.retells, evals),
            "core.evals": evals // passes,
            "wizard.build_ms": ratio(self_s("wizard.build"), cells) * 1e3,
            "harness.cells": cells // passes,
            "harness.checkpoints": counts["harness.checkpoints"] // passes,
            "harness.checkpoint_us": ratio(total_s("harness.checkpoint"), counts["harness.checkpoints"]) * 1e6,
            "harness.loop_us": ratio(self.cell_s - self.covered_in_cells, evals) * 1e6,
            "harness.report_ms": per_call("harness.report", 1e3),
            "evalserver.call_us": per_call("evalserver.call", 1e6),
            "evalserver.call_share": ratio(self_s("evalserver.call"), self.cell_s),
        }
        prefixes = [f"solvers.{name}" for name in solver_ids]
        prefixes += [f"combinators.{kind}" for kind in ("chain", "bet", "meta", "prog", "softmax")]
        for prefix in prefixes:
            for op in ("ask", "tell"):
                out[f"{prefix}.{op}_us"] = per_call(f"{prefix}.{op}", 1e6)
        for rule in range(1, 19):
            out[f"wizard.rule_{rule}.cells"] = counts[f"wizard.rule_{rule}.cells"] // passes
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.tracer.spans:
                fh.write(json.dumps(span) + "\n")
            for row in self.tracer.cell_rows:
                fh.write(json.dumps(row) + "\n")
