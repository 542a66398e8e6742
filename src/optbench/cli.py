"""The ``optbench`` command line.

    optbench run --suite yabbob_lite --algs abbo,cma --seeds 5 \
        --master-seed 42 --out results/
    optbench report --in results/ --ranking
    optbench explain --ctx d=10,b=200,w=1,noisy=false
    optbench eval-server --cmd "python my_objective.py" --budget 200

A whole experiment is a single ``run`` line and reruns of that line are
byte-identical given the same master seed (``OPTBENCH_MASTER_SEED`` serves
as a fallback for ``--master-seed``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import get_type_hints

from .algospec import canonical_text, split_top_level
from .bench.suites import load_suite, shipped_suites
from .core import RunContext, run_loop
from .errors import OptbenchError
from .harness.evalserver import external_evaluator_session
from .harness.experiment import run_experiment
from .harness.records import load_records
from .harness.reports import emit_reports, report_tables
from .wizard import WIZARD_ID, SelectionContext, explain_selection, validate_spec


def _parse_seeds(text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        return list(range(int(lo), int(hi) + 1)) if dots else list(range(int(text)))
    except ValueError:
        raise OptbenchError(f"bad --seeds {text!r}; expected a count n or a range a..b") from None


def _master_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("OPTBENCH_MASTER_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise OptbenchError(f"bad OPTBENCH_MASTER_SEED {env!r}; expected an integer") from None


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise OptbenchError(f"bad --workers {args.workers}; expected at least 1")
    master_seed = _master_seed(args.master_seed)
    suite = load_suite(args.suite)
    algorithms = [a.strip() for a in split_top_level(args.algs) if a.strip()]
    seeds = _parse_seeds(args.seeds)
    records = run_experiment(
        suite,
        algorithms,
        seeds,
        master_seed=master_seed,
        jobs=args.workers,
    )
    paths = emit_reports(records, args.out)
    failed = [r for r in records if r.failed]
    print(f"{len(records)} records written to {paths['records']}")
    if failed:
        print(f"{len(failed)} cells failed:", file=sys.stderr)
        for record in failed[:10]:
            print(f"  {record.cell_id}: {record.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    tables = report_tables(load_records(args.indir))
    wanted = [name for name in ("curves", "heatmap", "ranking") if getattr(args, name)]
    wanted = wanted or ["curves", "heatmap", "ranking"]
    missing = not all(name in tables for name in wanted)
    note = "pairwise tables need at least two algorithms"
    if missing and "curves" not in wanted:
        raise OptbenchError(note)
    sys.stdout.write("".join(tables[name] for name in wanted if name in tables))
    if missing:
        print(note, file=sys.stderr)
    return 0


_ALIASES = {"dimension": "d", "budget": "b", "num_workers": "w"}
#: --ctx key -> (SelectionContext field, its type); int-typed fields are at least 1, float-typed
#: ones at least 0 (inf is an unbounded integer, NaN is refused)
_CTX_FIELDS = {
    _ALIASES.get(name, name): (name, cast) for name, cast in get_type_hints(SelectionContext).items()
}
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_ctx(text: str) -> SelectionContext:
    kwargs = {}
    for item in text.split(","):
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or key not in _CTX_FIELDS:
            raise OptbenchError(
                f"bad context item {item!r}; known keys: {', '.join(_CTX_FIELDS)}"
            )
        field, cast = _CTX_FIELDS[key]
        if cast is bool:
            kwargs[field] = _BOOLEANS.get(value.strip().lower())
            if kwargs[field] is None:
                raise OptbenchError(f"bad context item {item!r}; {key} takes one of {', '.join(_BOOLEANS)}")
        else:
            try:
                kwargs[field] = cast(value)
            except ValueError:
                raise OptbenchError(f"bad context item {item!r}; {key} takes a number") from None
            if cast is int and kwargs[field] < 1:
                raise OptbenchError(f"bad context item {item!r}; {key} must be at least 1")
            if cast is float and not kwargs[field] >= 0:
                raise OptbenchError(f"bad context item {item!r}; {key} must be at least 0")
    if "dimension" not in kwargs or "budget" not in kwargs:
        raise OptbenchError("--ctx needs at least d=<n> and b=<n>")
    return SelectionContext(**kwargs)


def _cmd_explain(args) -> int:
    rule, spec = explain_selection(_parse_ctx(args.ctx))
    print(f"rule {rule}: {canonical_text(spec)}")
    return 0


def _cmd_eval_server(args) -> int:
    spec = validate_spec(args.algs)  # before the child process starts
    master_seed = _master_seed(args.master_seed)
    with external_evaluator_session(args.cmd, timeout=args.timeout) as function:
        context = RunContext(
            domain=function.domain,
            budget=args.budget,
            num_workers=args.num_workers,
            noisy=args.noisy,
            master_seed=master_seed,
        )
        recommendation, history = run_loop(spec, function, context)
        final = function(recommendation.point)  # score the recommendation
        print(
            json.dumps(
                {
                    "algorithm": args.algs,
                    "budget": args.budget,
                    "recommendation": [float(v) for v in recommendation.point],
                    "recommendation_loss": final,
                    "best_told_loss": min(loss for _i, loss in history),
                }
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="optbench")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a suite and write reports")
    run_p.add_argument("--suite", required=True, help=f"suite name ({', '.join(shipped_suites())}) or manifest path")
    run_p.add_argument("--algs", required=True, help="comma-separated algorithm specs")
    run_p.add_argument("--seeds", default="5", help="seed count n, or an inclusive range a..b")
    run_p.add_argument("--master-seed", type=int, default=None)
    run_p.add_argument("--workers", type=int, default=1,
                       help="processes that run cells, this one included; cells are dealt one at a time")
    run_p.add_argument("--out", required=True)
    run_p.set_defaults(func=_cmd_run)

    report_p = sub.add_parser("report", help="print tables from stored records")
    report_p.add_argument("--in", dest="indir", required=True)
    report_p.add_argument("--curves", action="store_true")
    report_p.add_argument("--heatmap", action="store_true")
    report_p.add_argument("--ranking", action="store_true")
    report_p.set_defaults(func=_cmd_report)

    explain_p = sub.add_parser("explain", help="show which wizard rule fires")
    explain_p.add_argument("--ctx", required=True, help="e.g. d=10,b=200,w=1,noisy=false")
    explain_p.set_defaults(func=_cmd_explain)

    eval_p = sub.add_parser("eval-server", help="optimize an external evaluator process")
    eval_p.add_argument("--cmd", required=True, help="child command speaking the eval protocol")
    eval_p.add_argument("--algs", default=WIZARD_ID)
    eval_p.add_argument("--budget", type=int, default=100)
    eval_p.add_argument("--num-workers", type=int, default=1)
    eval_p.add_argument("--noisy", action="store_true")
    eval_p.add_argument("--master-seed", type=int, default=None)
    eval_p.add_argument("--timeout", type=float, default=30.0)
    eval_p.set_defaults(func=_cmd_eval_server)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OptbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # the pool and an evaluator child are stopped on the way out
        print("error: interrupted", file=sys.stderr)
        return 130


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
