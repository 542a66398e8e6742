"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Statistical gates use fixed seeds, so results are reproducible.
"""

import math
import time

import numpy as np
import pytest

from optbench import (
    DomainSpec,
    RunContext,
    SelectionContext,
    build_optimizer,
    canonical_text,
    continuous,
    explain_selection,
    run_loop,
)
from optbench.bench import FunctionSpec, TransformSpec, get_suite, make_function, simple_tsp
from optbench.bench.tsp import enumerate_tour_lengths, tsp_cities
from optbench.cli import main as cli_main
from optbench.harness import (
    ExperimentRecord,
    rank_algorithms,
    run_experiment,
    winning_rate_heatmap,
)
from optbench.solvers.metamodel import metamodel_min_points, metamodel_propose


def report(number: int, name: str, passed: bool, detail: str, started: float, limit: float | None):
    elapsed = time.perf_counter() - started
    status = "PASS" if passed else "FAIL"
    budget = f" [{elapsed:.2f}s / limit {limit:g}s]" if limit else f" [{elapsed:.2f}s]"
    print(f"[ACCEPTANCE] criterion {number:02d} {status}: {name} ({detail}){budget}")
    assert passed, f"criterion {number} failed: {detail}"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded its {limit}s time limit ({elapsed:.1f}s)"


def sel(**kwargs):
    kwargs.setdefault("dimension", 10)
    kwargs.setdefault("budget", 1000)
    return SelectionContext(**kwargs)


def test_criterion_01_wizard_dispatch_exactness():
    started = time.perf_counter()
    examples = [
        (sel(dimension=20, budget=1000, num_workers=600), "oneshot"),
        (sel(dimension=3, budget=80, num_workers=20), "diagcma"),
        (sel(dimension=10, budget=10000), "chain(cma,powell;0.5,0.5)"),
        (sel(dimension=50, budget=600), "one-plus-one-es"),
        (sel(dimension=4, budget=100), "meta(cma)"),
        (sel(dimension=10, budget=200), "linear-tr"),
        (sel(dimension=200, budget=1000, noisy=True), "prog(de)"),
        (sel(dimension=50, budget=500, noisy=True), "quadratic-tr"),
        (sel(dimension=25, budget=1000, noisy=True), "tbpsa"),
        (sel(dimension=20, budget=500, has_discrete=True, max_arity=2),
         "discrete-lineardecay"),
        (sel(dimension=10, budget=500, has_discrete=True, has_categorical=True, max_arity=10),
         "softmax(cma)"),
    ]
    mismatches = [
        (canonical_text(explain_selection(ctx)[1]), expected)
        for ctx, expected in examples
        if canonical_text(explain_selection(ctx)[1]) != expected
    ]
    witnesses = {
        1: sel(dimension=6, budget=300, noisy=True, has_discrete=True, has_categorical=True,
               max_arity=3),
        2: sel(dimension=20, budget=500, has_discrete=True, max_arity=2),
        3: sel(dimension=20, budget=500, num_workers=4, has_discrete=True, max_arity=2),
        4: sel(dimension=10, budget=500, has_discrete=True, has_categorical=True, max_arity=10),
        5: sel(dimension=10, budget=500, has_discrete=True, has_unbounded_discrete=True,
               max_arity=math.inf),
        6: sel(dimension=200, budget=1000, noisy=True),
        7: sel(dimension=25, budget=1000, noisy=True),
        8: sel(dimension=50, budget=500, noisy=True),
        9: sel(dimension=50, budget=50, noisy=True),
        10: sel(dimension=20, budget=1000, num_workers=600),
        11: sel(dimension=3, budget=80, num_workers=20),
        12: sel(dimension=3, budget=300, num_workers=100),
        13: sel(dimension=10, budget=1000, num_workers=300),
        14: sel(dimension=10, budget=10000),
        15: sel(dimension=50, budget=600),
        16: sel(dimension=4, budget=100),
        17: sel(dimension=10, budget=200),
    }
    unreached = [rule for rule, ctx in witnesses.items() if explain_selection(ctx)[0] != rule]
    passed = not mismatches and not unreached
    report(
        1,
        "wizard dispatch exactness",
        passed,
        f"{len(examples)} examples exact, rules 1-17 reached (mismatches={mismatches}, unreached={unreached})",
        started,
        1.0,
    )


def test_criterion_02_ordering_literalness():
    started = time.perf_counter()
    rule_a, spec_a = explain_selection(sel(dimension=25, budget=1000, noisy=True))
    rule_b, spec_b = explain_selection(sel(dimension=50, budget=500, noisy=True))
    passed = (
        rule_a == 7
        and canonical_text(spec_a) == "tbpsa"
        and rule_b == 8
        and canonical_text(spec_b) == "quadratic-tr"
    )
    report(
        2,
        "ordering literalness (first match applied)",
        passed,
        f"noisy d=25 -> rule {rule_a} {canonical_text(spec_a)}; noisy d=50 b=500 -> rule {rule_b} {canonical_text(spec_b)}",
        started,
        1.0,
    )


def test_criterion_03_es_on_translated_sphere():
    started = time.perf_counter()
    regrets = []
    for seed in range(20):
        spec = FunctionSpec("sphere", 10, TransformSpec(translation_std=1.0, transform_seed=seed))
        f = make_function(spec)
        ctx = RunContext(f.domain, budget=3000, master_seed=seed)
        rec, _ = run_loop("one-plus-one-es", f, ctx)
        regrets.append(f.noise_free(rec.point))
    median = float(np.median(regrets))
    report(3, "(1+1)-ES translated sphere d=10", median < 1e-8, f"median regret {median:.2e}", started, 2.0)


def test_criterion_04_cma_beats_es_on_rotated_ellipsoid():
    started = time.perf_counter()
    wins = 0
    for seed in range(20):
        spec = FunctionSpec(
            "ellipsoid", 10, TransformSpec(translation_std=1.0, rotate=True, transform_seed=seed)
        )
        f = make_function(spec)
        ctx = RunContext(f.domain, budget=10_000, master_seed=seed)
        rec_cma, _ = run_loop("cma", f, ctx)
        rec_es, _ = run_loop("one-plus-one-es", f, ctx)
        wins += f.noise_free(rec_cma.point) < f.noise_free(rec_es.point)
    report(
        4,
        "CMA vs (1+1)-ES on rotated ellipsoid (cond 1e6)",
        wins >= 16,
        f"CMA lower regret in {wins}/20 paired seeds",
        started,
        30.0,
    )


def test_criterion_05_chaining_benefit_on_cigar():
    started = time.perf_counter()
    wins = 0
    for seed in range(20):
        spec = FunctionSpec("cigar", 10, TransformSpec(translation_std=1.0, transform_seed=seed))
        f = make_function(spec)
        ctx = RunContext(f.domain, budget=8000, master_seed=seed)
        rec_chain, _ = run_loop("chain(cma,powell;0.5,0.5)", f, ctx)
        rec_cma, _ = run_loop("cma", f, ctx)
        wins += f.noise_free(rec_chain.point) <= f.noise_free(rec_cma.point)
    report(
        5,
        "chaining improves the endgame on cigar d=10",
        wins >= 10,
        f"chain(cma,powell) <= cma in {wins}/20 paired seeds",
        started,
        60.0,
    )


def test_criterion_06_recommendation_beats_best_observation_under_noise():
    started = time.perf_counter()
    wins = 0
    for seed in range(20):
        spec = FunctionSpec(
            "sphere", 10, TransformSpec(translation_std=1.0, noise_std=1.0, transform_seed=seed)
        )
        f = make_function(spec, noise_seed=seed)
        ctx = RunContext(f.domain, budget=5000, noisy=True, master_seed=seed)
        handle = build_optimizer("tbpsa", ctx)
        rec, _ = run_loop(handle, f, ctx)
        naive = handle.incumbent  # the first lowest single observation
        wins += f.noise_free(rec.point) < f.noise_free(naive.point)
    report(
        6,
        "ask != recommend pays off under noise (TBPSA)",
        wins >= 14,
        f"aggregated recommendation beats best single observation in {wins}/20 seeds",
        started,
        60.0,
    )


def test_criterion_07_discrete_hitting_on_onemax():
    started = time.perf_counter()
    spec = FunctionSpec("onemax", 20)
    f = make_function(spec)
    hits = 0
    for seed in range(100):
        ctx = RunContext(f.domain, budget=2000, master_seed=seed)
        handle = build_optimizer("discrete-fixed", ctx)
        for _ in range(2000):
            cand = handle.ask()
            loss = f(cand.point)
            handle.tell(cand, loss)
            if loss == 0.0:
                hits += 1
                break
    report(
        7,
        "fixed-rate (1+1) EA solves OneMax d=20 within 2000 evals",
        hits >= 95,
        f"solved {hits}/100 seeds (expected hitting time ~ e d ln d ~ 163)",
        started,
        10.0,
    )


def test_criterion_08_metamodel_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    count = 0
    failures = 0
    while count < 50:
        for d in (2, 5, 10):
            if count >= 50:
                break
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            A = (q * rng.uniform(0.5, 5.0, size=d)) @ q.T
            b = rng.standard_normal(d)
            minimizer = np.linalg.solve(A, -0.5 * b)
            pts = minimizer + rng.standard_normal((metamodel_min_points(d) + 5, d))
            losses = np.array([x @ A @ x + b @ x for x in pts])
            proposal = metamodel_propose(pts, losses)
            if proposal is None:
                failures += 1
            else:
                worst = max(worst, float(np.linalg.norm(proposal - minimizer)))
            count += 1
    passed = failures == 0 and worst < 1e-6
    report(
        8,
        "meta-model recovers random PD quadratics",
        passed,
        f"50 quadratics over d in (2,5,10); worst minimizer error {worst:.2e}, {failures} rejections",
        started,
        5.0,
    )


def test_criterion_09_reporting_math_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    checked = 0
    for trial in range(1000):
        algs = [f"a{i}" for i in range(int(rng.integers(2, 5)))]
        records = []
        for p in range(int(rng.integers(1, 4))):
            budget = int(rng.integers(10, 500))
            for k, alg in enumerate(algs):
                if k >= 2 and rng.random() < 0.2:
                    continue  # missing cells allowed beyond the first two
                for seed in range(int(rng.integers(1, 4))):
                    records.append(
                        ExperimentRecord(
                            "fuzz", f"p{p}", alg, seed, budget, 1,
                            checkpoints=((budget, float(rng.standard_normal())),),
                        )
                    )
        algorithms, H = winning_rate_heatmap(records)
        n = len(algorithms)
        assert all(H[i, i] == 0.5 for i in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if not math.isnan(H[i, j]):
                    assert abs(H[i, j] + H[j, i] - 1.0) < 1e-12
        from optbench.harness import normalize_losses

        values = [r.final_regret for r in records]
        normalized = normalize_losses(values)
        assert all(0.0 <= v <= 1.0 for v in normalized)
        # strictly monotone transform leaves the heatmap unchanged
        transformed = [
            ExperimentRecord(
                r.suite, r.problem, r.algorithm, r.seed, r.budget, r.num_workers,
                checkpoints=tuple((e, math.exp(v)) for e, v in r.checkpoints),
            )
            for r in records
        ]
        algorithms2, H2 = winning_rate_heatmap(transformed)
        assert algorithms == algorithms2
        mask = ~np.isnan(H)
        assert np.array_equal(mask, ~np.isnan(H2))
        assert np.allclose(H[mask], H2[mask])
        checked += 1
    report(
        9,
        "reporting math (antisymmetry, diagonal, range, monotone invariance)",
        checked == 1000,
        f"{checked} fuzzed record sets verified",
        started,
        None,
    )


@pytest.mark.slow
def test_criterion_10_wizard_competitiveness_on_yabbob_lite():
    started = time.perf_counter()
    suite = get_suite("yabbob_lite")
    algorithms = ["abbo", "cma", "de", "one-plus-one-es", "tbpsa", "powell"]
    records = run_experiment(suite, algorithms, seeds=range(5), master_seed=2024)
    names, heatmap = winning_rate_heatmap(records)
    ranking = rank_algorithms(names, heatmap)
    position = [name for name, _score in ranking].index("abbo") + 1
    table = ", ".join(f"{name}={score:.3f}" for name, score in ranking)
    report(
        10,
        "wizard ranks top-2 on yabbob_lite by mean winning frequency",
        position <= 2,
        f"abbo position {position}/6 ({table})",
        started,
        1800.0,
    )


def test_criterion_11_one_line_reproducibility(tmp_path):
    started = time.perf_counter()
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli_main(
            [
                "run", "--suite", "discrete_lite", "--algs", "abbo,discrete-portfolio",
                "--seeds", "2", "--master-seed", "77", "--out", str(out),
            ]
        )
        assert rc == 0
        outputs.append((out / "records.jsonl").read_bytes())
    passed = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(
        11,
        "one-line reproducibility of a full run",
        passed,
        f"records.jsonl identical across reruns ({len(outputs[0])} bytes)",
        started,
        None,
    )


def test_criterion_12_simple_tsp_decode_soundness():
    started = time.perf_counter()
    spec = simple_tsp(6, seed=12)
    f = make_function(spec)
    oracle = {round(v, 9) for v in enumerate_tour_lengths(tsp_cities(6, 12))}
    rng = np.random.default_rng(12)
    misses = 0
    for _ in range(200):
        encoding = np.array([rng.integers(0, 6 - i) for i in range(6)], dtype=float)
        if round(f.noise_free(encoding), 9) not in oracle:
            misses += 1
    report(
        12,
        "SimpleTSP decode soundness against the exhaustive oracle",
        misses == 0,
        f"200 random encodings, {misses} outside the enumerated tour set (|oracle|={len(oracle)})",
        started,
        1.0,
    )
