import csv
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from zenopt import (
    AnnealSchedule,
    CapacityError,
    ConstrainedBinaryProblem,
    Constraint,
    DEPHASE,
    FunctionalCircuit,
    InputError,
    LayerParams,
    Multipliers,
    OptimizerConfig,
    QAOA,
    ZENO,
    anneal,
    build_circuit,
    cargo_instance,
    circuit_stats,
    enumerate_assignments,
    lagrange_sweep,
    optimize,
    ordering_study,
    run_assignment,
    run_family_sweep,
    sample,
    sampled_metrics,
    state_visit_histogram,
    zeno_demo_rows,
)
from zenopt.cli import FAMILY_CSV_COLUMNS, build_parser, main, parse_assignment
from zenopt.harness import SWEEP_CONFIG
from zenopt.problem import save_problem, solution_masks


def tiny():
    # 1 cargo of weight 1, 1 position: 1 variable, 3 constraints, 27 rows
    return cargo_instance([1], 1, 1)


def cargo():
    return cargo_instance([1, 2, 3], 2, 3)


def test_enumerate_assignments_single():
    assert enumerate_assignments(1) == [(QAOA,), (DEPHASE,), (ZENO,)]


def test_enumerate_assignments_six():
    rows = enumerate_assignments(6)
    assert len(rows) == 729
    assert rows[0] == (QAOA,) * 6
    assert rows[-1] == (ZENO,) * 6
    rank = {QAOA: 0, DEPHASE: 1, ZENO: 2}
    keys = [[rank[k] for k in row] for row in rows]
    assert keys == sorted(keys)


def test_enumerate_assignments_capacity():
    with pytest.raises(CapacityError):
        enumerate_assignments(9)


def test_enumerate_assignments_needs_an_integer_count():
    for n in (-1, 2.5, True):
        with pytest.raises(InputError, match="^n_constraints must be"):
            enumerate_assignments(n)
    assert enumerate_assignments(np.int64(1)) == [(QAOA,), (DEPHASE,), (ZENO,)]


@pytest.mark.parametrize("workers", [-3, 0, 2.5, True])
def test_family_sweep_rejects_a_bad_worker_count(workers):
    mult, config = Multipliers.uniform(3, 3.0), OptimizerConfig(max_iters=2)
    with pytest.raises(InputError, match="^workers must be"):
        run_family_sweep(tiny(), mult, config, workers=workers)
    assert run_family_sweep(tiny(), mult, config, workers=np.int64(1))[0].assignment == (QAOA,) * 3


@pytest.mark.parametrize("index", [610, 634])
def test_family_rows_survive_annihilated_search_points(index):
    # Z,D,D,D,Z,D and Z,D,Z,D,D,D: Nelder-Mead reaches angles at which a Zeno
    # projection annihilates the state; the row must still come back whole.
    assignment = enumerate_assignments(6)[index]
    config = OptimizerConfig(max_iters=40, seed=index)
    row = run_assignment(cargo(), assignment, Multipliers.uniform(6, 13), config)
    assert row.error == ""
    assert math.isfinite(row.expected_cost)
    assert 0.0 <= row.p_optimal <= row.p_feasible <= 1.0
    assert 0.0 < row.survival_prob <= 1.0


def test_sweep_row_past_capacity_keeps_its_stats():
    # 20 cargo variables, all-QAOA: 33 QUBO bits, past MAX_QUBITS for the
    # functional search, while the gate circuit still builds and counts.
    weights = [1, 2, 3, 4, 5]
    problem = cargo_instance(weights, 4, sum(weights) // 2 + 4)
    assignment = (QAOA,) * problem.n_constraints
    mult = Multipliers.uniform(problem.n_constraints, 13)
    row = run_assignment(problem, assignment, mult, SWEEP_CONFIG)
    assert row.stats == circuit_stats(build_circuit(problem, assignment, mult, SWEEP_CONFIG.init_params))
    assert row.stats.n_qubits == 33
    assert row.error.startswith("CapacityError: the compiled model has 33 bits"), row.error
    assert math.isnan(row.expected_cost)


def test_family_sweep_small_problem():
    problem = tiny()
    mult = Multipliers.uniform(3, 3.0)
    config = OptimizerConfig(max_iters=8, seed=100)
    rows = run_family_sweep(problem, mult, config)
    assert len(rows) == 27
    for row in rows:
        if not row.error:
            assert 0.0 <= row.p_feasible <= 1.0 + 1e-9
            assert 0.0 <= row.survival_prob <= 1.0 + 1e-9
            assert row.stats is not None


def test_family_sweep_rows_reproduce_bit_exactly():
    problem = tiny()
    mult = Multipliers.uniform(3, 3.0)
    config = OptimizerConfig(max_iters=8, seed=100)
    rows = run_family_sweep(problem, mult, config)
    assignments = enumerate_assignments(3)
    for index in (0, 5, 13, 26):
        from dataclasses import replace

        rerun = run_assignment(
            problem, assignments[index], mult, replace(config, seed=config.seed + index)
        )
        assert rerun.expected_cost == rows[index].expected_cost
        assert rerun.p_feasible == rows[index].p_feasible
        assert rerun.stats == rows[index].stats


def test_family_sweep_parallel_matches_serial():
    problem = tiny()
    mult = Multipliers.uniform(3, 3.0)
    config = OptimizerConfig(max_iters=5, seed=7)
    serial = run_family_sweep(problem, mult, config)
    parallel = run_family_sweep(problem, mult, config, workers=2)
    for a, b in zip(serial, parallel):
        assert a.assignment == b.assignment
        assert a.expected_cost == b.expected_cost or (
            math.isnan(a.expected_cost) and math.isnan(b.expected_cost)
        )


def test_lagrange_sweep_shapes_and_validation():
    problem = tiny()
    config = OptimizerConfig(max_iters=5, seed=0)
    rows = lagrange_sweep(problem, (QAOA,) * 3, [2.0], config)
    assert len(rows) == 1 and rows[0][0] == 2.0
    with pytest.raises(InputError):
        lagrange_sweep(problem, (QAOA,) * 3, [9.0, 5.0], config)
    with pytest.raises(InputError):
        lagrange_sweep(problem, (QAOA,) * 3, [-1.0, 2.0], config)


def test_histogram_uniform_at_zero_angles():
    problem = cargo()
    mult = Multipliers.uniform(6, 13)
    result = state_visit_histogram(
        problem, (QAOA,) * 6, mult, LayerParams((0.0,), (0.0,))
    )
    assert result.support_size == 64
    values = np.array(list(result.probabilities.values()))
    assert np.allclose(values, 1 / 64)
    assert abs(values.sum() - 1.0) < 1e-9


def test_histogram_zeno_support():
    problem = cargo()
    mult = Multipliers.uniform(6, 13)
    result = state_visit_histogram(
        problem, (ZENO,) + (QAOA,) * 5, mult, LayerParams((0.0,), (0.0,))
    )
    assert result.support_size == 12
    assert abs(sum(result.probabilities.values()) - 1.0) < 1e-9


def test_ordering_study_rows_and_validation():
    problem = cargo()
    mult = Multipliers.uniform(6, 13)
    config = OptimizerConfig(max_iters=5, seed=0)
    assignment = (DEPHASE, ZENO, DEPHASE, ZENO, QAOA, QAOA)
    rows = ordering_study(problem, assignment, mult, config)
    assert set(rows) == {"natural", "zeno_first", "dephase_first"}
    with pytest.raises(InputError):
        ordering_study(problem, (QAOA,) * 6, mult, config)


def test_zeno_demo_rows():
    rows = zeno_demo_rows([1, 10, 200])
    assert [r["n"] for r in rows] == [1, 10, 200]
    assert abs(rows[1]["survival_empirical"] - np.cos(np.pi / 20) ** 20) < 1e-10
    with pytest.raises(InputError):
        zeno_demo_rows([])


@pytest.mark.parametrize("n", [1.5, 2.0, 0, -3, True, "2"])
def test_zeno_demo_rows_reject_non_integer_and_non_positive_counts(n):
    with pytest.raises(InputError, match="measurement count must be"):
        zeno_demo_rows([1, n])


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_zeno_demo_rows_reject_non_finite_time(t):
    with pytest.raises(InputError, match=f"t must be finite, got {t}"):
        zeno_demo_rows([1, 2], t=t)


def test_sampled_metrics_tracks_exact():
    problem = cargo()
    mult = Multipliers.uniform(6, 13)
    params = LayerParams((0.1,), (0.2,))
    from zenopt import evaluate_params

    exact = evaluate_params(problem, (QAOA,) * 6, mult, params)
    noisy = sampled_metrics(problem, (QAOA,) * 6, mult, params, shots=200000, seed=5)
    assert abs(noisy.p_feasible - exact.p_feasible) < 0.01
    assert abs(noisy.expected_cost - exact.expected_cost) < 5.0


@pytest.mark.parametrize("assignment", ["QAOA,QAOA,QAOA,QAOA,QAOA,QAOA", "ZENO,QAOA,QAOA,QAOA,QAOA,QAOA",
                                        "DEPHASE,ZENO,DEPHASE,ZENO,QAOA,QAOA"])
def test_sampled_metrics_match_the_counts_read_one_shot_at_a_time(assignment):
    """The shot path is ``FunctionalCircuit.metrics`` of the frequencies: it
    equals the metrics summed shot string by shot string over the same counts."""
    problem, mult, shots = cargo(), Multipliers.uniform(6, 13), 5000
    assignment = parse_assignment(assignment)
    params = LayerParams((0.07, 0.11), (0.5, 0.9), 2)
    circuit = FunctionalCircuit(problem, assignment, mult)
    state = circuit.run(params)
    feasible, optimal = solution_masks(problem)
    dec_mask = (1 << problem.n_vars) - 1
    cost = feas = opt = 0.0
    for string, count in sample(state, shots, 11).items():
        index = int(string, 2)
        weight = count / shots
        cost += weight * float(circuit.cost_table[index])
        feas += weight * feasible[index & dec_mask]
        opt += weight * optimal[index & dec_mask]
    got = sampled_metrics(problem, assignment, mult, params, shots, seed=11)
    for value, expected in zip(got, (cost, feas, opt, state.survival_prob)):
        assert math.isclose(value, expected, rel_tol=1e-12, abs_tol=1e-12), (got, expected)


@pytest.fixture
def cargo_json(tmp_path):
    path = tmp_path / "cargo.json"
    save_problem(cargo(), str(path))
    return str(path)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_cli_solve_writes_trace(cargo_json, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(
        [
            "solve", "--problem", cargo_json,
            "--assign", "ZENO,QAOA,QAOA,QAOA,QAOA,QAOA",
            "--lambda", "13", "--iters", "10", "--seed", "3", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = _csv_rows(out)
    assert 1 <= len(rows) <= 10
    assert set(rows[0]) == {
        "iter", "gamma_0", "beta_0", "expected_cost", "p_feasible", "p_optimal", "survival_prob"
    }
    assert "best gamma" in capsys.readouterr().out


def test_cli_solve_shots_prints_sampled_metrics_at_the_best_params(cargo_json, tmp_path, capsys):
    argv = ["solve", "--problem", cargo_json, "--assign", WEIGHT_ZENO, "--lambda", "13",
            "--iters", "10", "--seed", "3"]
    assert main([*argv, "--out", str(tmp_path / "exact.csv")]) == 0
    exact = capsys.readouterr().out
    assert main([*argv, "--shots", "2000", "--out", str(tmp_path / "shots.csv")]) == 0
    printed = capsys.readouterr().out
    assert (tmp_path / "shots.csv").read_bytes() == (tmp_path / "exact.csv").read_bytes()
    assignment, mult = parse_assignment(WEIGHT_ZENO), Multipliers.uniform(6, 13)
    config = OptimizerConfig(max_iters=10, seed=3, init_params=LayerParams.initial(1, 1))
    best = optimize(cargo(), assignment, mult, config).best_params
    sampled = sampled_metrics(cargo(), assignment, mult, best, 2000, 3)
    metrics = (f"cost={sampled.expected_cost:.6f} p_feasible={sampled.p_feasible:.6f} "
               f"p_optimal={sampled.p_optimal:.6f} survival={sampled.survival_prob:.6f}")
    assert printed.startswith(exact.split(" cost=")[0]) and printed.rstrip().endswith(metrics)
    assert printed != exact


@pytest.mark.parametrize(
    "argv, iters",
    [
        (["solve", "--assign", "QAOA"], OptimizerConfig().max_iters),
        (["sweep-lagrange", "--assign", "QAOA", "--lambdas", "1"], OptimizerConfig().max_iters),
        (["ordering", "--assign", "QAOA"], OptimizerConfig().max_iters),
        (["sweep-family"], SWEEP_CONFIG.max_iters),
    ],
    ids=["solve", "sweep-lagrange", "ordering", "sweep-family"],
)
def test_cli_iters_default_comes_from_the_library(argv, iters):
    args = build_parser().parse_args([*argv, "--problem", "p.json", "--out", "x.csv"])
    assert args.iters == iters


@pytest.mark.parametrize(
    "argv, study",
    [
        (["sweep-family"], run_family_sweep),
        (["sweep-lagrange", "--assign", "QAOA", "--lambdas", "1"], lagrange_sweep),
        (["ordering", "--assign", "QAOA"], ordering_study),
    ],
    ids=["sweep-family", "sweep-lagrange", "ordering"],
)
def test_cli_study_iters_default_is_the_library_default(argv, study):
    args = build_parser().parse_args([*argv, "--problem", "p.json", "--out", "x.csv"])
    assert args.iters == inspect.signature(study).parameters["config"].default.max_iters


def test_cli_family_sweep_csv_columns(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    save_problem(tiny(), str(path))
    out = tmp_path / "family.csv"
    rc = main(
        ["sweep-family", "--problem", str(path), "--iters", "4", "--out", str(out)]
    )
    assert rc == 0
    with open(out) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == FAMILY_CSV_COLUMNS
    assert len(rows) == 27


def test_cli_lagrange_and_ordering(cargo_json, tmp_path):
    lag = tmp_path / "lag.csv"
    rc = main(
        [
            "sweep-lagrange", "--problem", cargo_json,
            "--assign", "QAOA,QAOA,QAOA,QAOA,QAOA,QAOA",
            "--lambdas", "1,5", "--iters", "4", "--out", str(lag),
        ]
    )
    assert rc == 0
    assert len(_csv_rows(lag)) == 2

    order = tmp_path / "ord.csv"
    rc = main(
        [
            "ordering", "--problem", cargo_json,
            "--assign", "DEPHASE,ZENO,DEPHASE,ZENO,QAOA,QAOA",
            "--iters", "4", "--out", str(order),
        ]
    )
    assert rc == 0
    assert len(_csv_rows(order)) == 3


def test_cli_histogram_zeno_demo_sa(cargo_json, tmp_path):
    hist = tmp_path / "hist.csv"
    rc = main(
        [
            "histogram", "--problem", cargo_json,
            "--assign", "ZENO,QAOA,QAOA,QAOA,QAOA,QAOA",
            "--gamma", "0", "--beta", "0", "--out", str(hist),
        ]
    )
    assert rc == 0
    assert len(_csv_rows(hist)) == 64

    zeno = tmp_path / "zeno.csv"
    assert main(["zeno-demo", "--n-list", "1,2,4", "--out", str(zeno)]) == 0
    assert len(_csv_rows(zeno)) == 3

    sa = tmp_path / "sa.csv"
    rc = main(
        ["baseline-sa", "--problem", cargo_json, "--steps", "50", "--seed", "1", "--out", str(sa)]
    )
    assert rc == 0
    rows = _csv_rows(sa)
    assert len(rows) == 50
    assert set(rows[0]) == {"step", "state", "cost", "accepted"}


WEIGHT_ZENO = "ZENO,QAOA,QAOA,QAOA,QAOA,QAOA"
MIXED = "DEPHASE,ZENO,DEPHASE,ZENO,QAOA,QAOA"
ALL_QAOA = "QAOA,QAOA,QAOA,QAOA,QAOA,QAOA"
_METRIC_COLUMNS = ["expected_cost", "p_feasible", "p_optimal", "survival"]


def _config(p=1, q=1, iters=4, seed=0):
    return OptimizerConfig(max_iters=iters, seed=seed, init_params=LayerParams.initial(p, q))


def _solve_rows(problem):
    trace = optimize(problem, parse_assignment(WEIGHT_ZENO), Multipliers.uniform(6, 13), _config(2, 2, 10, 3))
    return [[r.iteration, *r.gamma, *r.beta, r.expected_cost, r.p_feasible, r.p_optimal, r.survival_prob]
            for r in trace.records]


def _family_rows(problem):
    rows = run_family_sweep(problem, Multipliers.uniform(3, 2), _config())
    return [[",".join(r.assignment), *astuple(r.stats), r.expected_cost, r.p_feasible, r.p_optimal,
             r.survival_prob, r.error] for r in rows]


def _lagrange_rows(problem):
    rows = lagrange_sweep(problem, parse_assignment(ALL_QAOA), [1, 5], _config())
    return [[lam, *res] for lam, res in rows]


def _ordering_rows(problem):
    rows = ordering_study(problem, parse_assignment(MIXED), Multipliers.uniform(6, 13), _config())
    return [[ordering, *res] for ordering, res in rows.items()]


def _histogram_rows(problem):
    params = LayerParams((0.3,) * 2, (0.7,) * 2, 2)
    result = state_visit_histogram(problem, parse_assignment(WEIGHT_ZENO), Multipliers.uniform(6, 13), params)
    return sorted(result.probabilities.items())


def _zeno_rows(problem):
    return [list(row.values()) for row in zeno_demo_rows([1, 2, 4, 8])]


def _sa_rows(problem):
    trace = anneal(problem, Multipliers.uniform(6, 13), AnnealSchedule(10.0, 0.05, 60, 2)).visit_trace
    return [[r.step, r.state, r.cost, int(r.accepted)] for r in trace]


@pytest.mark.parametrize("problem, argv, header, library_rows", [
    (cargo, ["solve", "--assign", WEIGHT_ZENO, "--lambda", "13", "--p", "2", "--q", "2",
             "--iters", "10", "--seed", "3"],
     ["iter", "gamma_0", "gamma_1", "beta_0", "beta_1", "expected_cost", "p_feasible", "p_optimal",
      "survival_prob"], _solve_rows),
    (tiny, ["sweep-family", "--lambda", "2", "--iters", "4"],
     ["assignment", "non_local", "qubits", "clbits", "depth", "width", "size", "params", "factors",
      *_METRIC_COLUMNS, "wall_time_s", "error"], _family_rows),
    (cargo, ["sweep-lagrange", "--assign", ALL_QAOA, "--lambdas", "1,5", "--iters", "4"],
     ["lambda", *_METRIC_COLUMNS], _lagrange_rows),
    (cargo, ["ordering", "--assign", MIXED, "--lambda", "13", "--iters", "4"],
     ["ordering", *_METRIC_COLUMNS], _ordering_rows),
    (cargo, ["histogram", "--assign", WEIGHT_ZENO, "--lambda", "13", "--gamma", "0.3", "--beta", "0.7",
             "--p", "2", "--q", "2"],
     ["state", "probability"], _histogram_rows),
    (None, ["zeno-demo", "--n-list", "1,2,4,8"],
     ["n", "survival_empirical", "survival_analytic", "limit_error"], _zeno_rows),
    (cargo, ["baseline-sa", "--lambda", "13", "--steps", "60", "--seed", "2"],
     ["step", "state", "cost", "accepted"], _sa_rows),
], ids=["solve", "sweep-family", "sweep-lagrange", "ordering", "histogram", "zeno-demo", "baseline-sa"])
def test_cli_tables_write_the_library_results(problem, argv, header, library_rows, tmp_path):
    """Each command's CSV is its exact header, then the rows its library call
    returns, in order, each value as Python writes it; the family sweep's
    wall_time_s column is left out of the row comparison."""
    path, out = tmp_path / "problem.json", tmp_path / "table.csv"
    if problem is not None:
        save_problem(problem(), str(path))
        argv = [*argv, "--problem", str(path)]
    assert main([*argv, "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        written_header, *rows = csv.reader(fh)
    assert written_header == header
    if "wall_time_s" in header:
        wall = header.index("wall_time_s")
        rows = [row[:wall] + row[wall + 1:] for row in rows]
    expected = [[str(v) for v in row] for row in library_rows(problem() if problem else None)]
    assert rows == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["ordering", "--assign", MIXED, "--ordering", "zeno_first"],
        ["histogram", "--assign", WEIGHT_ZENO, "--seed", "3"],
        ["histogram", "--assign", WEIGHT_ZENO, "--iters", "9"],
        ["sweep-lagrange", "--assign", MIXED, "--lambdas", "1,5", "--lambda", "13"],
        ["sweep-lagrange", "--assign", MIXED, "--lambdas", "1,5", "--alpha", "2"],
    ],
    ids=["ordering--ordering", "histogram--seed", "histogram--iters",
         "sweep-lagrange--lambda", "sweep-lagrange--alpha"],
)
def test_cli_rejects_flags_the_command_does_not_read(argv, cargo_json, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--problem", cargo_json, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_cli_rejects_malformed_lambda_list(cargo_json, tmp_path, capsys):
    argv = ["sweep-lagrange", "--problem", cargo_json, "--assign", MIXED, "--lambdas", "1,x"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "argument --lambdas: '1,x' is not a comma list" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_cli_rejects_malformed_measurement_count_list(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeno-demo", "--n-list", "1,,2", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "argument --n-list: '1,,2' is not a comma list" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--assign", MIXED, "--shots", "-5"], "argument --shots: '-5' is not an integer >= 0"),
        (["solve", "--assign", MIXED, "--shots", "x"], "argument --shots: 'x' is not an integer >= 0"),
        (["sweep-family", "--workers", "-2"], "argument --workers: '-2' is not an integer >= 1"),
        (["sweep-family", "--workers", "0"], "argument --workers: '0' is not an integer >= 1"),
        (["solve", "--assign", MIXED, "--seed", "-1"], "argument --seed: '-1' is not an integer >= 0"),
        (["baseline-sa", "--seed", "-1"], "argument --seed: '-1' is not an integer >= 0"),
        (["sweep-family", "--seed", "-1"], "argument --seed: '-1' is not an integer >= 0"),
    ],
)
def test_cli_rejects_bad_counts_before_any_work(argv, message, cargo_json, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--problem", cargo_json, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--assign", MIXED, "--lambda", "nan"], "lambda must be finite, got nan"),
        (["sweep-lagrange", "--assign", MIXED, "--lambdas", "1,nan", "--out", "x.csv"],
         "lambda must be finite, got nan"),
        (["solve", "--assign", "DEPHASE,QAOA,QAOA,QAOA,QAOA,QAOA", "--alpha", "inf"],
         "alpha must be finite, got inf"),
        (["histogram", "--assign", MIXED, "--gamma", "nan", "--out", "x.csv"],
         "gamma must be finite, got nan"),
        (["histogram", "--assign", MIXED, "--beta=-inf", "--out", "x.csv"],
         "beta must be finite, got -inf"),
        (["zeno-demo", "--n-list", "1,2", "--t", "nan", "--out", "x.csv"], "t must be finite, got nan"),
        (["baseline-sa", "--t-start", "inf", "--out", "x.csv"], "t_start must be finite, got inf"),
        (["baseline-sa", "--t-end", "nan", "--out", "x.csv"], "t_end must be finite, got nan"),
    ],
    ids=["solve--lambda", "sweep-lagrange--lambdas", "solve--alpha", "histogram--gamma",
         "histogram--beta", "zeno-demo--t", "baseline-sa--t-start", "baseline-sa--t-end"],
)
def test_cli_rejects_non_finite_values(argv, message, cargo_json, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    problem = [] if argv[0] == "zeno-demo" else ["--problem", cargo_json]
    assert main([*argv, *problem]) == 2
    assert f"input error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_cli_rejects_non_integer_problem_numbers(tmp_path, capsys):
    path = tmp_path / "fractional.json"
    path.write_text('{"objective": [1.5, true], "constraints": [{"coeffs": [2.9, 1], "bound": 2.7}]}')
    assert main(["solve", "--problem", str(path), "--assign", "QAOA"]) == 2
    assert "objective entry 0 must be a JSON integer, got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"objective": [1, 1, 1], "constraints": [{"coeffs": [2**62] * 3, "bound": 2**62, "label": "w"}]},
     f"constraint 'w' coefficient sum is {3 * 2**62}, more than 2^63 - 1"),
    ({"objective": [10**30], "constraints": [{"coeffs": [1], "bound": 1}]},
     f"the sum of |objective entries| is {10**30}, more than 2^63 - 1"),
    ({"objective": [], "constraints": []}, "n_vars must be >= 1, got 0"),
], ids=["coefficient-sum", "objective-sum", "no-variables"])
def test_cli_rejects_problems_the_enumeration_cannot_hold(doc, message, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--problem", str(path), "--assign", "ZENO"]) == 2
    assert f"input error: {message}" in capsys.readouterr().err


def test_cli_oversized_model_exits_3(tmp_path, capsys):
    # Bound 2^40 compiles to 44 QUBO bits; the check runs before any table exists.
    problem = ConstrainedBinaryProblem(3, (1, 1, 1), (Constraint((1, 1, 1), 1 << 40, "huge"),))
    path = tmp_path / "huge.json"
    save_problem(problem, str(path))
    assert main(["solve", "--problem", str(path), "--assign", "QAOA"]) == 3
    assert "capacity error: the compiled model has 44 bits" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path):
    assert main(["solve", "--problem", "missing.json", "--assign", "QAOA"]) == 2

    # a 9-constraint problem exceeds the family cap -> capacity error
    big = ConstrainedBinaryProblem(
        2, (1, 1), tuple(Constraint((1, 1), 1, f"c{i}") for i in range(9))
    )
    path = tmp_path / "big.json"
    save_problem(big, str(path))
    rc = main(["sweep-family", "--problem", str(path), "--out", str(tmp_path / "x.csv")])
    assert rc == 3

    # malformed assignment is an input error
    path2 = tmp_path / "tiny.json"
    save_problem(tiny(), str(path2))
    rc = main(
        ["solve", "--problem", str(path2), "--assign", "QAOA,BOGUS,QAOA"]
    )
    assert rc == 2

    # a directory where a file is read or written is an input error
    assert main(["solve", "--problem", str(tmp_path), "--assign", "QAOA"]) == 2
    argv = ["solve", "--problem", str(path2), "--assign", "QAOA,QAOA,QAOA", "--iters", "2"]
    assert main([*argv, "--out", str(tmp_path)]) == 2


def test_python_m_zenopt_rejects_a_problem_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "zenopt", "solve", "--problem", str(path), "--assign", "QAOA"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"input error: problem file {str(path)!r} is not UTF-8 text"), proc.stderr


def test_cli_other_library_errors_exit_2(tmp_path, capsys):
    # RX(pi) maps the one state with x0 + x1 <= 0 onto |11>, so the Zeno
    # projection keeps nothing and raises EmptySubspaceError.
    path = tmp_path / "tight.json"
    save_problem(ConstrainedBinaryProblem(2, (1, 1), (Constraint((1, 1), 0, "c"),)), str(path))
    argv = ["histogram", "--problem", str(path), "--assign", "ZENO", "--gamma", "0",
            "--beta", str(math.pi), "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: Zeno projection of constraint 0 ('c')")
    assert not (tmp_path / "x.csv").exists()

