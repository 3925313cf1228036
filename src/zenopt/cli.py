"""Command-line front end for the experiment harness, and the one writer of
its tables: each command's CSV header and row layout live in that command.

Exit codes: 0 success, 2 input error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import sys
from dataclasses import astuple, fields

from .annealing import AnnealSchedule, anneal
from .builder import CircuitStats, LayerParams, ORDERINGS
from .errors import CapacityError, InputError, ZenoptError
from .harness import (
    SWEEP_CONFIG,
    lagrange_sweep,
    ordering_study,
    run_family_sweep,
    sampled_metrics,
    state_visit_histogram,
    zeno_demo_rows,
)
from .optimizer import OptimizerConfig, optimize
from .problem import Multipliers, check_kinds, default_multipliers, load_problem

FAMILY_CSV_COLUMNS = [
    "assignment", "non_local", "qubits", "clbits", "depth", "width", "size",
    "params", "factors", "expected_cost", "p_feasible", "p_optimal",
    "survival", "wall_time_s", "error",
]


def _int_at_least(low: int):
    """argparse type for an integer >= ``low``: anything else is a usage error (exit 2)."""

    def parse(text: str) -> int:
        with contextlib.suppress(ValueError):
            if int(text) >= low:
                return int(text)
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")

    return parse


# Flags shared by several commands.  Each command registers only the flags
# it reads, so argparse rejects the rest instead of ignoring them.
_SHARED_FLAGS = {
    "problem": dict(required=True, help="problem JSON file"),
    "assign": dict(required=True, help="comma list per constraint: QAOA, DEPHASE or ZENO"),
    "lambda": dict(dest="lam", type=float, default=None,
                   help="uniform Lagrange multiplier (default: sum|objective|+1)"),
    "alpha": dict(type=float, default=None, help="dephasing strength (default: same as lambda)"),
    "p": dict(type=int, default=1, help="number of layers"),
    "q": dict(type=int, default=1, help="Zeno measurements per layer"),
    "ordering": dict(choices=ORDERINGS, default="natural"),
    "seed": dict(type=_int_at_least(0), default=0),
    "iters": dict(type=int, default=OptimizerConfig.max_iters, help="optimizer iterations"),
}


def _comma_list(convert):
    """argparse type for a comma list: a malformed item is a usage error (exit 2)."""

    def parse(text: str) -> list:
        try:
            return [convert(item) for item in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a comma list of {convert.__name__} values"
            ) from None

    return parse


def parse_assignment(text: str) -> tuple[str, ...]:
    return check_kinds(part.strip().upper() for part in text.split(","))


def _add_shared(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        sub.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _multipliers(problem, args) -> Multipliers:
    if args.lam is None:
        return default_multipliers(problem, args.alpha)
    return Multipliers.uniform(problem.n_constraints, args.lam, args.alpha)


def _config(args) -> OptimizerConfig:
    init = LayerParams.initial(args.p, args.q)
    return OptimizerConfig(max_iters=args.iters, seed=args.seed, init_params=init)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_solve(args) -> None:
    problem = load_problem(args.problem)
    assignment = parse_assignment(args.assign)
    mult = _multipliers(problem, args)
    trace = optimize(problem, assignment, mult, _config(args), args.ordering)
    if args.out:
        header = ["iter", *(f"gamma_{i}" for i in range(args.p)), *(f"beta_{i}" for i in range(args.p)),
                  "expected_cost", "p_feasible", "p_optimal", "survival_prob"]
        rows = ([rec.iteration, *rec.gamma, *rec.beta, rec.expected_cost, rec.p_feasible, rec.p_optimal,
                 rec.survival_prob] for rec in trace.records)
        _write_csv(args.out, header, rows)
    final = trace.final
    if args.shots:
        final = sampled_metrics(
            problem, assignment, mult, trace.best_params, args.shots, args.seed, args.ordering
        )
    gammas = ",".join(f"{v:.6f}" for v in trace.best_params.gamma)
    betas = ",".join(f"{v:.6f}" for v in trace.best_params.beta)
    print(
        f"best gamma={gammas} beta={betas} "
        f"cost={final.expected_cost:.6f} p_feasible={final.p_feasible:.6f} "
        f"p_optimal={final.p_optimal:.6f} survival={final.survival_prob:.6f}"
    )


def _cmd_sweep_family(args) -> None:
    problem = load_problem(args.problem)
    mult = _multipliers(problem, args)
    rows = run_family_sweep(problem, mult, _config(args), args.ordering, workers=args.workers)
    no_stats = ("",) * len(fields(CircuitStats))
    _write_csv(args.out, FAMILY_CSV_COLUMNS, (
        [",".join(r.assignment), *(astuple(r.stats) if r.stats else no_stats), r.expected_cost,
         r.p_feasible, r.p_optimal, r.survival_prob, r.wall_time, r.error]
        for r in rows
    ))
    failed = sum(1 for r in rows if r.error)
    print(f"{len(rows)} assignments swept, {failed} failed rows -> {args.out}")


def _cmd_sweep_lagrange(args) -> None:
    problem = load_problem(args.problem)
    assignment = parse_assignment(args.assign)
    rows = lagrange_sweep(problem, assignment, args.lambdas, _config(args), args.ordering)
    header = ["lambda", "expected_cost", "p_feasible", "p_optimal", "survival"]
    _write_csv(args.out, header, ([lam, *res] for lam, res in rows))
    print(f"{len(rows)} multiplier values -> {args.out}")


def _cmd_ordering(args) -> None:
    problem = load_problem(args.problem)
    assignment = parse_assignment(args.assign)
    mult = _multipliers(problem, args)
    rows = ordering_study(problem, assignment, mult, _config(args), reoptimize=args.reoptimize)
    header = ["ordering", "expected_cost", "p_feasible", "p_optimal", "survival"]
    _write_csv(args.out, header, ([ordering, *res] for ordering, res in rows.items()))
    values = [res.p_feasible for res in rows.values()]
    print(f"p_feasible spread {max(values) - min(values):.6f} -> {args.out}")


def _cmd_histogram(args) -> None:
    problem = load_problem(args.problem)
    assignment = parse_assignment(args.assign)
    mult = _multipliers(problem, args)
    params = LayerParams((args.gamma,) * args.p, (args.beta,) * args.p, args.q)
    result = state_visit_histogram(problem, assignment, mult, params, args.ordering)
    _write_csv(args.out, ["state", "probability"], sorted(result.probabilities.items()))
    print(f"support {result.support_size} of {1 << problem.n_vars} states -> {args.out}")


def _cmd_zeno_demo(args) -> None:
    rows = zeno_demo_rows(args.n_list, t=args.t)
    header = ["n", "survival_empirical", "survival_analytic", "limit_error"]
    _write_csv(args.out, header, ([row[key] for key in header] for row in rows))
    print(f"{len(rows)} measurement counts -> {args.out}")


def _cmd_baseline_sa(args) -> None:
    problem = load_problem(args.problem)
    mult = _multipliers(problem, args)
    schedule = AnnealSchedule(args.t_start, args.t_end, args.steps, args.seed)
    result = anneal(problem, mult, schedule)
    rows = ([rec.step, rec.state, rec.cost, int(rec.accepted)] for rec in result.visit_trace)
    _write_csv(args.out, ["step", "state", "cost", "accepted"], rows)
    print(f"best state {result.best_state} cost {result.best_cost:.6f} -> {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenopt",
        description="Hybrid QAOA / dephasing / Zeno experiments on constrained binary problems",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # No prefix matching: a flag a command does not read (sweep-lagrange's
    # --lambda) must not be taken for one it does (--lambdas).
    add_command = functools.partial(subs.add_parser, allow_abbrev=False)

    sub = add_command("solve", help="optimize one assignment, dump the trace")
    _add_shared(sub, "problem", "assign", "lambda", "alpha", "p", "q", "ordering", "seed", "iters")
    sub.add_argument("--out", default=None, help="trace CSV path")
    sub.add_argument("--shots", type=_int_at_least(0), default=0,
                     help="re-estimate final metrics from sampled shots (0: no sampling)")
    sub.set_defaults(func=_cmd_solve)

    sub = add_command("sweep-family", help="optimize all 3^n assignments")
    _add_shared(sub, "problem", "lambda", "alpha", "p", "q", "ordering", "seed", "iters")
    sub.set_defaults(iters=SWEEP_CONFIG.max_iters)
    sub.add_argument("--out", required=True)
    sub.add_argument("--workers", type=_int_at_least(1), default=None, help="process pool size")
    sub.set_defaults(func=_cmd_sweep_family)

    sub = add_command("sweep-lagrange", help="optimize across multiplier values")
    _add_shared(sub, "problem", "assign", "p", "q", "ordering", "seed", "iters")
    sub.add_argument("--lambdas", type=_comma_list(float), required=True,
                     help="ascending comma list")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_sweep_lagrange)

    sub = add_command("ordering", help="compare block orderings")
    _add_shared(sub, "problem", "assign", "lambda", "alpha", "p", "q", "seed", "iters")
    sub.add_argument("--out", required=True)
    sub.add_argument("--reoptimize", action="store_true",
                     help="run a separate search per ordering")
    sub.set_defaults(func=_cmd_ordering)

    sub = add_command("histogram", help="decision-state visit probabilities")
    _add_shared(sub, "problem", "assign", "lambda", "alpha", "p", "q", "ordering")
    sub.add_argument("--gamma", type=float, default=0.1)
    sub.add_argument("--beta", type=float, default=0.1)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_histogram)

    sub = add_command("zeno-demo", help="two-level repeated-measurement survival study")
    sub.add_argument("--n-list", type=_comma_list(int), required=True,
                     help="comma list of measurement counts")
    sub.add_argument("--t", type=float, default=1.5707963267948966)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_zeno_demo)

    sub = add_command("baseline-sa", help="simulated-annealing benchmark")
    _add_shared(sub, "problem", "lambda", "alpha", "seed")
    sub.add_argument("--steps", type=int, default=5000)
    sub.add_argument("--t-start", type=float, default=10.0)
    sub.add_argument("--t-end", type=float, default=0.05)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_baseline_sa)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ZenoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
