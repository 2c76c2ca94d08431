"""Command-line front end: validate, qubo, solve, sweep, report.

Exit codes: 0 success, 2 usage or validation problem, 3 I/O failure.  An
infeasible solver outcome is data, not an error, and exits 0.  Progress and
informational notes go to stderr; stdout stays machine-parseable.

The instance path argument also accepts the bundled layout names
``layout-1`` and ``layout-2`` directly.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .instance import Instance, bundled_layouts, parse_instance
from .metrics import (
    _fmt,
    build_report,
    plot_tables,
    records_from_csv,
    records_to_csv,
    run_sweep,
    summary_table,
)
from .oracle import brute_force_min, shortest_path_opt
from .qubo import ising_document, qubo_document
from .vqe import VqeConfig, cable_block, check_kappa, solve_cables

__all__ = ["main", "main_entry"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

_JOBS_ENV = "QCROUTE_JOBS"


def _load_instance(path: str) -> Instance:
    for layout in bundled_layouts():
        if layout.name == path:
            return layout
    with open(path, encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _solver_config(args) -> VqeConfig:
    return VqeConfig(shots=args.shots, reps=args.reps, maxiter=args.maxiter, seed=args.seed)


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--shots", type=int, default=1000, help="measurement shots (0 = exact)")
    parser.add_argument("--reps", type=int, default=1, help="ansatz repetition depth")
    parser.add_argument("--maxiter", type=int, default=100, help="objective evaluation budget")


def cmd_validate(args) -> int:
    instance = _load_instance(args.path)
    qubits = instance.block_dim(instance.cables[0])
    print(
        f"cables={instance.num_cables} segments={instance.num_segments} "
        f"nodes={instance.num_nodes} qubits_per_cable={qubits}"
    )
    return EXIT_OK


def cmd_qubo(args) -> int:
    instance = _load_instance(args.path)
    cable = instance.cable(args.cable)
    block = cable_block(instance, cable, args.kappa)
    document = ising_document(block) if args.ising else qubo_document(block)
    text = json.dumps(document, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    eta = ",".join(_fmt(e) for e in block.penalties.as_vector())
    print(
        f"cable={cable.id} dim={block.dim} offset={_fmt(block.offset)} "
        f"eta=({eta}) kappa={_fmt(block.penalties.kappa)}",
        file=sys.stderr,
    )
    return EXIT_OK


def _result_line(cable_id: str, feasible: bool, route, objective, energy: float) -> str:
    route_text = "-".join(route) if route else "-"
    objective_text = "-" if objective is None else _fmt(objective)
    return (
        f"cable={cable_id} feasible={'true' if feasible else 'false'} "
        f"route={route_text} objective={objective_text} energy={_fmt(energy)}"
    )


def _classical_outcome(method: str, instance: Instance, cable, kappa: float) -> tuple:
    """(feasible, route, objective, energy) of one cable by shortest paths or brute force."""
    if method == "dijkstra":
        solution = shortest_path_opt(instance, cable)
        return True, solution.route, solution.objective, solution.energy
    solution = brute_force_min(cable_block(instance, cable, kappa), instance)
    feasible = bool(solution.route)
    return feasible, solution.route, solution.objective if feasible else None, solution.energy


def cmd_solve(args) -> int:
    instance = _load_instance(args.path)
    # Every method checks the solver flags and the kappa before the first
    # cable, also those it does not use; only the VQE draws shots.
    config = _solver_config(args)
    check_kappa(instance, args.kappa, config.shots if args.method == "vqe" else 0)
    if args.cable:
        indices = [instance.cables.index(instance.cable(args.cable))]
    else:
        indices = list(range(instance.num_cables))
    if args.method == "vqe":
        outcomes = [
            (r.feasibility.feasible_path, r.feasibility.decoded_route or (), r.objective, r.energy)
            for r in solve_cables(instance, indices, args.kappa, config)
        ]
    else:
        outcomes = [_classical_outcome(args.method, instance, instance.cables[index], args.kappa) for index in indices]

    for index, (feasible, route, objective, energy) in zip(indices, outcomes):
        print(_result_line(instance.cables[index].id, feasible, route, objective, energy))
    if not args.cable:
        total_energy = sum(energy for _, _, _, energy in outcomes)
        all_feasible = all(feasible for feasible, _, _, _ in outcomes)
        print(f"total_energy={_fmt(total_energy)} all_feasible={'true' if all_feasible else 'false'}")
    return EXIT_OK


def _sweep_jobs(args) -> int:
    """``--jobs`` if given, else the environment variable, else 1."""
    if args.jobs is not None:
        return args.jobs
    text = os.environ.get(_JOBS_ENV, "1")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"{_JOBS_ENV} must be a positive integer, got {text!r}")
    return int(text)


def _parse_kappas(text: str) -> list[float]:
    """The comma-separated ``--kappas`` list; an empty or non-numeric entry is an error."""
    kappas = []
    for entry in text.split(","):
        try:
            kappas.append(float(entry))
        except ValueError:
            raise ValueError(f"--kappas entry {entry!r} is not a number") from None
    return kappas


def cmd_sweep(args) -> int:
    instance = _load_instance(args.path)
    kappas = _parse_kappas(args.kappas)
    config = _solver_config(args)
    jobs = _sweep_jobs(args)
    if not args.out:  # fail before the grid runs, not after
        raise FileNotFoundError(errno.ENOENT, "empty output file name", args.out)
    out_dir = os.path.dirname(args.out) or os.curdir
    if not os.path.isdir(out_dir):
        raise FileNotFoundError(errno.ENOENT, "output directory does not exist", out_dir)
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)

    def progress(kappa: float, seed: int) -> None:
        print(f"sweep kappa={_fmt(kappa)} seed={seed} done", file=sys.stderr)

    report = run_sweep(instance, kappas, args.seeds, config, jobs=jobs, progress=progress)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(records_to_csv(report.records))
    sys.stdout.write(summary_table(report))
    return EXIT_OK


def cmd_report(args) -> int:
    with open(args.path, encoding="utf-8", newline="") as handle:  # keeps a quoted "\r"
        records = records_from_csv(handle.read())
    if not records:
        raise ValueError("results CSV has no data rows")
    layouts: dict[str, list] = {}
    for record in records:
        layouts.setdefault(record.layout, []).append(record)
    for layout_records in layouts.values():
        report = build_report(layout_records)
        sys.stdout.write(summary_table(report))
        sys.stdout.write("\n")
        sys.stdout.write(plot_tables(report))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcroute",
        description="Compile cable-routing instances to per-cable QUBOs and solve them "
        "with a sampling VQE, classical brute force, or shortest paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check an instance document")
    p_validate.add_argument("path", help="instance file or bundled layout name")
    p_validate.set_defaults(fn=cmd_validate)

    p_qubo = sub.add_parser("qubo", help="export one cable block")
    p_qubo.add_argument("path")
    p_qubo.add_argument("--cable", required=True, help="cable id")
    p_qubo.add_argument("--kappa", type=float, default=1.0)
    p_qubo.add_argument("--ising", action="store_true", help="export the spin form")
    p_qubo.add_argument("--out", help="write the document here instead of stdout")
    p_qubo.set_defaults(fn=cmd_qubo)

    p_solve = sub.add_parser("solve", help="route cables")
    p_solve.add_argument("path")
    p_solve.add_argument("--cable", help="solve a single cable block")
    p_solve.add_argument("--method", choices=("vqe", "brute", "dijkstra"), default="vqe")
    p_solve.add_argument("--kappa", type=float, default=1.0, help="penalty scaling factor")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(fn=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run the (kappa x seed) benchmark grid")
    p_sweep.add_argument("path")
    p_sweep.add_argument("--kappas", default="0.25,0.5,1,2,4", help="comma-separated scales")
    p_sweep.add_argument("--seeds", type=int, default=30, help="number of seeds")
    p_sweep.add_argument("--out", default="results.csv", help="results CSV path")
    p_sweep.add_argument(
        "--jobs", type=int, help=f"parallel worker processes, at least 1 (default: env {_JOBS_ENV} or 1)"
    )
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_report = sub.add_parser("report", help="recompute tables from a results CSV")
    p_report.add_argument("path")
    p_report.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ValueError as exc:  # InstanceError included: validation and usage
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # numpy refuses an oversized array before allocating it
        print(f"error: {exc}; reduce --reps, --shots, --seeds or the block dimension", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
