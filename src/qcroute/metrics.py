"""Feasibility/optimality metrics and the penalty-scaling sweep protocol.

A sweep runs the decomposed solver over the cross product of penalty scales
and seeds, recording one row per (cable, kappa, seed).  Per (cable, kappa) it
aggregates the empirical feasibility probability (fraction of seeds whose
returned bitstring is a single source-terminal path) and statistics of the
relative optimality gap over the feasible runs only.

Infeasible runs have no objective and no gap; those cells stay empty rather
than being coerced to zero, since conflating them with a zero gap would
corrupt the means.  All floating-point record fields are rounded to 12
significant digits at creation so that writing and re-reading the CSV is
lossless and re-aggregation is exact.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from .instance import Instance
from .oracle import shortest_path_opt
from .vqe import VqeConfig, cable_subseed, check_kappa, solve_decomposed

__all__ = [
    "RunRecord",
    "SweepReport",
    "emp_prob",
    "opt_gap_stats",
    "run_sweep",
    "build_report",
    "records_to_csv",
    "records_from_csv",
    "summary_table",
    "plot_tables",
    "CSV_HEADER",
]

CSV_HEADER = "layout,cable_id,kappa,seed,feasible,energy,objective,oracle_objective,opt_gap"


def _round12(x: float) -> float:
    """Round to 12 significant digits; idempotent under CSV round-trips."""
    return float(f"{x:.12g}")


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


@dataclass(frozen=True)
class RunRecord:
    """One (cable, kappa, seed) outcome of the sweep."""

    layout: str
    cable_id: str
    kappa: float
    seed: int
    feasible: bool
    energy: float
    objective: float | None
    oracle_objective: float
    opt_gap: float | None


@dataclass(frozen=True)
class SweepReport:
    """Raw sweep records plus per-(cable, kappa) aggregates.

    ``opt_gap_mean`` and ``opt_gap_quartiles`` hold None where a cell has no
    feasible runs; quartiles are (min, q1, median, q3, max) with the
    median-exclusive convention (the median is left out of both halves when
    the count is odd).
    """

    records: tuple[RunRecord, ...]
    emp_prob: dict[tuple[str, float], float]
    opt_gap_mean: dict[tuple[str, float], float | None]
    opt_gap_quartiles: dict[tuple[str, float], tuple[float, float, float, float, float] | None]


def emp_prob(records: Sequence[RunRecord]) -> float:
    """Fraction of feasible records; all records must share (cable, kappa)."""
    if not records:
        raise ValueError("empty record set")
    keys = {(r.cable_id, r.kappa) for r in records}
    if len(keys) > 1:
        raise ValueError(f"records span multiple (cable, kappa) cells: {sorted(keys)}")
    return sum(1 for r in records if r.feasible) / len(records)


def _median(sorted_values: Sequence[float]) -> float:
    n = len(sorted_values)
    mid = n // 2
    if n % 2:
        return sorted_values[mid]
    return 0.5 * (sorted_values[mid - 1] + sorted_values[mid])


def opt_gap_stats(
    records: Sequence[RunRecord],
) -> tuple[float, tuple[float, float, float, float, float]] | None:
    """Mean and (min, q1, median, q3, max) of gaps over feasible records.

    Returns None when no record is feasible (an empty cell, never zero).
    """
    keys = {(r.cable_id, r.kappa) for r in records}
    if len(keys) > 1:
        raise ValueError(f"records span multiple (cable, kappa) cells: {sorted(keys)}")
    gaps = sorted(r.opt_gap for r in records if r.feasible and r.opt_gap is not None)
    if not gaps:
        return None
    mean = sum(gaps) / len(gaps)
    if len(gaps) == 1:
        quartiles = (gaps[0],) * 5
    else:
        n = len(gaps)
        lower = gaps[: n // 2]
        upper = gaps[(n + 1) // 2 :]
        quartiles = (gaps[0], _median(lower), _median(gaps), _median(upper), gaps[-1])
    return mean, quartiles


def _sweep_cell(args) -> list[RunRecord]:
    instance, kappa, run_index, config, oracle_objectives, workers = args
    assignment = solve_decomposed(
        instance, kappa, replace(config, seed=cable_subseed(config.seed, run_index)), workers
    )
    records = []
    for result in assignment.results:
        oracle_objective = oracle_objectives[result.cable_id]
        feasible = result.feasibility.feasible_path
        objective = _round12(result.objective) if feasible and result.objective is not None else None
        gap = None
        if objective is not None and oracle_objective != 0.0:
            gap = _round12(abs(objective - oracle_objective) / abs(oracle_objective))
        records.append(
            RunRecord(
                layout=instance.name,
                cable_id=result.cable_id,
                kappa=_round12(kappa),
                seed=run_index,
                feasible=feasible,
                energy=_round12(result.energy),
                objective=objective,
                oracle_objective=oracle_objective,
                opt_gap=gap,
            )
        )
    return records


def run_sweep(
    instance: Instance,
    kappas: Sequence[float],
    num_seeds: int,
    config: VqeConfig,
    jobs: int = 1,
    progress: Callable[[float, int], None] | None = None,
) -> SweepReport:
    """Run the full (kappa x seed) grid and aggregate.

    One seed index drives all kappas (common random numbers across scales);
    classical optima are computed once per cable.  Cells are independent and
    may run in up to ``jobs`` parallel processes, never more than there
    are cells; the workers split the usable cores between the cable threads
    of their cells (``vqe.solve_cables``).  Records are reduced in sorted
    order either way, so the report is identical for any job count.
    ``progress`` is called with (kappa, seed) as each cell completes.  A
    kappa that is not positive and finite, scales some cable's penalties or
    block coefficients past the float range, lets ``config.shots`` sampled
    energies overflow their sum, or repeats an earlier one raises
    ValueError naming the entry before the first cell.
    """
    if not kappas:
        raise ValueError("kappas must be nonempty")
    if num_seeds < 1:
        raise ValueError("num_seeds must be positive")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    seen = set()  # kappas as the records key them, at 12 significant digits
    for position, kappa in enumerate(kappas, start=1):
        try:
            check_kappa(instance, float(kappa), config.shots)
        except ValueError as exc:
            raise ValueError(f"kappa entry {position} ({kappa!r}): {exc}") from None
        if _round12(kappa) in seen:
            raise ValueError(f"kappa entry {position} ({kappa!r}) repeats an earlier entry")
        seen.add(_round12(kappa))
    oracle_objectives = {
        c.id: _round12(shortest_path_opt(instance, c).objective) for c in instance.cables
    }
    workers = min(jobs, len(kappas) * num_seeds)  # the pool starts every worker at once
    cells = [
        (instance, float(kappa), run_index, config, oracle_objectives, workers)
        for kappa in kappas
        for run_index in range(num_seeds)
    ]
    chunks = []
    if workers > 1:
        # Imported here: loading multiprocessing would cost every other process about 28 ms.
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    else:
        pool = contextlib.nullcontext()
    with pool:
        for cell, chunk in zip(cells, (pool.map if workers > 1 else map)(_sweep_cell, cells)):
            chunks.append(chunk)
            if progress is not None:
                progress(cell[1], cell[2])
    records = [record for chunk in chunks for record in chunk]
    for record in records:
        if record.objective is not None and record.objective < record.oracle_objective:
            raise AssertionError(
                f"feasible objective {record.objective} below classical optimum "
                f"{record.oracle_objective} for cable {record.cable_id!r}"
            )
    return build_report(records)


def build_report(records: Iterable[RunRecord]) -> SweepReport:
    """Sort records and compute per-(cable, kappa) aggregates; records of
    more than one layout raise ValueError."""
    ordered = tuple(sorted(records, key=lambda r: (r.layout, r.cable_id, r.kappa, r.seed)))
    layouts = sorted({r.layout for r in ordered})
    if len(layouts) > 1:
        raise ValueError(f"records span multiple layouts: {layouts}")
    groups: dict[tuple[str, float], list[RunRecord]] = {}
    for record in ordered:
        groups.setdefault((record.cable_id, record.kappa), []).append(record)
    probs = {key: emp_prob(group) for key, group in groups.items()}
    means: dict[tuple[str, float], float | None] = {}
    quartiles: dict[tuple[str, float], tuple | None] = {}
    for key, group in groups.items():
        stats = opt_gap_stats(group)
        means[key] = None if stats is None else stats[0]
        quartiles[key] = None if stats is None else stats[1]
    return SweepReport(
        records=ordered, emp_prob=probs, opt_gap_mean=means, opt_gap_quartiles=quartiles
    )


# --- CSV and text output -------------------------------------------------------


def records_to_csv(records: Iterable[RunRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in records:
        writer.writerow(
            [
                r.layout,
                r.cable_id,
                _fmt(r.kappa),
                str(r.seed),
                "true" if r.feasible else "false",
                _fmt(r.energy),
                _fmt(r.objective),
                _fmt(r.oracle_objective),
                _fmt(r.opt_gap),
            ]
        )
    return out.getvalue()


def _csv_float(text: str, lineno: int, field: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"line {lineno}: {field} {text!r} is not a number") from None
    if not math.isfinite(x):
        raise ValueError(f"line {lineno}: {field} must be finite, got {text!r}")
    return x


def records_from_csv(text: str) -> list[RunRecord]:
    """Parse a results CSV; raises ValueError naming the line and field.

    Besides schema mismatches it rejects a non-finite number, a kappa <= 0,
    a negative seed, a feasible row with no objective and a repeated
    (layout, cable_id, kappa, seed) key.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER.split(","):
        raise ValueError(f"results CSV must start with header {CSV_HEADER!r}")
    records = []
    key_lines: dict[tuple[str, str, float, int], int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 9:
            raise ValueError(f"line {lineno}: expected 9 fields, got {len(row)}")
        layout, cable_id, kappa, seed, feasible, energy, objective, oracle_objective, gap = row
        if feasible not in ("true", "false"):
            raise ValueError(f"line {lineno}: feasible must be true/false, got {feasible!r}")
        if feasible == "true" and not objective:
            raise ValueError(f"line {lineno}: a feasible row needs an objective")
        kappa_value = _csv_float(kappa, lineno, "kappa")
        if kappa_value <= 0.0:
            raise ValueError(f"line {lineno}: kappa must be positive, got {kappa!r}")
        try:
            seed_value = int(seed)
        except ValueError:
            raise ValueError(f"line {lineno}: seed {seed!r} is not an integer") from None
        if seed_value < 0:
            raise ValueError(f"line {lineno}: seed must be nonnegative, got {seed!r}")
        key = (layout, cable_id, kappa_value, seed_value)
        if key in key_lines:
            raise ValueError(f"line {lineno}: repeats the (layout, cable_id, kappa, seed) of line {key_lines[key]}")
        key_lines[key] = lineno
        records.append(
            RunRecord(
                layout=layout,
                cable_id=cable_id,
                kappa=kappa_value,
                seed=seed_value,
                feasible=feasible == "true",
                energy=_csv_float(energy, lineno, "energy"),
                objective=_csv_float(objective, lineno, "objective") if objective else None,
                oracle_objective=_csv_float(oracle_objective, lineno, "oracle_objective"),
                opt_gap=_csv_float(gap, lineno, "opt_gap") if gap else None,
            )
        )
    return records


def _layout(report: SweepReport) -> str:
    """The report's one layout ('' if it has no records)."""
    return report.records[0].layout if report.records else ""


def summary_table(report: SweepReport) -> str:
    """Plain-text EmpProb / mean OptGap table, one row per (cable, kappa)."""
    lines = ["layout cable kappa emp_prob opt_gap_mean"]
    layout = _layout(report)
    for cable_id, kappa in sorted(report.emp_prob):
        prob = report.emp_prob[(cable_id, kappa)]
        mean = report.opt_gap_mean[(cable_id, kappa)]
        mean_text = "-" if mean is None else f"{mean:.6g}"
        lines.append(f"{layout} {cable_id} {_fmt(kappa)} {prob:.6g} {mean_text}")
    return "\n".join(lines) + "\n"


def plot_tables(report: SweepReport) -> str:
    """Whitespace-separated tables, one per figure panel.

    Panel 1: empirical feasibility probability, cables as rows, one column
    per kappa.  Panel 2: mean optimality gap over feasible runs, same shape,
    '-' marking cells with no feasible run.
    """
    kappas = sorted({kappa for _, kappa in report.emp_prob})
    cables = sorted({cable for cable, _ in report.emp_prob})
    layout = _layout(report)
    header = "cable " + " ".join(f"kappa={_fmt(k)}" for k in kappas)

    def panel(title: str, cell) -> list[str]:
        lines = [f"# {title} layout={layout}", header]
        for cable in cables:
            row = [cable]
            for kappa in kappas:
                value = cell(cable, kappa)
                row.append("-" if value is None else f"{value:.12g}")
            lines.append(" ".join(row))
        return lines

    lines = panel("empprob", lambda c, k: report.emp_prob.get((c, k)))
    lines.append("")
    lines += panel("optgap_mean", lambda c, k: report.opt_gap_mean.get((c, k)))
    return "\n".join(lines) + "\n"
