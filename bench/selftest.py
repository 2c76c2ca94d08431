"""Shows that every check in checks.py can fail.

    python3 bench/selftest.py      (from the repository root; exit 0 = all good)

It first confirms that the independent computations agree with
``tests/reference.py`` on layout-1.  It then produces real outputs on
layout-1 (a VQE solve, a brute-force solve, a small sweep), confirms that the
checks accept them, feeds each check a corrupted copy and expects a
CheckError.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import checks  # noqa: E402
import reference  # noqa: E402
from qcroute import cli, instance, oracle, qubo, vqe  # noqa: E402

KAPPAS = (0.5, 1.0)
SEEDS = 2


def flip(z: str, i: int) -> str:
    return z[:i] + ("0" if z[i] == "1" else "1") + z[i + 1 :]


def edit_csv(text: str, line: int, column: int, value: str) -> str:
    rows = text.splitlines()
    fields = rows[line].split(",")
    fields[column] = value
    rows[line] = ",".join(fields)
    return "\n".join(rows) + "\n"


def agree_with_reference(layout) -> int:
    """Energies, minima and path optima against the pure-Python reference."""
    problems = 0
    rng = np.random.default_rng(0)
    for cable in layout.cables:
        for kappa in (0.25, 1.0, 4.0):
            truth = checks.truth_for(layout, cable, kappa)
            pens = SimpleNamespace(**dict(zip(("eta1", "eta2", "eta3", "eta4"), truth.block.etas)))
            bits = rng.integers(0, 2, size=(64, truth.block.dim))
            mine = checks.literal_energies(truth.block, bits)
            theirs = [reference.reference_energy(layout, cable, pens, "".join(map(str, row))) for row in bits]
            z, e = reference.reference_minimum(layout, cable, pens)
            ok = (all(checks.close(a, b) for a, b in zip(mine, theirs))
                  and z == truth.argmin and checks.close(e, truth.minimum)
                  and checks.close(truth.optimum, reference.min_simple_path_cost(layout, cable))
                  and len(checks.simple_path_costs(layout, cable))
                  == reference.count_simple_paths(layout, cable.source, cable.terminal))
            if not ok:
                problems += 1
                print(f"DISAGREES with tests/reference.py: cable {cable.id} kappa={kappa}")
    print(f"agreement with tests/reference.py: {problems} problems")
    return problems


def main() -> int:
    layout = instance.bundled_layouts()[0]
    failures = agree_with_reference(layout)
    cable = layout.cables[0]
    block = qubo.build_cable_qubo(layout, cable, qubo.default_penalties(layout, cable))
    truth = checks.truth_for(layout, cable, 1.0)
    maxiter = 40
    result = vqe.vqe_solve(block, vqe.VqeConfig(seed=3, maxiter=maxiter), layout)
    brute = oracle.brute_force_min(block, layout)

    truths = {(c.id, k): checks.truth_for(layout, c, k) for c in layout.cables for k in KAPPAS}
    tables = {key: checks.all_energies(t.block) for key, t in truths.items()}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "selftest-sweep.csv")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["sweep", "layout-1", "--kappas", "0.5,1", "--seeds", str(SEEDS),
                         "--maxiter", "30", "--out", path])
    with open(path, encoding="utf-8") as handle:
        csv_text = handle.read()
    summary = out.getvalue()
    if code != 0:
        print(f"sweep exited {code}")
        return 1

    def sweep(csv_in=csv_text, summary_in=summary):
        checks.check_sweep("layout-1", truths, tables, KAPPAS, SEEDS, csv_in, summary_in)

    rows = csv_text.splitlines()
    feasible_line = next(i for i, row in enumerate(rows) if ",true," in row)
    summary_lines = summary.splitlines()
    prob = summary_lines[1].split()

    def summary_with(fields: list[str]) -> str:
        return "\n".join([summary_lines[0], " ".join(fields)] + summary_lines[2:]) + "\n"

    bad_prob_summary = summary_with(prob[:3] + [f"{float(prob[3]) * 0.5 + 0.01:g}"] + prob[4:])
    bad_gap_summary = summary_with(prob[:4] + ["0.75" if prob[4] != "0.75" else "0.5"])
    feasibility = result.feasibility
    route = feasibility.decoded_route or ("n1", "n4")
    other_energy = result.energy * (1 + 1e-6)

    cases = {
        "vqe: flipped bit": lambda: checks.check_vqe_result(
            truth, replace(result, bitstring=flip(result.bitstring, 0)), maxiter),
        "vqe: non-binary character": lambda: checks.check_vqe_result(
            truth, replace(result, bitstring="2" + result.bitstring[1:]), maxiter),
        "vqe: wrong length": lambda: checks.check_vqe_result(
            truth, replace(result, bitstring=result.bitstring + "0"), maxiter),
        "vqe: energy off by 1e-6 relative": lambda: checks.check_vqe_result(
            truth, replace(result, energy=other_energy), maxiter),
        "vqe: e_exp_final below the minimum": lambda: checks.check_vqe_result(
            truth, replace(result, e_exp_final=truth.minimum - 1e-6 * abs(truth.minimum)), maxiter),
        "vqe: feasibility flag flipped": lambda: checks.check_vqe_result(
            truth, replace(result, feasibility=replace(feasibility, feasible_path=not feasibility.feasible_path)),
            maxiter),
        "vqe: route altered": lambda: checks.check_vqe_result(
            truth, replace(result, feasibility=replace(feasibility, decoded_route=tuple(reversed(route)))), maxiter),
        "vqe: objective altered": lambda: checks.check_vqe_result(
            truth, replace(result, objective=(result.objective or truth.optimum) * (1 + 1e-6)), maxiter),
        "vqe: zero evaluations": lambda: checks.check_vqe_result(
            truth, replace(result, evaluations_used=0), maxiter),
        "vqe: evaluations over budget": lambda: checks.check_vqe_result(
            truth, replace(result, evaluations_used=maxiter + 1), maxiter),
        "brute force: energy off by 1e-6 relative": lambda: checks.check_brute_force(
            truth, replace(brute, energy=brute.energy * (1 + 1e-6))),
        "brute force: flipped bit": lambda: checks.check_brute_force(
            truth, replace(brute, bitstring=flip(brute.bitstring, 0))),
        "brute force: route dropped": lambda: checks.check_brute_force(truth, replace(brute, route=())),
        "brute force: objective altered": lambda: checks.check_brute_force(
            truth, replace(brute, objective=brute.objective + 1.0)),
        "sweep: CSV row dropped": lambda: sweep(csv_in="\n".join(rows[:-1]) + "\n"),
        "sweep: CSV row repeated": lambda: sweep(csv_in="\n".join(rows + rows[-1:]) + "\n"),
        "sweep: opt_gap altered": lambda: sweep(csv_in=edit_csv(csv_text, feasible_line, 8, "0.5")),
        "sweep: oracle_objective altered": lambda: sweep(csv_in=edit_csv(csv_text, 1, 7, "99")),
        "sweep: energy altered": lambda: sweep(csv_in=edit_csv(csv_text, 1, 5, "0.123456")),
        "sweep: energy not a number": lambda: sweep(csv_in=edit_csv(csv_text, 1, 5, "n/a")),
        "sweep: feasible objective altered": lambda: sweep(csv_in=edit_csv(csv_text, feasible_line, 6, "0.1")),
        "sweep: summary emp_prob altered": lambda: sweep(summary_in=bad_prob_summary),
        "sweep: summary opt_gap_mean altered": lambda: sweep(summary_in=bad_gap_summary),
        "sweep: summary line dropped": lambda: sweep(summary_in="\n".join(summary_lines[:-1]) + "\n"),
        "dfs: block minimum differs from the DFS optimum at kappa >= 1": lambda: checks.compare_minimum(
            replace(truth, optimum=truth.optimum + 1.0)),
    }

    for name, check in [
        ("genuine VQE result", lambda: checks.check_vqe_result(truth, result, maxiter)),
        ("genuine brute-force result", lambda: checks.check_brute_force(truth, brute)),
        ("genuine sweep", sweep),
    ]:
        try:
            check()
            print(f"accepted  {name}")
        except checks.CheckError as exc:
            failures += 1
            print(f"WRONGLY REJECTED  {name}: {exc}")
    for name, check in cases.items():
        try:
            check()
        except checks.CheckError as exc:
            print(f"rejected  {name}: {exc}")
        else:
            failures += 1
            print(f"NOT REJECTED  {name}")
    print(f"{len(cases)} corruptions, {failures} problems")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
