import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcroute
from qcroute import VqeConfig, qubo_energy, build_cable_qubo, default_penalties, parse_instance, solve_decomposed
from qcroute.cli import main
from qcroute.metrics import CSV_HEADER
from qcroute.qubo import spins_from_bits
from conftest import TRIANGLE_DOC


@pytest.fixture()
def triangle_path(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(TRIANGLE_DOC, encoding="utf-8")
    return str(path)


class TestValidate:
    def test_bundled_layout(self, capsys):
        assert main(["validate", "layout-1"]) == 0
        assert capsys.readouterr().out == "cables=4 segments=7 nodes=6 qubits_per_cable=11\n"

    def test_layout2(self, capsys):
        assert main(["validate", "layout-2"]) == 0
        assert "qubits_per_cable=16" in capsys.readouterr().out

    def test_triangle_file(self, triangle_path, capsys):
        assert main(["validate", triangle_path]) == 0
        assert capsys.readouterr().out == "cables=1 segments=3 nodes=3 qubits_per_cable=4\n"

    def test_dangling_reference_exit_2(self, tmp_path, capsys):
        doc = json.loads(TRIANGLE_DOC)
        doc["cables"][0]["terminal"] = "Z"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "c1" in err and "'Z'" in err

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["validate", str(tmp_path / "missing.json")]) == 3

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d, big: d["segments"][0].update(length=big), "segment 'AB' length"),
            (lambda d, big: d["cables"][0].update(alpha=big), "cable 'c1' alpha"),
            (lambda d, big: d.update(cables=[{"id": "c1", "source": "A", "terminal": "C",
                                              "costs": {"AB": big, "BC": 1, "AC": 3}}]),
             "cable 'c1' cost of 'AB'"),
            (lambda d, big: d["cables"][0].update(max_length=big), "cable 'c1' max_length"),
        ],
        ids=["length", "alpha", "cost", "max_length"],
    )
    def test_integer_past_the_float_range_exit_2(self, tmp_path, capsys, mutate, field):
        doc = json.loads(TRIANGLE_DOC)
        mutate(doc, 10**399)  # a 400-digit JSON integer
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        commands = (["validate"], ["qubo", "--cable", "c1"], ["solve", "--method", "brute"],
                    ["sweep", "--out", str(tmp_path / "r.csv")])
        for command in commands:
            assert main(command[:1] + [str(bad)] + command[1:]) == 2
            captured = capsys.readouterr()
            assert f"error: {field}: inf is not a finite number" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("opening", ["[", '{"a":'])
    def test_deeply_nested_json_exit_2(self, tmp_path, capsys, opening):
        bad = tmp_path / "deep.json"
        bad.write_text(opening * 100000, encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "error: not a valid JSON document" in capsys.readouterr().err


class TestQubo:
    def test_document_on_stdout(self, triangle_path, capsys):
        assert main(["qubo", triangle_path, "--cable", "c1"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["dim"] == 4
        assert doc["offset"] == 10.0
        assert "dim=4 offset=10 eta=(5,5,3,1)" in captured.err

    def test_kappa_doubles_etas(self, triangle_path, capsys):
        assert main(["qubo", triangle_path, "--cable", "c1", "--kappa", "2"]) == 0
        assert "eta=(10,10,6,2) kappa=2" in capsys.readouterr().err

    def test_out_file(self, triangle_path, tmp_path, capsys):
        out = tmp_path / "block.json"
        assert main(["qubo", triangle_path, "--cable", "c1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["cable_id"] == "c1"

    def test_ising_export_round_trips_energies(self, triangle_path, capsys):
        assert main(["qubo", triangle_path, "--cable", "c1", "--ising"]) == 0
        doc = json.loads(capsys.readouterr().out)
        instance = parse_instance(TRIANGLE_DOC)
        cable = instance.cables[0]
        q = build_cable_qubo(instance, cable, default_penalties(instance, cable))
        h = np.array(doc["h"])
        for u in range(1 << doc["dim"]):
            z = format(u, f"0{doc['dim']}b")
            spins = spins_from_bits(z, doc["dim"])
            energy = doc["constant"] + float(h @ spins)
            energy += sum(t["value"] * spins[t["i"]] * spins[t["j"]] for t in doc["couplings"])
            assert energy == pytest.approx(qubo_energy(q, z), abs=1e-9)

    def test_unknown_cable_exit_2(self, triangle_path):
        assert main(["qubo", triangle_path, "--cable", "c9"]) == 2

    def test_overflowing_kappa_exit_2(self, tmp_path, capsys):
        out = tmp_path / "block.json"
        assert main(["qubo", "layout-1", "--cable", "c1", "--kappa", "1e308", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "kappa 1e+308" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("kappa, cable", [("1.6e307", "c1"), ("5e306", "c1"), ("2e305", "c3")])
    def test_overflowing_block_of_any_cable_exit_2(self, kappa, cable, capsys):
        # The kappa is admitted by the whole row: at 2e305 c1's block is finite, c3's is not.
        assert main(["qubo", "layout-1", "--cable", "c1", "--kappa", kappa]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"block of cable '{cable}' at kappa {float(kappa)}" in captured.err

    def test_every_block_finite_at_1e304_exit_0(self, capsys):
        assert main(["qubo", "layout-1", "--cable", "c1", "--kappa", "1e304"]) == 0
        assert json.loads(capsys.readouterr().out)["cable_id"] == "c1"


class TestSolve:
    def test_brute_triangle(self, triangle_path, capsys):
        assert main(["solve", triangle_path, "--method", "brute"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "cable=c1 feasible=true route=A-B-C objective=2 energy=2"
        assert out[1] == "total_energy=2 all_feasible=true"

    def test_dijkstra_layout1_totals(self, capsys):
        assert main(["solve", "layout-1", "--method", "dijkstra"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5
        assert out[-1] == "total_energy=12 all_feasible=true"

    def test_single_cable_flag(self, capsys):
        assert main(["solve", "layout-1", "--cable", "c2", "--method", "dijkstra"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["cable=c2 feasible=true route=n2-n5-n6 objective=2.5 energy=2.5"]

    def test_vqe_deterministic_output(self, capsys):
        assert main(["solve", "layout-1", "--method", "vqe", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["solve", "layout-1", "--method", "vqe", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines()[-1].startswith("total_energy=")

    def test_infeasible_outcome_still_exits_zero(self, capsys):
        # Quarter-scale penalties make the block minimum infeasible; that is
        # reported data, not an error.
        code = main(
            ["solve", "layout-1", "--method", "brute", "--kappa", "0.25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "feasible=false" in out
        assert "all_feasible=false" in out

    def test_bad_flag_exit_2(self, triangle_path):
        assert main(["solve", triangle_path, "--method", "annealer"]) == 2

    @pytest.mark.parametrize("method, kappa", [("brute", "nan"), ("vqe", "inf"), ("dijkstra", "nan")])
    def test_non_finite_kappa_exit_2(self, method, kappa, capsys):
        assert main(["solve", "layout-1", "--method", method, "--kappa", kappa, "--maxiter", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kappa" in captured.err

    @pytest.mark.parametrize("method", ["vqe", "brute", "dijkstra"])
    @pytest.mark.parametrize(
        "flags, field",
        [(["--shots", "-5", "--maxiter", "0"], "shots"), (["--maxiter", "0"], "maxiter"),
         (["--seed", "-1"], "seed"), (["--reps", "-1"], "reps"),
         (["--shots", "99999999999999999999", "--maxiter", "2"], "shots")],
        ids=["shots", "maxiter", "seed", "reps", "shots-over-int64"],
    )
    def test_invalid_solver_flag_exit_2_for_every_method(self, method, flags, field, capsys):
        assert main(["solve", "layout-1", "--method", method, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err

    @pytest.mark.parametrize("method", ["vqe", "brute", "dijkstra"])
    def test_overflowing_kappa_exit_2(self, method, capsys):
        # 1e308 is finite, but it scales the penalty weights past the float range.
        assert main(["solve", "layout-1", "--method", method, "--kappa", "1e308", "--maxiter", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kappa 1e+308" in captured.err

    @pytest.mark.parametrize("method", ["vqe", "brute", "dijkstra"])
    @pytest.mark.parametrize("kappa, cable", [("1.6e307", "c1"), ("5e306", "c1"), ("2e305", "c3")])
    def test_overflowing_block_exit_2_before_the_first_cable(self, method, kappa, cable, capsys):
        # Finite etas, but the block of ``cable`` overflows: at 1.6e307 a
        # coefficient, at 5e306 the energy bound 2 * (sum |Q_ij| + |offset|).
        # At 2e305 only c3's bound is past the float range.
        assert main(["solve", "layout-1", "--method", method, "--kappa", kappa, "--maxiter", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"block of cable '{cable}' at kappa {float(kappa)}" in captured.err

    def test_overflowing_sampled_energy_sum_exit_2_before_the_first_cable(self, capsys):
        # At 1e304 each block's energy bound is finite, but 1000 shots of it are not.
        assert main(["solve", "layout-1", "--kappa", "1e304", "--maxiter", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1000 shots of cable 'c1' at kappa 1e+304 overflow" in captured.err

    @pytest.mark.parametrize("flags", [["--shots", "0"], ["--method", "brute"], ["--method", "dijkstra"]])
    def test_no_shots_drawn_at_1e304_exit_0(self, flags, capsys):
        # No sampled sum is formed, so the block bound alone admits the kappa.
        assert main(["solve", "layout-1", "--kappa", "1e304", "--maxiter", "3"] + flags) == 0
        assert capsys.readouterr().out.count("cable=") == 4

    def test_oversized_allocation_exit_2_naming_the_sizes(self, capsys):
        # minimize's start point would take 80 TiB; numpy refuses it before allocating.
        assert main(["solve", "layout-1", "--cable", "c1", "--reps", "1000000000000", "--maxiter", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "80.0 TiB" in line
        assert all(size in line for size in ("--reps", "--shots", "--seeds", "block dimension"))

    def test_vqe_lines_come_from_the_library_solve(self, layout1, capsys):
        assert main(["solve", "layout-1", "--seed", "7", "--shots", "100", "--maxiter", "20"]) == 0
        cli_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("cable=")]
        assignment = solve_decomposed(layout1, 1.0, VqeConfig(seed=7, shots=100, maxiter=20))
        expected = []
        for r in assignment.results:
            feasible = r.feasibility.feasible_path
            route = "-".join(r.feasibility.decoded_route) if feasible else "-"
            objective = f"{r.objective:.12g}" if feasible else "-"
            expected.append(
                f"cable={r.cable_id} feasible={str(feasible).lower()} route={route} "
                f"objective={objective} energy={r.energy:.12g}"
            )
        assert cli_lines == expected

        # A single cable keeps its own subseed index, so its line is unchanged.
        assert main(["solve", "layout-1", "--cable", "c3", "--seed", "7", "--shots", "100", "--maxiter", "20"]) == 0
        assert capsys.readouterr().out.splitlines() == [expected[2]]


class TestSweepAndReport:
    def test_small_sweep_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main(
            ["sweep", "layout-1", "--kappas", "1", "--seeds", "2", "--out", str(out),
             "--shots", "50", "--maxiter", "8"]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 9  # header + 4 cables x 1 kappa x 2 seeds
        assert captured.out.startswith("layout cable kappa emp_prob opt_gap_mean")
        assert captured.err.count("done") == 2  # one progress line per (kappa, seed)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "layout-1", "--kappas", "0.5,1", "--seeds", "2",
                "--shots", "50", "--maxiter", "8", "--seed", "4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_reproduces_sweep_summary(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        main(["sweep", "layout-1", "--kappas", "0.25,1", "--seeds", "2",
              "--out", str(out), "--shots", "50", "--maxiter", "8"])
        sweep_summary = capsys.readouterr().out
        assert main(["report", str(out)]) == 0
        report_out = capsys.readouterr().out
        assert report_out.startswith(sweep_summary)
        assert "# empprob layout=layout-1" in report_out
        assert "# optgap_mean layout=layout-1" in report_out

    def test_report_hand_built_csv(self, tmp_path, capsys):
        rows = [
            CSV_HEADER,
            "layout-1,c1,1,0,true,10,10,10,0",
            "layout-1,c1,1,1,true,11,11,10,0.1",
            "layout-1,c1,1,2,false,13,,10,",
        ]
        path = tmp_path / "hand.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "layout-1 c1 1 0.666667 0.05" in out

    def test_report_reads_crlf_lines_and_a_quoted_carriage_return(self, tmp_path, capsys):
        rows = [CSV_HEADER, "layout-1,c1,1,0,true,10,10,10,0", '"layout-1","c\r2","1","0","false","13","","10",""']
        path = tmp_path / "crlf.csv"
        path.write_bytes(("\r\n".join(rows) + "\r\n").encode("utf-8"))
        assert main(["report", str(path)]) == 0
        assert "layout-1 c\r2 1 0 -" in capsys.readouterr().out

    def test_report_schema_mismatch_exit_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,what\n1,2\n", encoding="utf-8")
        assert main(["report", str(path)]) == 2

    GOOD_ROW = "layout-1,c1,1,0,true,10,10,10,0"

    @pytest.mark.parametrize(
        "row, field",
        [
            ("layout-1,c1,nan,1,true,10,10,10,0", "kappa"),  # non-finite
            ("layout-1,c1,1,1,true,inf,10,10,0", "energy"),
            ("layout-1,c1,1,1,false,10,,-inf,", "oracle_objective"),
            ("layout-1,c1,0,1,true,10,10,10,0", "kappa"),  # not positive
            ("layout-1,c1,-2,1,true,10,10,10,0", "kappa"),
            ("layout-1,c1,1,-4,true,10,10,10,0", "seed"),  # negative
            ("layout-1,c1,1,1,true,10,,10,", "objective"),  # feasible without one
            ("layout-1,c1,1,1,true,3,3,2,-0.5", "opt_gap"),  # negative
            ("layout-1,c1,1,1,false,10,10,10,", "objective"),  # infeasible with one
        ],
    )
    def test_report_rejects_out_of_range_values(self, row, field, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([CSV_HEADER, self.GOOD_ROW, row]) + "\n", encoding="utf-8")
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert "line 3" in captured.err and field in captured.err
        assert captured.out == ""

    def test_report_rejects_a_repeated_key(self, tmp_path, capsys):
        path = tmp_path / "twice.csv"
        rows = [CSV_HEADER, self.GOOD_ROW, "layout-1,c2,1,0,true,10,10,10,0", "layout-1,c1,1.0,0,false,12,,10,"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert "line 4: repeats the (layout, cable_id, kappa, seed) of line 2" in captured.err
        assert captured.out == ""

    def test_missing_output_directory_fails_before_the_grid(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "x.csv"
        code = main(["sweep", "layout-1", "--kappas", "1", "--seeds", "3", "--out", str(out),
                     "--shots", "50", "--maxiter", "8"])
        assert code == 3
        captured = capsys.readouterr()
        assert "done" not in captured.err and "output directory does not exist" in captured.err
        assert captured.out == ""

    def test_directory_output_fails_before_the_grid(self, tmp_path, capsys):
        code = main(["sweep", "layout-1", "--kappas", "1", "--seeds", "3", "--out", str(tmp_path),
                     "--shots", "50", "--maxiter", "8"])
        assert code == 3
        captured = capsys.readouterr()
        assert "done" not in captured.err and "Is a directory" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("out", ["", "no_such_dir/"])
    def test_unusable_output_path_fails_before_the_grid(self, tmp_path, capsys, monkeypatch, out):
        # Neither path names a file: "" has no name, "no_such_dir/" no directory.
        monkeypatch.chdir(tmp_path)
        code = main(["sweep", "layout-1", "--kappas", "1", "--seeds", "2", "--out", out,
                     "--shots", "50", "--maxiter", "5"])
        assert code == 3
        captured = capsys.readouterr()
        assert "done" not in captured.err and captured.out == ""
        assert os.listdir(tmp_path) == []

    def test_unwritable_output_exit_3(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "results.csv"
        code = main(["sweep", "layout-1", "--kappas", "1", "--seeds", "1",
                     "--out", str(out), "--shots", "50", "--maxiter", "8"])
        assert code == 3

    SMALL_SWEEP = ["sweep", "layout-1", "--kappas", "1", "--seeds", "1", "--shots", "50", "--maxiter", "8"]

    def test_jobs_env_not_integer_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QCROUTE_JOBS", "x")
        assert main(self.SMALL_SWEEP + ["--out", str(tmp_path / "r.csv")]) == 2
        assert "QCROUTE_JOBS" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exit_2(self, jobs, tmp_path, capsys):
        assert main(self.SMALL_SWEEP + ["--jobs", jobs, "--out", str(tmp_path / "r.csv")]) == 2
        assert "jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("kappas, entry", [("1,,2", "''"), ("1,2,", "''"), ("abc", "'abc'")])
    def test_malformed_kappas_exit_2(self, kappas, entry, tmp_path, capsys):
        args = ["sweep", "layout-1", "--kappas", kappas, "--seeds", "1", "--shots", "50", "--maxiter", "8"]
        assert main(args + ["--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert "--kappas" in captured.err and entry in captured.err
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("kappas", ["1,-1", "1,nan", "1,inf", "1,0"])
    def test_bad_later_kappa_fails_before_the_first_cell(self, kappas, tmp_path, capsys):
        args = ["sweep", "layout-1", "--kappas", kappas, "--seeds", "2", "--shots", "50", "--maxiter", "8"]
        assert main(args + ["--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert "kappa must be positive and finite" in captured.err
        assert "done" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    def test_overflowing_kappa_fails_before_the_first_cell(self, tmp_path, capsys):
        args = ["sweep", "layout-1", "--kappas", "1,1e308", "--seeds", "2", "--shots", "50", "--maxiter", "8"]
        assert main(args + ["--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert "kappa entry 2 (1e+308)" in captured.err
        assert "done" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    def test_overflowing_block_fails_before_the_first_cell(self, tmp_path, capsys):
        # 1.6e307 scales the etas to finite values, but c1's block overflows.
        args = ["sweep", "layout-1", "--kappas", "1,1.6e307", "--seeds", "1", "--maxiter", "2", "--shots", "10"]
        assert main(args + ["--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert "kappa entry 2 (1.6e+307)" in captured.err
        assert "non-finite coefficient" in captured.err
        assert "done" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    def test_overflowing_sampled_energy_sum_fails_before_the_first_cell(self, tmp_path, capsys):
        args = ["sweep", "layout-1", "--kappas", "1,1e304", "--seeds", "1", "--maxiter", "3"]
        assert main(args + ["--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert "kappa entry 2 (1e+304): 1000 shots of cable 'c1'" in captured.err
        assert "done" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    def test_exact_sweep_at_1e304_exit_0(self, tmp_path, capsys):
        args = ["sweep", "layout-1", "--kappas", "1,1e304", "--seeds", "1", "--maxiter", "3", "--shots", "0"]
        assert main(args + ["--out", str(tmp_path / "r.csv")]) == 0
        assert len((tmp_path / "r.csv").read_text().splitlines()) == 1 + 2 * 4

    def test_shots_over_int64_fail_before_the_first_cell(self, tmp_path, capsys):
        args = ["sweep", "layout-1", "--kappas", "1", "--seeds", "1", "--shots", "99999999999999999999"]
        assert main(args + ["--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert "shots" in captured.err and "done" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    def test_jobs_beyond_the_grid_give_the_single_job_bytes(self, tmp_path, capsys):
        # One cell runs in process whatever --jobs says, so no worker starts.
        outputs = []
        for jobs in ("1", "99999999999999999999"):
            out = tmp_path / f"r{jobs}.csv"
            args = ["sweep", "layout-1", "--kappas", "1", "--seeds", "1", "--maxiter", "1", "--jobs", jobs]
            assert main(args + ["--out", str(out)]) == 0
            captured = capsys.readouterr()
            outputs.append((out.read_bytes(), captured.out, captured.err))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("kappas, entry", [("1,1.0", "entry 2 (1.0)"), ("0.5,1,2,1.00000000000001", "entry 4")])
    def test_repeated_kappa_fails_before_the_first_cell(self, kappas, entry, tmp_path, capsys):
        args = ["sweep", "layout-1", "--kappas", kappas, "--seeds", "1", "--shots", "50", "--maxiter", "8"]
        assert main(args + ["--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert f"kappa {entry}" in captured.err and "repeats an earlier entry" in captured.err
        assert "done" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", [SMALL_SWEEP, ["solve", "layout-1", "--maxiter", "8"]])
    def test_negative_seed_exit_2(self, command, capsys):
        assert main(command + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "seed must be nonnegative" in captured.err
        assert captured.out == ""

    def test_default_grid_matches_benchmark_shape(self):
        from qcroute.cli import _build_parser

        args = _build_parser().parse_args(["sweep", "layout-1"])
        kappas = [float(k) for k in args.kappas.split(",")]
        assert kappas == [0.25, 0.5, 1.0, 2.0, 4.0]
        assert args.seeds == 30
        assert 4 * len(kappas) * args.seeds == 600


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["qcroute", "qcroute.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        src = str(Path(qcroute.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", module, "validate", "layout-1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "cables=4 segments=7 nodes=6 qubits_per_cable=11\n"

    def test_import_loads_no_pool_module(self):
        # The thread and process pools are imported by the first solve or sweep that uses them.
        src = str(Path(qcroute.__file__).resolve().parents[1])
        code = "import sys, qcroute; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
