import pytest

from qcroute import (
    RunRecord,
    VqeConfig,
    build_report,
    emp_prob,
    opt_gap_stats,
    records_from_csv,
    records_to_csv,
    run_sweep,
)
from qcroute import metrics, qubo, vqe
from qcroute.metrics import CSV_HEADER, plot_tables, summary_table


def record(
    cable="c1",
    kappa=1.0,
    seed=0,
    feasible=True,
    energy=10.0,
    objective=10.0,
    oracle=10.0,
    layout="layout-1",
):
    gap = None
    if feasible and objective is not None and oracle != 0.0:
        gap = abs(objective - oracle) / abs(oracle)
    return RunRecord(
        layout=layout,
        cable_id=cable,
        kappa=kappa,
        seed=seed,
        feasible=feasible,
        energy=energy,
        objective=objective if feasible else None,
        oracle_objective=oracle,
        opt_gap=gap,
    )


def cell(feasible_count, total, **kwargs):
    return [
        record(seed=i, feasible=i < feasible_count, **kwargs) for i in range(total)
    ]


class TestEmpProb:
    def test_24_of_30(self):
        assert emp_prob(cell(24, 30)) == 0.8

    def test_none_feasible(self):
        assert emp_prob(cell(0, 30)) == 0.0

    def test_all_feasible(self):
        assert emp_prob(cell(30, 30)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            emp_prob([])

    def test_mixed_cells_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            emp_prob([record(kappa=1.0), record(kappa=2.0)])

    def test_permutation_invariant(self):
        records = cell(7, 11)
        assert emp_prob(records) == emp_prob(list(reversed(records)))


class TestOptGapStats:
    def test_hand_computed_mean(self):
        records = [
            record(seed=0, objective=11.0),
            record(seed=1, objective=10.0),
            record(seed=2, objective=12.0),
        ]
        mean, quartiles = opt_gap_stats(records)
        assert mean == pytest.approx(0.1, abs=1e-12)
        assert quartiles == pytest.approx((0.0, 0.0, 0.1, 0.2, 0.2))

    def test_single_feasible_at_optimum(self):
        mean, quartiles = opt_gap_stats([record(objective=10.0)])
        assert mean == 0.0
        assert quartiles == (0.0,) * 5

    def test_no_feasible_records_is_empty_marker(self):
        assert opt_gap_stats(cell(0, 5)) is None

    def test_infeasible_records_excluded_from_stats(self):
        records = [record(seed=0, objective=10.0), record(seed=1, feasible=False)]
        mean, _ = opt_gap_stats(records)
        assert mean == 0.0

    def test_quartiles_even_count(self):
        objectives = [10.0, 11.0, 12.0, 13.0]  # gaps 0, .1, .2, .3
        records = [record(seed=i, objective=o) for i, o in enumerate(objectives)]
        _, quartiles = opt_gap_stats(records)
        assert quartiles == pytest.approx((0.0, 0.05, 0.15, 0.25, 0.3))

    def test_quartiles_odd_count_median_exclusive(self):
        objectives = [10.0, 11.0, 12.0, 13.0, 14.0]  # gaps 0, .1, .2, .3, .4
        records = [record(seed=i, objective=o) for i, o in enumerate(objectives)]
        _, quartiles = opt_gap_stats(records)
        assert quartiles == pytest.approx((0.0, 0.05, 0.2, 0.35, 0.4))


FAST = VqeConfig(shots=50, maxiter=8, seed=99)


class TestRunSweep:
    def test_grid_shape(self, layout1):
        report = run_sweep(layout1, [1.0], 2, FAST)
        assert len(report.records) == 8  # 4 cables x 1 kappa x 2 seeds
        report = run_sweep(layout1, [0.5, 1.0], 2, FAST)
        assert len(report.records) == 16

    def test_records_sorted_and_complete(self, layout1):
        report = run_sweep(layout1, [0.5, 1.0], 2, FAST)
        keys = [(r.layout, r.cable_id, r.kappa, r.seed) for r in report.records]
        assert keys == sorted(keys)
        assert {r.cable_id for r in report.records} == {"c1", "c2", "c3", "c4"}

    def test_field_consistency(self, layout1):
        report = run_sweep(layout1, [0.25, 1.0], 3, FAST)
        for r in report.records:
            assert (r.objective is None) == (not r.feasible)
            assert (r.opt_gap is None) == (not r.feasible)
            if r.feasible:
                assert r.objective >= r.oracle_objective
                assert r.opt_gap == pytest.approx(
                    abs(r.objective - r.oracle_objective) / r.oracle_objective, abs=1e-9
                )

    def test_deterministic(self, layout1):
        a = run_sweep(layout1, [1.0], 2, FAST)
        b = run_sweep(layout1, [1.0], 2, FAST)
        assert a.records == b.records
        assert records_to_csv(a.records) == records_to_csv(b.records)

    def test_parallel_jobs_match_sequential(self, layout1):
        sequential = run_sweep(layout1, [1.0], 2, FAST, jobs=1)
        parallel = run_sweep(layout1, [1.0], 2, FAST, jobs=2)
        assert sequential.records == parallel.records

    def test_progress_callback_sees_every_cell(self, layout1):
        seen = []
        run_sweep(layout1, [0.5, 1.0], 2, FAST, progress=lambda k, s: seen.append((k, s)))
        assert seen == [(0.5, 0), (0.5, 1), (1.0, 0), (1.0, 1)]

    def test_validates_arguments(self, layout1):
        with pytest.raises(ValueError, match="kappas"):
            run_sweep(layout1, [], 2, FAST)
        with pytest.raises(ValueError, match="num_seeds"):
            run_sweep(layout1, [1.0], 0, FAST)

    def test_workers_capped_at_the_cell_count(self, layout1, monkeypatch):
        # The stub pool records its size and maps in process, so no worker starts.
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        expected = run_sweep(layout1, [0.5, 1.0], 2, FAST).records
        assert run_sweep(layout1, [0.5, 1.0], 2, FAST, jobs=3).records == expected
        assert run_sweep(layout1, [0.5, 1.0], 2, FAST, jobs=10**20).records == expected
        assert run_sweep(layout1, [1.0], 1, FAST, jobs=10**20).records == run_sweep(layout1, [1.0], 1, FAST).records
        assert sizes == [3, 4]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_nonpositive_jobs(self, layout1, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(layout1, [1.0], 1, FAST, jobs=jobs)


class TestRowSharing:
    """A sweep row's seeds share its blocks, and the bytes do not depend on it."""

    EXACT = VqeConfig(shots=0, maxiter=3, seed=5)
    KAPPAS = [0.5, 1.0]

    @pytest.fixture()
    def tables_built(self, monkeypatch):
        built = []
        chunk_energies = qubo._chunk_energies

        def spy(q, columns, table=None, starts=None):
            if table is not None:
                built.append((q.cable_id, q.penalties.kappa))
            return chunk_energies(q, columns, table, starts)

        monkeypatch.setattr(qubo, "_chunk_energies", spy)
        return built

    def test_each_table_is_built_once_per_row(self, layout1, tables_built):
        run_sweep(layout1, self.KAPPAS, 3, self.EXACT, jobs=1)
        assert sorted(tables_built) == sorted((c.id, k) for k in self.KAPPAS for c in layout1.cables)

    def test_csv_is_the_same_with_a_cold_row_for_every_cell(self, layout1, tables_built, monkeypatch):
        kept = records_to_csv(run_sweep(layout1, self.KAPPAS, 3, self.EXACT, jobs=1).records)
        solve = metrics.solve_decomposed

        def cold(*args):
            vqe._row = None
            return solve(*args)

        monkeypatch.setattr(metrics, "solve_decomposed", cold)
        tables_built.clear()
        assert records_to_csv(run_sweep(layout1, self.KAPPAS, 3, self.EXACT, jobs=1).records) == kept
        assert len(tables_built) == len(self.KAPPAS) * 3 * layout1.num_cables  # one per cable per cell


class TestCsvRoundTrip:
    def test_header(self):
        assert (
            CSV_HEADER
            == "layout,cable_id,kappa,seed,feasible,energy,objective,oracle_objective,opt_gap"
        )
        assert records_to_csv([]).splitlines()[0] == CSV_HEADER

    def test_round_trip_is_lossless(self, layout1):
        report = run_sweep(layout1, [0.25, 1.0], 2, FAST)
        text = records_to_csv(report.records)
        assert records_from_csv(text) == list(report.records)

    def test_aggregates_from_csv_match_exactly(self, layout1):
        report = run_sweep(layout1, [0.25, 1.0], 3, FAST)
        reread = build_report(records_from_csv(records_to_csv(report.records)))
        assert reread.emp_prob == report.emp_prob
        assert reread.opt_gap_mean == report.opt_gap_mean
        assert reread.opt_gap_quartiles == report.opt_gap_quartiles

    def test_infeasible_rows_have_empty_cells(self):
        text = records_to_csv([record(feasible=False, energy=3.5)])
        row = text.splitlines()[1]
        assert row == "layout-1,c1,1,0,false,3.5,,10,"

    def test_a_carriage_return_in_an_id_round_trips(self):
        records = [record(seed=0), record(seed=1, cable="c\r1"), record(seed=2, layout="L\r", feasible=False)]
        text = records_to_csv(records)
        assert text.splitlines()[1] == "layout-1,c1,1,0,true,10,10,10,0"  # only rows holding a "\r" are quoted
        assert records_from_csv(text) == records

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nope\n", "header"),
            (CSV_HEADER + "\nlayout-1,c1,1,0,true,1,1,1\n", "9 fields"),
            (CSV_HEADER + "\nlayout-1,c1,1,0,yes,1,1,1,0\n", "true/false"),
            (CSV_HEADER + "\nlayout-1,c1,1,zero,true,1,1,1,0\n", "line 2"),
            # values a sweep never writes: a negative cost or gap, and an
            # infeasible row that carries an objective or a gap
            (CSV_HEADER + "\nL,c1,1,0,true,3,3,2,-0.5\n", "line 2: opt_gap must be nonnegative, got '-0.5'"),
            (CSV_HEADER + "\nL,c1,1,0,true,3,-3,2,2.5\n", "line 2: objective must be nonnegative, got '-3'"),
            (CSV_HEADER + "\nL,c1,1,0,false,3,,-2,\n", "line 2: oracle_objective must be nonnegative, got '-2'"),
            (CSV_HEADER + "\nL,c1,1,0,false,3,3,2,\n", "line 2: an infeasible row leaves objective empty, got '3'"),
            (CSV_HEADER + "\nL,c1,1,0,false,3,,2,0.5\n", "line 2: an infeasible row leaves opt_gap empty, got '0.5'"),
            (CSV_HEADER + "\nL,c\r1,1,0,true,3,3,2,0.5\n", "line 2: new-line character seen in unquoted field"),
        ],
    )
    def test_schema_mismatches_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            records_from_csv(text)


class TestTables:
    def test_summary_matches_hand_arithmetic(self):
        records = cell(24, 30) + cell(0, 30, kappa=0.25)
        report = build_report(records)
        table = summary_table(report)
        lines = table.splitlines()
        assert lines[0] == "layout cable kappa emp_prob opt_gap_mean"
        assert "layout-1 c1 0.25 0 -" in lines
        assert "layout-1 c1 1 0.8 0" in lines

    def test_records_of_two_layouts_rejected(self):
        # Both layouts have a cable c1; merged, they would read as one cell.
        records = [record(layout="A"), record(layout="B", seed=1, feasible=False)]
        with pytest.raises(ValueError, match=r"records span multiple layouts: \['A', 'B'\]"):
            build_report(records)

    def test_an_empty_report_prints_only_headers(self):
        report = build_report([])
        assert summary_table(report) == "layout cable kappa emp_prob opt_gap_mean\n"
        assert all(not line or line.startswith(("#", "cable")) for line in plot_tables(report).splitlines())

    def test_plot_tables_shape(self):
        records = cell(3, 4) + cell(2, 4, kappa=4.0) + cell(1, 4, cable="c2") + cell(0, 4, cable="c2", kappa=4.0)
        text = plot_tables(build_report(records))
        blocks = text.strip().split("\n\n")
        assert blocks[0].splitlines()[0] == "# empprob layout=layout-1"
        assert blocks[0].splitlines()[1] == "cable kappa=1 kappa=4"
        assert blocks[1].splitlines()[0] == "# optgap_mean layout=layout-1"
        # c2 at kappa=4 has no feasible run: empty marker in the gap panel
        c2_row = blocks[1].splitlines()[3].split()
        assert c2_row[0] == "c2" and c2_row[2] == "-"
