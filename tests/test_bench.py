"""Benchmark harness tests: report integrity, relative metrics, table
emission, argument files and grids, and CLI exit codes."""

import csv
import io

import numpy as np
import pytest

from stokesmg import bench
from stokesmg.bench import (COLUMNS, ComparisonTable, RunReport,
                            relative_metrics, run)
from stokesmg.problems import DATA_DIR
from stokesmg.timing import Timings


def synthetic_report(solver="hmg", t_setup=2.0, t_solve=1.0, iterations=10,
                     kernels=None, converged=True, **overrides):
    fields = dict(problem="ldc2d", family="th", k=3, refinements=2,
                  solver=solver, dofs=1000, nnz_per_dof=42.0,
                  iterations=iterations, converged=converged,
                  t_setup=t_setup, t_solve=t_solve,
                  kernels=kernels or {"rlx(l=0)": 0.6, "residual": 0.1,
                                      "transfer": 0.1, "coarse": 0.1,
                                      "krylov": 0.05, "other": 0.05})
    fields.update(overrides)
    return RunReport(**fields)


class TestTimings:
    def test_scopes_count_calls_and_add_seconds(self):
        timer = Timings()
        for _ in range(3):
            with timer.scope("coarse"):
                pass
        with timer.scope("schur"):
            pass
        assert timer.calls == {"coarse": 3, "schur": 1}
        assert timer.seconds.keys() == timer.calls.keys()
        assert timer.get("coarse") >= 0.0 and timer.get("missing") == 0.0
        assert timer.total() == sum(timer.seconds.values())


class TestRunReport:
    def test_total_is_sum_of_phases(self):
        r = synthetic_report(t_setup=1.25, t_solve=0.75)
        assert r.t_total == 1.25 + 0.75
        assert r.setup_frac == 1.25 / 2.0

    def test_zero_total_setup_frac(self):
        r = synthetic_report(t_setup=0.0, t_solve=0.0)
        assert r.setup_frac == 0.0

    def test_kernel_coverage_excludes_other(self):
        r = synthetic_report(t_solve=1.0,
                             kernels={"rlx(l=0)": 0.7, "residual": 0.2,
                                      "other": 0.1})
        assert r.kernel_coverage() == pytest.approx(0.9)

    def test_relative_metrics_exact_on_synthetic_inputs(self):
        ref = synthetic_report(solver="hmg", t_setup=2.0, t_solve=4.0)
        rep = synthetic_report(solver="phmg-direct", t_setup=1.0,
                               t_solve=2.0)
        r_total, r_setup, r_solve = relative_metrics(rep, ref)
        assert r_total == 6.0 / 3.0
        assert r_setup == 2.0 / 1.0
        assert r_solve == 4.0 / 2.0
        assert relative_metrics(ref, ref) == (1.0, 1.0, 1.0)


class TestRun:
    def test_small_cavity_run(self):
        rep = run("ldc2d", "th", 3, 1, "hmg")
        assert rep.converged
        assert rep.iterations < 30
        assert rep.dofs > 0 and rep.nnz_per_dof > 10
        assert rep.t_setup > 0 and rep.t_solve > 0
        assert rep.t_total == rep.t_setup + rep.t_solve
        for name in ("rlx(l=0)", "residual", "transfer", "coarse",
                     "krylov", "other"):
            assert name in rep.kernels
        assert rep.kernel_coverage() > 0.9

    def test_iteration_counts_deterministic(self):
        a = run("manufactured", "th", 2, 1, "hmg")
        b = run("manufactured", "th", 2, 1, "hmg")
        assert a.iterations == b.iterations
        assert a.dofs == b.dofs
        assert a.nnz_per_dof == b.nnz_per_dof

    def test_unknown_problem(self):
        with pytest.raises(ValueError, match="problem"):
            run("poiseuille3d", "th", 2, 1, "hmg")

    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="solver"):
            run("ldc2d", "th", 2, 1, "smoothed-aggregation")


class TestComparisonTable:
    def _pair(self):
        ref = synthetic_report(solver="hmg", t_setup=2.0, t_solve=4.0)
        other = synthetic_report(solver="phmg-direct", t_setup=1.0,
                                 t_solve=2.0, iterations=12)
        return [ref, other]

    def test_reference_ratios_are_one(self):
        table = ComparisonTable(self._pair(), reference="hmg")
        rows = table.rows()
        ref_row = next(r for r in rows if r["solver"] == "hmg")
        assert (ref_row["r_total"], ref_row["r_setup"],
                ref_row["r_solve"]) == ("1.000", "1.000", "1.000")
        other_row = next(r for r in rows if r["solver"] == "phmg-direct")
        assert other_row["r_total"] == "2.000"
        assert other_row["r_setup"] == "2.000"
        assert other_row["r_solve"] == "2.000"

    def test_missing_reference_leaves_ratios_blank(self):
        ref = synthetic_report(solver="hmg")
        lone = synthetic_report(solver="phmg-direct", k=5)  # no hmg at k=5
        table = ComparisonTable([ref, lone], reference="hmg")
        row = next(r for r in table.rows() if r["k"] == 5)
        assert row["r_total"] == row["r_setup"] == row["r_solve"] == ""

    def test_csv_column_order(self):
        table = ComparisonTable(self._pair(), reference="hmg")
        header = table.to_csv().splitlines()[0].split(",")
        assert header[: len(COLUMNS)] == COLUMNS
        kernel_cols = header[len(COLUMNS):]
        assert kernel_cols == ["rlx(l=0)", "residual", "transfer", "coarse",
                               "krylov", "other"]

    def test_kernel_columns_sort_levels_before_named_kernels(self):
        a = synthetic_report(kernels={"rlx(l=1)": 0.1, "schur": 0.2,
                                      "krylov": 0.1})
        b = synthetic_report(solver="fbf-hmg",
                             kernels={"rlx(l=0)": 0.3, "coarse": 0.1,
                                      "other": 0.0})
        table = ComparisonTable([a, b], reference="hmg")
        assert table.kernel_names() == ["rlx(l=0)", "rlx(l=1)", "coarse",
                                        "schur", "krylov", "other"]

    def test_csv_round_trip(self):
        table = ComparisonTable(self._pair(), reference="hmg")
        parsed = list(csv.DictReader(io.StringIO(table.to_csv())))
        assert len(parsed) == 2
        assert parsed[0]["solver"] == "hmg"
        assert parsed[0]["iterations"] == "10"
        assert parsed[1]["iterations"] == "12"
        assert float(parsed[1]["t_total_s"]) == pytest.approx(3.0)

    def test_markdown_shape(self):
        table = ComparisonTable(self._pair(), reference="hmg")
        lines = table.to_markdown().splitlines()
        assert lines[0].startswith("| problem")
        assert set(lines[1]) <= {"|", "-"}
        assert len(lines) == 4  # header, rule, two data rows
        assert len({line.count("|") for line in lines}) == 1

    def test_row_internally_consistent_after_parsing(self):
        # setup_frac recomputed from the printed row matches to 1e-9, and
        # the printed total is the printed phase sum.
        reports = self._pair() + [synthetic_report(
            solver="fbf-hmg", t_setup=0.1337445, t_solve=0.0271991)]
        table = ComparisonTable(reports, reference="hmg")
        for row in csv.DictReader(io.StringIO(table.to_csv())):
            t_setup = float(row["t_setup_s"])
            t_solve = float(row["t_solve_s"])
            t_total = float(row["t_total_s"])
            assert t_total == pytest.approx(t_setup + t_solve, abs=1e-12)
            assert float(row["setup_frac"]) == pytest.approx(
                t_setup / t_total, abs=1e-9)

    def test_smoother_bytes_column_follows_fixed_columns(self):
        reports = [run("ldc2d", "th", 3, 1, solver)
                   for solver in ("phmg-direct", "fbf-hmg")]
        assert all(r.smoother_bytes > 0 for r in reports)
        table = ComparisonTable(reports + [synthetic_report(solver="hmg")],
                                reference="hmg")
        header = table.to_csv().splitlines()[0].split(",")
        assert header[:len(COLUMNS) + 1] == COLUMNS + ["smoother_bytes"]
        rows = list(csv.DictReader(io.StringIO(table.to_csv())))
        assert [row["smoother_bytes"] for row in rows] == [
            str(reports[0].smoother_bytes), str(reports[1].smoother_bytes),
            ""]
        cells = table.to_markdown().splitlines()[0].strip("|").split("|")
        assert [c.strip() for c in cells] == header

    def test_empty_reports_emit_header_only(self):
        table = ComparisonTable([], reference="hmg")
        assert table.to_csv() == ",".join(COLUMNS) + "\n"
        lines = table.to_markdown().splitlines()
        assert len(lines) == 2  # header + rule, no data rows
        assert lines[0].startswith("| problem")


@pytest.fixture
def runs(monkeypatch):
    """A counting stand-in for `bench.run`: the points it was asked for."""
    calls = []

    def fake_run(problem, family, k, refinements, solver, **kwargs):
        calls.append((k, refinements, solver))
        return synthetic_report(solver=solver, k=k, refinements=refinements)

    monkeypatch.setattr(bench, "run", fake_run)
    return calls


class TestSweepConfig:
    """Grids read from argument files (``stokes-bench run @FILE``): each
    key of a grid is a flag, and a line holds a flag and its values."""

    def write(self, tmp_path, text):
        path = tmp_path / "sweep.args"
        path.write_text(text)
        return str(path)

    def grid(self, **values):
        flags = dict(problem="ldc2d", family="th", k="3", refinements="1",
                     solver="hmg")
        flags.update(values)
        return "".join(f"--{flag} {value}\n" for flag, value in flags.items())

    def rejects(self, tmp_path, capsys, runs, text, message):
        """`run @FILE` exits 1 with `message` before any point runs."""
        path = self.write(tmp_path, text)
        assert bench.main(["run", "@" + path]) == 1
        err = capsys.readouterr().err
        assert message in err, err
        assert runs == []

    def test_parse(self, tmp_path):
        path = self.write(tmp_path, """
            # benchmark grid
            --problem ldc2d
            --family sv
            --k 3 4
            --refinements 1 2
            --solver hmg phmg-direct phmg-gradual
            --reference hmg
            --rtol 1e-8
            --nuh 3
            --format csv
        """)
        args = bench._build_parser().parse_args(["run", "@" + path])
        assert args.problem == "ldc2d"
        assert args.family == "sv"
        assert args.k == [3, 4]
        assert args.refinements == [1, 2]
        assert args.solver == ["hmg", "phmg-direct", "phmg-gradual"]
        assert args.reference == "hmg"
        assert args.rtol == 1e-8 and args.restart == 30
        assert args.nuh == 3 and args.nup is None
        assert args.format == "csv" and args.out is None

    def test_missing_keys(self, tmp_path, capsys, runs):
        self.rejects(tmp_path, capsys, runs, "--problem ldc2d\n",
                     "the following arguments are required: --family, --k, "
                     "--refinements, --solver")

    def test_empty_grid(self, tmp_path, capsys, runs):
        self.rejects(tmp_path, capsys, runs, self.grid(k=""),
                     "argument --k: expected at least one argument")

    def test_reference_must_be_swept(self, tmp_path, capsys, runs):
        self.rejects(tmp_path, capsys, runs,
                     self.grid(solver="phmg-direct", reference="hmg"),
                     "--reference hmg is not a --solver")

    @pytest.mark.parametrize("extra,message", [
        ("--restrat 5", "unrecognized arguments: --restrat 5"),
        ("--format CSV", "argument --format: invalid choice: 'CSV'"),
        ("--rtol 1e-8\n--rtol 1e-6", "--rtol given twice"),
        ("--k 4", "--k given twice"),
        ("--ref hmg", "unrecognized arguments: --ref hmg"),
    ], ids=["misspelt-key", "upper-case-format", "repeated-key",
            "repeated-list", "abbreviated-key"])
    def test_rejects_bad_keys_and_values(self, tmp_path, capsys, runs, extra,
                                         message):
        # a misspelt or abbreviated flag is not guessed, and a repeated
        # one does not override the first
        self.rejects(tmp_path, capsys, runs, self.grid() + extra + "\n",
                     message)

    @pytest.mark.parametrize("flag,value", [
        ("problem", "cavity"), ("family", "rt"), ("solver", "hmg amg"),
        ("reference", "amg")],
        ids=["problem-cavity", "family-rt", "solvers-hmg amg",
             "reference-amg"])
    def test_rejects_unknown_names_before_any_solve(self, tmp_path, capsys,
                                                    runs, flag, value):
        self.rejects(tmp_path, capsys, runs, self.grid(**{flag: value}),
                     f"argument --{flag}: invalid choice: ")

    def test_malformed_line(self, tmp_path, capsys, runs):
        # (after a list flag, the words would join its list, where they are
        # checked as its values)
        self.rejects(tmp_path, capsys, runs,
                     "problem ldc2d\n" + self.grid(),
                     "unrecognized arguments: problem ldc2d")

    @pytest.mark.parametrize("key,value,message", [
        ("k", "3,4", "argument --k: invalid int value: '3,4'"),
        ("refinements", "1 two",
         "argument --refinements: invalid int value: 'two'"),
        ("rtol", "1e-8 1e-6", "unrecognized arguments: 1e-6"),
        ("restart", "30.5", "argument --restart: invalid int value: '30.5'"),
        ("nv", "", "argument --nv: expected one argument"),
        ("nup", "x", "argument --nup: invalid int value: 'x'"),
        ("nuh", "2x", "argument --nuh: invalid int value: '2x'"),
    ], ids=["k-3,4", "refinements-1 two", "rtol-1e-8 1e-6", "restart-30.5",
            "nv-", "nup-x", "nuh-2x"])
    def test_malformed_number_names_file_and_key(self, tmp_path, capsys,
                                                 runs, key, value, message):
        # the key is named as its flag; an argument file's path is not
        # named, since the parser reads the file's lines as arguments (a
        # second number after a one-number flag is a stray argument)
        self.rejects(tmp_path, capsys, runs, self.grid(**{key: value}),
                     message)

    @pytest.mark.parametrize("key,value", [
        ("k", "4 11"), ("k", "1"), ("refinements", "-1"), ("nv", "0"),
        ("nup", "0"), ("nuh", "0"), ("restart", "0"), ("rtol", "-0.5"),
        ("rtol", "nan")])
    def test_out_of_range_number_fails_before_any_solve(
            self, tmp_path, capsys, runs, key, value):
        # no point runs, not even the k = 4 points before a bad k = 11, and
        # no solver is built for FGMRES to refuse restart = 0
        self.rejects(tmp_path, capsys, runs, self.grid(**{key: value}),
                     f"argument --{key}: {value.split()[-1]} is outside [")

    def test_grid_runs_k_then_refinements_then_solver(self, tmp_path, runs):
        out = tmp_path / "grid.csv"
        path = self.write(tmp_path, self.grid(
            k="3 4", refinements="1 2", solver="hmg phmg-direct",
            format="csv", out=out))
        assert bench.main(["run", "@" + path]) == 0
        assert runs == [(k, r, s) for k in (3, 4) for r in (1, 2)
                        for s in ("hmg", "phmg-direct")]
        rows = list(csv.DictReader(out.open()))
        assert [(int(row["k"]), int(row["refinements"]), row["solver"])
                for row in rows] == runs

    def test_sweep_runs_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        path = self.write(tmp_path, self.grid(
            solver="hmg phmg-direct", reference="hmg", format="csv",
            out=out))
        assert bench.main(["run", "@" + path]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [row["solver"] for row in rows] == ["hmg", "phmg-direct"]
        assert all(row["converged"] == "True" for row in rows)
        assert rows[0]["dofs"] == rows[1]["dofs"]
        assert rows[0]["r_total"] == "1.000"


class TestCLI:
    def test_run_writes_table(self, tmp_path):
        out = tmp_path / "report.csv"
        code = bench.main(["run", "--problem", "ldc2d", "--family", "th",
                           "--k", "3", "--refinements", "1", "--solver",
                           "hmg", "--format", "csv", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert rows[0]["solver"] == "hmg"
        assert rows[0]["converged"] == "True"
        assert (rows[0]["r_total"], rows[0]["r_setup"],
                rows[0]["r_solve"]) == ("1.000", "1.000", "1.000")

    def test_sweep_cli(self, tmp_path):
        args = tmp_path / "grid.args"
        out = tmp_path / "grid.csv"
        args.write_text("""
            --problem manufactured
            --family th
            --k 2
            --refinements 1
            --solver hmg
            --reference hmg
            --format csv
        """)
        code = bench.main(["run", f"@{args}", "--out", str(out)])
        assert code == 0
        assert "hmg" in out.read_text()

    def test_missing_argument_file_exits_one(self, tmp_path, capsys):
        assert bench.main(["run", f"@{tmp_path / 'none.args'}"]) == 1
        assert "No such file" in capsys.readouterr().err

    def test_reference_defaults_to_the_first_solver(self, tmp_path, runs):
        out = tmp_path / "t.csv"
        assert bench.main(["run", "--problem", "ldc2d", "--family", "th",
                           "--k", "3", "--refinements", "1", "--solver",
                           "phmg-direct", "hmg", "--format", "csv", "--out",
                           str(out)]) == 0
        rows = {row["solver"]: row for row in csv.DictReader(out.open())}
        assert rows["phmg-direct"]["r_total"] == "1.000"
        assert rows["hmg"]["r_total"] != ""

    def test_usage_error_exits_one(self, capsys):
        code = bench.main(["run", "--problem", "ldc2d"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_choice_exits_one(self, capsys):
        code = bench.main(["run", "--problem", "ldc2d", "--family", "th",
                           "--k", "3", "--refinements", "1", "--solver",
                           "ilu"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_restart_exits_one(self, capsys):
        # FGMRES with no direction per restart cycle used to spin for ever
        code = bench.main(["run", "--problem", "manufactured", "--family",
                           "th", "--k", "2", "--refinements", "1",
                           "--solver", "hmg", "--restart", "0"])
        assert code == 1
        assert ("argument --restart: 0 is outside [1, inf]"
                in capsys.readouterr().err)

    def test_mesh_dir_only_where_a_mesh_file_is_read(self, capsys):
        # a mesh directory that no mesh file is read from is an error, not
        # dropped without a word
        code = bench.main(["run", "--problem", "manufactured", "--family",
                           "th", "--k", "2", "--refinements", "1",
                           "--solver", "hmg", "--mesh-dir", DATA_DIR])
        assert code == 1
        assert ("problem 'manufactured' reads no mesh file"
                in capsys.readouterr().err)
        with pytest.raises(ValueError, match="'ldc2d' reads no mesh file"):
            bench.make_problem("ldc2d", 0, 2, "th", mesh_dir=DATA_DIR)
        bfs = bench.make_problem("bfs2d", 0, 2, "th", mesh_dir=DATA_DIR)
        assert bfs.base_mesh.num_cells > 0

    def test_nonconverged_exits_two(self, monkeypatch, tmp_path):
        stalled = synthetic_report(converged=False)
        monkeypatch.setattr(bench, "run",
                            lambda *args, **kwargs: stalled)
        code = bench.main(["run", "--problem", "ldc2d", "--family", "th",
                           "--k", "3", "--refinements", "1", "--solver",
                           "hmg", "--out", str(tmp_path / "t.md")])
        assert code == 2

    def test_stalled_solve_exits_two(self, tmp_path):
        # An unreachable tolerance forces FGMRES to hit maxiter.
        rep = run("manufactured", "th", 2, 1, "hmg", rtol=1e-16, maxiter=2)
        assert not rep.converged
        table = ComparisonTable([rep], reference="hmg")
        assert "False" in table.to_csv()
