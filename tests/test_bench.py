"""Benchmark harness tests: report integrity, relative metrics, table
emission, sweep configs, and CLI exit codes."""

import csv
import io

import numpy as np
import pytest

from stokesmg import bench
from stokesmg.bench import (COLUMNS, ComparisonTable, RunReport,
                            read_sweep_config, relative_metrics, run, sweep)
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


class TestSweepConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        return str(path)

    def test_parse(self, tmp_path):
        path = self.write(tmp_path, """
            # benchmark grid
            problem = ldc2d
            family = sv
            k = 3 4
            refinements = 1 2
            solvers = hmg phmg-direct phmg-gradual
            reference = hmg
            rtol = 1e-8
            nuh = 3
            format = csv
        """)
        cfg = read_sweep_config(path)
        assert cfg["problem"] == "ldc2d"
        assert cfg["family"] == "sv"
        assert cfg["k"] == [3, 4]
        assert cfg["refinements"] == [1, 2]
        assert cfg["solvers"] == ["hmg", "phmg-direct", "phmg-gradual"]
        assert cfg["reference"] == "hmg"
        assert cfg["rtol"] == 1e-8
        assert cfg["nu_h"] == 3 and cfg["nu_p"] is None
        assert cfg["format"] == "csv" and cfg["out"] is None

    def test_missing_keys(self, tmp_path):
        path = self.write(tmp_path, "problem = ldc2d\n")
        with pytest.raises(ValueError, match="missing"):
            read_sweep_config(path)

    def test_empty_grid(self, tmp_path):
        path = self.write(tmp_path, """
            problem = ldc2d
            family = th
            k =
            refinements = 1
            solvers = hmg
            reference = hmg
        """)
        with pytest.raises(ValueError, match="empty"):
            read_sweep_config(path)

    def test_reference_must_be_swept(self, tmp_path):
        path = self.write(tmp_path, """
            problem = ldc2d
            family = th
            k = 3
            refinements = 1
            solvers = phmg-direct
            reference = hmg
        """)
        with pytest.raises(ValueError, match="reference"):
            read_sweep_config(path)

    def grid(self, **values):
        keys = dict(problem="ldc2d", family="th", k="3", refinements="1",
                    solvers="hmg", reference="hmg")
        keys.update(values)
        return "".join(f"{key} = {value}\n" for key, value in keys.items())

    @pytest.mark.parametrize("extra,message", [
        ("restrat = 5", "unknown key 'restrat'"),
        ("format = CSV", "unknown format 'CSV'"),
        ("rtol = 1e-8\nrtol = 1e-6", "key 'rtol' given twice"),
    ], ids=["misspelt-key", "upper-case-format", "repeated-key"])
    def test_rejects_bad_keys_and_values(self, tmp_path, extra, message):
        # each of these used to parse: the misspelt restart and the first
        # rtol were dropped, and CSV gave markdown output
        path = self.write(tmp_path, self.grid() + extra + "\n")
        with pytest.raises(ValueError, match=message):
            read_sweep_config(path)

    @pytest.mark.parametrize("key,value", [
        ("problem", "cavity"), ("family", "rt"), ("solvers", "hmg amg")])
    def test_rejects_unknown_names_before_any_solve(self, tmp_path,
                                                    monkeypatch, key, value):
        runs = []

        def fake_run(*args, **kwargs):
            runs.append(args)
            return synthetic_report()

        monkeypatch.setattr(bench, "run", fake_run)
        path = self.write(tmp_path, self.grid(**{key: value}))
        assert bench.main(["sweep", "--config", path]) == 1
        assert runs == []

    def test_malformed_line(self, tmp_path):
        path = self.write(tmp_path, "problem ldc2d\n")
        with pytest.raises(ValueError, match="key = value"):
            read_sweep_config(path)

    @pytest.mark.parametrize("key,value", [
        ("k", "3,4"), ("refinements", "1 two"), ("rtol", "1e-8 1e-6"),
        ("restart", "30.5"), ("nv", ""), ("nup", "x"), ("nuh", "2x")])
    def test_malformed_number_names_file_and_key(self, tmp_path, capsys,
                                                 key, value):
        # bare int()/float() used to print e.g. "invalid literal for int()
        # with base 10: '3,4'", with neither the file nor the key
        path = self.write(tmp_path, self.grid(**{key: value}))
        assert bench.main(["sweep", "--config", path]) == 1
        err = capsys.readouterr().err
        assert f"{path}: key {key!r} has a malformed number" in err

    def test_sweep_runs_grid(self, tmp_path):
        path = self.write(tmp_path, """
            problem = ldc2d
            family = th
            k = 3
            refinements = 1
            solvers = hmg phmg-direct
            reference = hmg
        """)
        reports = sweep(read_sweep_config(path))
        assert [r.solver for r in reports] == ["hmg", "phmg-direct"]
        assert all(r.converged for r in reports)
        assert reports[0].dofs == reports[1].dofs


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
        cfg = tmp_path / "grid.cfg"
        out = tmp_path / "grid.csv"
        cfg.write_text(f"""
            problem = manufactured
            family = th
            k = 2
            refinements = 1
            solvers = hmg
            reference = hmg
            format = csv
            out = {out}
        """)
        code = bench.main(["sweep", "--config", str(cfg)])
        assert code == 0
        assert "hmg" in out.read_text()

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
        assert "restart must be >= 1" in capsys.readouterr().err

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
