"""The tools under tools/, the benchmark's tracer on the FBF path, and the
package's exported names."""

import glob
import importlib
import importlib.util
import os
import pkgutil
import re
import shlex

import pytest

import stokesmg
from stokesmg import bench, relaxation, solvers
from stokesmg.mesh import save_mesh
from stokesmg.problems import DATA_DIR, lid_driven_cavity

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def load_tool(name, directory=TOOLS):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(directory, f"{name}.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_make_bfs_mesh_reproduces_bundled_mesh(tmp_path):
    tool = load_tool("make_bfs_mesh")
    out = tmp_path / "bfs2d_base.mesh"
    save_mesh(tool.build(), out)
    with open(os.path.join(DATA_DIR, "bfs2d_base.mesh"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_setup_peaks_reports_every_level_and_restores_solvers(capsys):
    tool = load_tool("setup_peaks")
    assert tool.main(["--problem", "ldc2d", "--family", "th", "--k", "3",
                      "--refinements", "1", "--solver", "fbf-phmg"]) == 0
    out = capsys.readouterr().out
    for row in ("| l0 | assembly |", "| l0 | factor |", "| l0 | lambda |",
                "| l0 | transfer |", "| l2 | coarse factor |",
                "| outer | assembly |", "| outer | schur factor |",
                "| build_solver |", "| solve_stokes |"):
        assert row in out
    # the level table comes first: level_summary()'s kind, degree, DoFs,
    # patches, inverses and smoother MB, one row per level
    _, pc = solvers.build_solver(lid_driven_cavity(1, 3), 1, "fbf-phmg")
    expected = [[f"l{i}", kind, str(k), str(n), str(patches), str(inverses),
                 f"{stored * 1e-6:.2f}"]
                for i, (kind, _, k, _, n, patches, inverses, stored)
                in enumerate(pc.inner.level_summary())]
    cells = [[cell.strip() for cell in line.split("|")[1:-1]]
             for line in out.split("\n\n")[0].splitlines()[1:]]
    assert cells[0] == ["level", "kind", "degree", "DoFs", "patches",
                        "inverses", "smoother MB"]
    assert cells[2:] == expected
    # the last line is the ratio of the two phases' traced-at-peak MB,
    # which the table rounds to 0.1 MB
    setup, solve = [float(line.split("|")[4]) for line in out.splitlines()
                    if line.startswith(("| build_solver |",
                                        "| solve_stokes |"))]
    label, ratio = out.splitlines()[-1].split(": ")
    assert label == "setup / solve traced peak"
    assert ((setup - 0.05) / (solve + 0.05) - 5e-4 <= float(ratio)
            <= (setup + 0.05) / (solve - 0.05) + 5e-4)
    assert solvers.factor_patches is relaxation.factor_patches


@pytest.mark.parametrize("flag,values", [
    ("--k", ["3", "4"]), ("--refinements", ["0", "1"]),
    ("--solver", ["hmg", "phmg-direct"])])
def test_setup_peaks_measures_one_point(capsys, flag, values):
    tool = load_tool("setup_peaks")
    point = {"--problem": ["ldc2d"], "--family": ["th"], "--k": ["3"],
             "--refinements": ["1"], "--solver": ["hmg"], flag: values}
    assert tool.main([a for f, v in point.items() for a in (f, *v)]) == 1
    assert f"error: {flag} takes one value here" in capsys.readouterr().err
    args = tool.parse(["--problem", "ldc2d", "--family", "th", "--k", "3",
                       "--refinements", "1", "--solver", "hmg"])
    assert (args.k, args.refinements, args.solver) == (3, 1, "hmg")


def test_tracer_spans_every_level_of_the_fbf_path():
    # the benchmark's per-layer metrics map spans to levels by dimension;
    # the FBF workloads build velocity-only levels, which the tiny
    # benchmark self-test (monolithic hMG) never traces
    tr = load_tool("tracer", os.path.join(ROOT, "perfbench"))
    bound = [(owner, attr, getattr(owner, attr))
             for owner, attr, _, _ in tr.WRAPPED]
    bound.append((solvers, "fgmres", solvers.fgmres))
    with tr.Tracer() as tracer:
        _, pc = solvers.build_solver(lid_driven_cavity(1, 3), 1, "fbf-phmg")
    spans = {(s[tr.NAME], s[tr.N]) for s in tracer.spans}
    levels = pc.inner.levels
    assert len(levels) == 3
    for level in levels[:-1]:
        for name in ("assembly.operator", "relaxation.patches",
                     "relaxation.factor", "linalg.eig", "transfer.build"):
            assert (name, level.n) in spans, (name, level.n)
    assert ("assembly.operator", levels[-1].n) in spans
    assert ("linalg.coarse_factor", levels[-1].n) in spans
    assert any(name == "solvers.schur_factor" for name, _ in spans)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in bound)


def test_exported_names_resolve():
    missing = []
    for info in pkgutil.iter_modules(stokesmg.__path__):
        module = importlib.import_module(f"stokesmg.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert missing == []


def test_checked_in_sweep_configs_parse():
    # The argument files that regenerate the README's paper-claims table;
    # they are parsed here, not run.
    paths = sorted(glob.glob(os.path.join(TOOLS, "sweeps", "*.args")))
    grid = set()
    for path in paths:
        args = bench._build_parser().parse_args(["run", "@" + path])
        assert args.reference in args.solver and args.format == "markdown"
        grid |= {(args.problem, args.family, k, r, solver)
                 for k in args.k for r in args.refinements
                 for solver in args.solver}
    claims = [("ldc2d", "th", k, 2, s) for k in (4, 7)
              for s in ("hmg", "phmg-direct")]
    claims += [("bfs2d", "th", k, 1, s) for k in (4, 7)
               for s in ("hmg", "phmg-direct")]
    claims += [(p, "sv", 4, r, s) for p, r in (("ldc2d", 2), ("bfs2d", 1))
               for s in ("phmg-direct", "fbf-phmg")]
    claims += [(p, "th", 7, r, "phmg-gradual")
               for p, r in (("ldc2d", 2), ("bfs2d", 1))]
    assert len(paths) == 4
    assert set(claims) <= grid


def test_readme_commands_parse(monkeypatch):
    # every stokes-bench command line in the README's code blocks parses
    # (run from the repository root, where its @FILE paths point); none
    # is run
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.M | re.S)
    commands = [shlex.split(line) for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("stokes-bench ")]
    monkeypatch.chdir(ROOT)
    for argv in commands:
        bench._build_parser().parse_args(argv[1:])
    assert len(commands) >= 6
