"""The tools under tools/ and the package's exported names."""

import glob
import importlib
import importlib.util
import os
import pkgutil

import stokesmg
from stokesmg import relaxation, solvers
from stokesmg.bench import read_sweep_config
from stokesmg.mesh import save_mesh
from stokesmg.problems import DATA_DIR

TOOLS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, f"{name}.py"))
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
    assert solvers.factor_patches is relaxation.factor_patches


def test_exported_names_resolve():
    missing = []
    for info in pkgutil.iter_modules(stokesmg.__path__):
        module = importlib.import_module(f"stokesmg.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert missing == []


def test_checked_in_sweep_configs_parse():
    # The configs that regenerate the README's paper-claims table; they are
    # parsed here, not run.
    paths = sorted(glob.glob(os.path.join(TOOLS, "sweeps", "*.cfg")))
    grid = set()
    for path in paths:
        config = read_sweep_config(path)
        grid |= {(config["problem"], config["family"], k, r, solver)
                 for k in config["k"] for r in config["refinements"]
                 for solver in config["solvers"]}
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
