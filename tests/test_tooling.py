"""The mesh generator under tools/ and the package's exported names."""

import importlib
import importlib.util
import os
import pkgutil

import stokesmg
from stokesmg.mesh import save_mesh
from stokesmg.problems import DATA_DIR

TOOLS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools")


def test_make_bfs_mesh_reproduces_bundled_mesh(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "make_bfs_mesh", os.path.join(TOOLS, "make_bfs_mesh.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "bfs2d_base.mesh"
    save_mesh(tool.build(), out)
    with open(os.path.join(DATA_DIR, "bfs2d_base.mesh"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_exported_names_resolve():
    missing = []
    for info in pkgutil.iter_modules(stokesmg.__path__):
        module = importlib.import_module(f"stokesmg.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert missing == []
