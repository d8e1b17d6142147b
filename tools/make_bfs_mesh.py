"""Regenerate the bundled backward-facing-step base mesh.

The step domain is the union (-1,0)x(0,1) | (0,5)x(-1,1): flow enters
through the short channel at x=-1, drops over the step edge at the origin,
and leaves at x=5. The mesh is an unstructured Delaunay triangulation of a
deterministically jittered point lattice; boundary markers are 4 on the
inflow plane (x=-1), 2 on the outflow plane (x=5), and 1 on every wall.

Usage: python tools/make_bfs_mesh.py [out_path]
"""

import sys

import numpy as np
from scipy.spatial import Delaunay

from stokesmg.mesh import Mesh, _set_markers, save_mesh

H = 0.4          # target point spacing
JITTER = 0.22    # interior jitter as a fraction of H
SEED = 20240214

INFLOW, OUTFLOW, WALL = 4, 2, 1


def inside(x, y, margin=0.0):
    upper = (-1.0 + margin < x < 0.0 - margin) and (0.0 + margin < y < 1.0 - margin)
    main = (0.0 + margin < x < 5.0 - margin) and (-1.0 + margin < y < 1.0 - margin)
    return upper or main


def boundary_loop():
    """Corner-to-corner outline of the step domain, counterclockwise."""
    return [
        ((-1.0, 0.0), (0.0, 0.0)),   # inlet floor
        ((0.0, 0.0), (0.0, -1.0)),   # step riser
        ((0.0, -1.0), (5.0, -1.0)),  # lower wall
        ((5.0, -1.0), (5.0, 1.0)),   # outflow
        ((5.0, 1.0), (-1.0, 1.0)),   # upper wall
        ((-1.0, 1.0), (-1.0, 0.0)),  # inflow
    ]


def boundary_points():
    pts = []
    for (ax, ay), (bx, by) in boundary_loop():
        seg = np.hypot(bx - ax, by - ay)
        n = max(1, round(seg / H))
        for i in range(n):  # omit the segment end: next segment starts there
            t = i / n
            pts.append((ax + t * (bx - ax), ay + t * (by - ay)))
    return pts


def interior_points(rng):
    pts = []
    xs = np.arange(-1.0 + H, 5.0, H)
    ys = np.arange(-1.0 + H, 1.0, H)
    for x in xs:
        for y in ys:
            dx, dy = (rng.random(2) - 0.5) * 2 * JITTER * H
            px, py = x + dx, y + dy
            if inside(px, py, margin=0.55 * H):
                pts.append((px, py))
    return pts


def marker_for(mid):
    x, _ = mid
    if abs(x + 1.0) < 1e-9:
        return INFLOW
    if abs(x - 5.0) < 1e-9:
        return OUTFLOW
    return WALL


def build():
    rng = np.random.default_rng(SEED)
    pts = np.array(boundary_points() + interior_points(rng))
    tri = Delaunay(pts)
    keep = []
    for simplex in tri.simplices:
        cx, cy = pts[simplex].mean(axis=0)
        if inside(cx, cy):
            keep.append(simplex)
    cells = np.array(keep, dtype=np.int64)

    d1 = pts[cells[:, 1]] - pts[cells[:, 0]]
    d2 = pts[cells[:, 2]] - pts[cells[:, 0]]
    areas = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    flip = areas < 0
    cells[flip] = cells[flip][:, [0, 2, 1]]

    mesh = Mesh(pts, cells)
    ids = np.array(sorted(mesh.boundary_edges), dtype=np.int64)
    mids = mesh.vertices[mesh.edges[ids]].mean(axis=1)
    _set_markers(mesh, ids, [marker_for(mid) for mid in mids])
    return mesh


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "src/stokesmg/data/bfs2d_base.mesh"
    mesh = build()
    save_mesh(mesh, out)
    angles = []
    v = mesh.vertices
    for a, b, c in mesh.cells:
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            u1, u2 = v[q] - v[p], v[r] - v[p]
            cosang = u1 @ u2 / (np.linalg.norm(u1) * np.linalg.norm(u2))
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
    print(f"wrote {out}: {mesh.num_vertices} vertices, {mesh.num_cells} cells, "
          f"min angle {min(angles):.1f} deg")
