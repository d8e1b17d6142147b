"""Outside-in span tracing of the stokesmg layers.

The traced run installs timing wrappers on the library's public functions
as they are bound in the modules that call them (``stokesmg.solvers`` and
``stokesmg.assembly``), plus the hierarchy's coarse solve. Nothing in the
library changes; the untraced run installs no wrapper at all.

Spans stay in memory as ``[name, start, end, parent, n, charged_s,
charged_calls]`` and are written out when the benchmark ends. ``n`` is the
operator dimension a span worked on, which maps it to a hierarchy level.
``charged_*`` hold time and calls of the benchmark's own callbacks (the body
force) that ran inside a span without a span of their own. A span's self
time is its duration minus its children's durations minus charged time.
"""

import time
from contextlib import contextmanager

from stokesmg import assembly, solvers

FIELDS = ["name", "start", "end", "parent", "n", "charged_s", "charged_calls"]
NAME, START, END, PARENT, N, CHARGED_S, CHARGED_CALLS = range(len(FIELDS))


def _out_n(args, out):
    return out.n


def _out_rows(args, out):
    return out.shape[0]


#: (owner, attribute, span name, dimension of the operator it works on)
WRAPPED = [
    (solvers, "refine_uniform", "mesh.refine", None),
    (solvers, "refine_barycentric", "mesh.refine", None),
    (solvers, "build_space", "spaces.build", None),
    (assembly, "build_space", "spaces.build", None),
    (solvers, "assemble_stokes", "assembly.operator", _out_n),
    (solvers, "assemble_vector_laplacian", "assembly.operator", _out_rows),
    (solvers, "collect_dirichlet", "assembly.dirichlet", None),
    (solvers, "eliminate_dirichlet", "assembly.dirichlet", None),
    (assembly, "collect_dirichlet", "assembly.dirichlet", None),
    (assembly, "eliminate_dirichlet", "assembly.dirichlet", None),
    (solvers, "build_vanka_star_patches", "relaxation.patches", _out_n),
    (solvers, "build_star_patches", "relaxation.patches", _out_n),
    (solvers, "factor_patches", "relaxation.factor", _out_n),
    (solvers, "estimate_lambda_max", "linalg.eig",
     lambda args, out: args[1]),
    (solvers, "build_h_prolongation", "transfer.build", None),
    (solvers, "build_p_prolongation", "transfer.build", None),
    (solvers, "build_monolithic_transfer", "transfer.build", None),
    # the one transfer span with a dimension closes its level's group
    (solvers, "filter_dirichlet", "transfer.build", _out_rows),
    (solvers, "dense_lu", "linalg.coarse_factor",
     lambda args, out: args[0].shape[0]),
    (solvers, "assemble_pressure_mass", "solvers.schur_factor", None),
    (solvers, "splu", "solvers.schur_factor", None),
    (solvers, "asm_apply", "relaxation.apply", lambda args, out: args[0].n),
    (solvers, "chebyshev", "linalg.chebyshev",
     lambda args, out: len(args[2])),
    (solvers.MGHierarchy, "coarse_solve", "solvers.coarse", None),
]


class Tracer:
    """In-memory span recorder that wraps library functions while active."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []
        self.krylov_matvecs = 0

    def open(self, name):
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, None, 0.0, 0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        span = self.spans[index]
        span[END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def charge(self, dt):
        """Charge a callback's time and call to the innermost open span."""
        if self._stack:
            span = self.spans[self._stack[-1]]
            span[CHARGED_S] += dt
            span[CHARGED_CALLS] += 1

    def reset(self):
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans = []
        self.krylov_matvecs = 0

    def _wrap(self, fn, name, dimension):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if dimension is not None:
                tracer.spans[index][N] = dimension(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_fgmres(self, fn):
        tracer = self

        def traced(apply_K, apply_P, *args, **kwargs):
            def counted_K(v):
                tracer.krylov_matvecs += 1
                return apply_K(v)

            def spanned_P(v):
                with tracer.span("solvers.pc_apply"):
                    return apply_P(v)

            with tracer.span("linalg.krylov"):
                return fn(counted_K, spanned_P, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        """Install the wrappers; leaving the block restores the originals."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, dimension in WRAPPED:
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, dimension))
        self._originals.append((solvers, "fgmres", solvers.fgmres))
        solvers.fgmres = self._wrap_fgmres(solvers.fgmres)
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)


def self_times(spans):
    """Duration of each span minus its children and its charged time."""
    out = [s[END] - s[START] - s[CHARGED_S] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def roots(spans):
    """Index of each span's outermost ancestor (parents precede children)."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] is None else out[s[PARENT]])
    return out


def subtree_self_sum(spans, root_name):
    """(sum of self times under the root span named ``root_name``, its
    duration); equal when spans nest and every charge is accounted for."""
    r = next(i for i, s in enumerate(spans) if s[NAME] == root_name)
    own = self_times(spans)
    total = sum(t + spans[i][CHARGED_S]
                for i, (t, root) in enumerate(zip(own, roots(spans)))
                if root == r)
    return total, spans[r][END] - spans[r][START]
