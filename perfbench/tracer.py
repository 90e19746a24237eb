"""Out-of-program tracing: spans around the public functions of each layer.

The tracer patches module and class attributes of ``discforms`` at the place
each name is looked up (``weil`` reaches ``cyclo.gauss_sum`` through the
``cyclo`` module, ``fqm`` calls ``smith_normal_form`` under its own name, and
so on), records one span per call in flat in-memory arrays, and restores
every attribute on ``uninstall``. Work that only serves the trace, such as
classifying the factor shapes of a matrix product, happens outside the timed
interval of the span it describes.

A span is (name, start, end, parent, job). Self time is a span's duration
minus the durations of its direct children.
"""

import json
import time
from array import array
from collections import defaultdict

CLOCK = time.perf_counter

# Per-layer metrics reported by a traced run: name -> unit.
LAYER_METRICS = {
    "cyclo.is_zero.calls": "count",
    "cyclo.is_zero.memo_hit_ratio": "ratio",
    "cyclo.reduce.calls": "count",
    "cyclo.reduce.self_s": "s",
    "cyclo.gauss_sum.calls": "count",
    "cyclo.gauss_sum.self_s": "s",
    "cyclo.sqrt_card.self_s": "s",
    "fqm.q_value.calls": "count",
    "fqm.q_value.self_s": "s",
    "fqm.bilinear_value.calls": "count",
    "fqm.bilinear_value.self_s": "s",
    "fqm.construct.calls": "count",
    "fqm.construct.total_s": "s",
    "fqm.elements.materialized": "count",
    "fqm.elements.total_s": "s",
    "fqm.milgram_signature.total_s": "s",
    "fqm.isotropic_subgroups.calls": "count",
    "fqm.isotropic_subgroups.total_s": "s",
    "fqm.orthogonal_complement.total_s": "s",
    "fqm.subquotient.calls": "count",
    "fqm.subquotient.total_s": "s",
    "weil.matmul.dense_dense.calls": "count",
    "weil.matmul.dense_dense.self_s": "s",
    "weil.matmul.dense_dense.term_products": "count",
    "weil.matmul.sparse_dense.calls": "count",
    "weil.matmul.sparse_dense.self_s": "s",
    "weil.matmul.sparse_dense.term_products": "count",
    "weil.matmul.sparse_sparse.calls": "count",
    "weil.matmul.sparse_sparse.self_s": "s",
    "weil.matmul.sparse_sparse.term_products": "count",
    "weil.eq.calls": "count",
    "weil.eq.self_s": "s",
    "weil.generators.total_s": "s",
    "weil.relation_report.total_s": "s",
    "qseries.reduction.calls": "count",
    "qseries.reduction.hit_ratio": "ratio",
    "qseries.reduction.self_s": "s",
    "qseries.up_arrow.self_s": "s",
    "qseries.down_arrow.self_s": "s",
    "qseries.series_eq.self_s": "s",
    "qseries.write_series.bytes": "bytes",
    "qseries.write_series.self_s": "s",
    "qseries.read_series.bytes": "bytes",
    "qseries.read_series.self_s": "s",
    "dims.dim_M.calls": "count",
    "dims.dim_M.self_s": "s",
    "intmat.smith_normal_form.calls": "count",
    "intmat.smith_normal_form.self_s": "s",
    "lattice.split_UN.total_s": "s",
    "lifts.eta_quotient.total_s": "s",
    "lifts.kernel_element.total_s": "s",
    "specfun.v_kappa.total_s": "s",
    "specfun.v_kappa.evaluations": "count",
    "cli.import_s": "s",
    "cli.spawn_to_exit_s": "s",
    "cli.main.self_s": "s",
    "cli.exit_code_mismatch": "count",
    "trace.overhead_ratio": "ratio",
}

# Metrics measured around the spans rather than from them, by run.py.
OUTSIDE_METRICS = ("cli.import_s", "cli.spawn_to_exit_s", "cli.exit_code_mismatch",
                   "trace.overhead_ratio")


def _is_sparse(matrix):
    """Every row has at most one nonzero entry (diagonal or monomial)."""
    for row in matrix.mat:
        seen = False
        for x in row:
            if x.coeffs:
                if seen:
                    return False
                seen = True
    return True


def _term_products(a, b):
    """Exponent-pair products the dense loop of a @ b performs."""
    n = len(a.mat)
    col_terms = [0] * n
    for row in a.mat:
        for t, x in enumerate(row):
            col_terms[t] += len(x.coeffs)
    return sum(col_terms[t] * sum(len(y.coeffs) for y in b.mat[t]) for t in range(n))


class Tracer:
    """Span recorder. One instance per traced process; not thread-safe."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(int)
        self.job_id = -1
        self._stack = [-1]
        self._patches = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, before=None, after=None, skip=None):
        """Return fn wrapped in a span.

        before(args) runs untimed and may return a span name overriding
        ``name``; after(args, result, state) runs untimed after a successful
        call, with state the value before returned; skip(args) true means the
        call runs without a span.
        """
        nid = self.name_id(name)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, stack = self.start, self.end, self._stack

        def wrapper(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            i = len(starts)
            names.append(self.name_id(state) if isinstance(state, str) else nid)
            parents.append(stack[-1])
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(CLOCK())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = CLOCK()
                stack.pop()
            if after is not None:
                after(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.traced = True
        return wrapper

    def patch(self, owner, attr, name, **hooks):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, **hooks))
        self._patches.append((owner, attr, original))

    def job_span(self, job_id, fn, *args):
        """Run fn(*args) as the root span of one job."""
        self.job_id = job_id
        try:
            return self.wrap("job", fn)(*args)
        finally:
            self.job_id = -1

    # -- installation ----------------------------------------------------------

    def install(self, with_cli=False):
        """Patch every traced name of the discforms layers."""
        from discforms import (_intmat, cyclo, dims, fqm, lattice, lifts, qseries,
                               specfun, weil)
        c = self.counters
        cn = cyclo.CyclotomicNumber

        def zero_before(args):
            return (bool(args[0].coeffs), c["cyclo.reduce.done"])

        def zero_after(args, result, state):
            nonempty, reduces = state
            if nonempty:
                c["cyclo.is_zero.nonempty"] += 1
                if c["cyclo.reduce.done"] == reduces:
                    c["cyclo.is_zero.memo_hits"] += 1

        def count_reduce(args, result, state):
            c["cyclo.reduce.done"] += 1

        self.patch(cn, "is_zero", "cyclo.is_zero", before=zero_before, after=zero_after)
        self.patch(cn, "reduce", "cyclo.reduce", after=count_reduce)
        self.patch(cyclo, "gauss_sum", "cyclo.gauss_sum")
        self.patch(cyclo, "sqrt_card", "cyclo.sqrt_card")

        fq = fqm.FiniteQuadraticModule
        self.patch(fq, "__init__", "fqm.construct")
        self.patch(fq, "q_value", "fqm.q_value")
        self.patch(fq, "bilinear_value", "fqm.bilinear_value")
        self.patch(fq, "elements", "fqm.elements",
                   skip=lambda args: args[0]._elements is not None)
        for fname in ("milgram_signature", "isotropic_subgroups",
                      "orthogonal_complement", "subquotient"):
            self.patch(fqm, fname, "fqm." + fname)
        for owner in (_intmat, fqm, lattice):
            self.patch(owner, "smith_normal_form", "intmat.smith_normal_form")

        def matmul_before(args):
            a, b = args
            if not isinstance(b, weil.WeilMatrix):
                return None
            sa, sb = _is_sparse(a), _is_sparse(b)
            key = "weil.matmul." + ("sparse_sparse" if sa and sb else
                                    "sparse_dense" if sa or sb else "dense_dense")
            c[key + ".term_products"] += _term_products(a, b)
            return key

        self.patch(weil.WeilMatrix, "__matmul__", "weil.matmul.other", before=matmul_before)
        self.patch(weil.WeilMatrix, "__eq__", "weil.eq")
        for fname in ("rho_S", "rho_T", "rho_Z", "aut_matrix"):
            self.patch(weil, fname, "weil.generators")
        self.patch(weil, "relation_report", "weil.relation_report")

        def reduction_before(args):
            return len(qseries._REDUCTIONS)

        def reduction_after(args, result, size):
            if len(qseries._REDUCTIONS) == size:
                c["qseries.reduction.hits"] += 1

        def write_after(args, result, state):
            c["qseries.write_series.bytes"] += len(result.encode("utf-8"))

        def read_before(args):
            c["qseries.read_series.bytes"] += len(args[0].encode("utf-8"))

        self.patch(qseries, "reduction", "qseries.reduction",
                   before=reduction_before, after=reduction_after)
        self.patch(qseries, "up_arrow", "qseries.up_arrow")
        self.patch(qseries, "down_arrow", "qseries.down_arrow")
        self.patch(qseries.VectorValuedQSeries, "__eq__", "qseries.series_eq")
        self.patch(qseries, "write_series", "qseries.write_series", after=write_after)
        self.patch(qseries, "read_series", "qseries.read_series", before=read_before)

        def evaluations_after(args, result, state):
            c["specfun.v_kappa.evaluations"] += result.evaluations

        self.patch(dims, "dim_M", "dims.dim_M")
        self.patch(lattice, "split_UN", "lattice.split_UN")
        self.patch(lifts, "eta_quotient", "lifts.eta_quotient")
        self.patch(lifts, "kernel_element", "lifts.kernel_element")
        self.patch(specfun, "v_kappa", "specfun.v_kappa", after=evaluations_after)
        if with_cli:
            from discforms import cli
            self.patch(cli, "main", "cli.main")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def export(self):
        """Spans and counters as plain lists, for JSON."""
        return {"names": list(self.names), "name": self.name.tolist(),
                "parent": self.parent.tolist(), "job": self.job.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "counters": dict(self.counters)}


def leftover_wrappers():
    """Names of discforms attributes that still hold a tracing wrapper."""
    from discforms import (_intmat, cli, cyclo, dims, fqm, lattice, lifts, qseries,
                           specfun, weil)
    owners = [_intmat, cli, cyclo, dims, fqm, lattice, lifts, qseries, specfun, weil,
              cyclo.CyclotomicNumber, fqm.FiniteQuadraticModule, weil.WeilMatrix,
              qseries.VectorValuedQSeries]
    return sorted("%s.%s" % (o.__name__, k) for o in owners
                  for k, v in vars(o).items() if getattr(v, "traced", False))


def merge(exports):
    """Concatenate exported span sets, keeping parent links and job ids."""
    out = {"names": [], "name": [], "parent": [], "job": [], "start": [], "end": [],
           "counters": defaultdict(int)}
    ids = {}
    for ex in exports:
        offset = len(out["start"])
        remap = []
        for nm in ex["names"]:
            if nm not in ids:
                ids[nm] = len(out["names"])
                out["names"].append(nm)
            remap.append(ids[nm])
        out["name"].extend(remap[i] for i in ex["name"])
        out["parent"].extend(p + offset if p >= 0 else -1 for p in ex["parent"])
        out["job"].extend(ex["job"])
        out["start"].extend(ex["start"])
        out["end"].extend(ex["end"])
        for k, v in ex["counters"].items():
            out["counters"][k] += v
    out["counters"] = dict(out["counters"])
    return out


def summarize(spans):
    """Per-layer metrics, except OUTSIDE_METRICS, from spans."""
    names, name, parent = spans["names"], spans["name"], spans["parent"]
    start, end = spans["start"], spans["end"]
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for i in range(n):
        nm = names[name[i]]
        dur = end[i] - start[i]
        calls[nm] += 1
        total[nm] += dur
        self_s[nm] += dur - child[i]
    c = defaultdict(int, spans["counters"])
    out = {}
    for metric in LAYER_METRICS:
        if metric in OUTSIDE_METRICS:
            continue
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[base]
        elif kind == "self_s":
            out[metric] = self_s[base]
        elif kind == "total_s":
            out[metric] = total[base]
        else:
            out[metric] = c[metric]
    out["fqm.elements.materialized"] = calls["fqm.elements"]
    nonempty = c["cyclo.is_zero.nonempty"]
    out["cyclo.is_zero.memo_hit_ratio"] = c["cyclo.is_zero.memo_hits"] / nonempty if nonempty else 0.0
    red = calls["qseries.reduction"]
    out["qseries.reduction.hit_ratio"] = c["qseries.reduction.hits"] / red if red else 0.0
    return out


def dump(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh, separators=(",", ":"))
