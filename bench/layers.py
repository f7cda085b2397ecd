"""Which rotorkit bindings the traced run wraps, and the per-layer metrics.

Every public function of a rotorkit module is wrapped under each name a
rotorkit module binds it to (``cli.assemble`` and ``spectra.assemble`` are
two bindings of one function; both record spans named
``spectra.assemble``).  Added to that: the two class attributes the
spectra layer is timed by, the CLI's runner table, and the scipy bindings
the spectra and pathintegral layers spend their time in.

Left out on purpose: the expression constructors (``add``, ``mul``, ...).
``Expr.diff`` calls them once per node it creates, millions of times in a
check suite, so they are not a layer boundary and wrapping them would
record more spans than the work being measured.
"""

import importlib
import inspect
import statistics

from tracer import self_times

MODULES = ("cli", "spectra", "pathintegral", "operators", "expressions",
           "dynamics", "geometry", "quadrature")

# expressions: only evaluate is entered from other layers
ONLY = {"expressions": {"evaluate"}}

FOREIGN = {
    "spectra": ("eigvalsh", "eigh", "eigh_tridiagonal"),
    "pathintegral": ("ive",),
}

CLASS_ATTRS = (("spectra", "SpectralGrid", "build"),
               ("spectra", "GridOperator", "symmetric_matrix"))

# peak RSS is read around every call into these layers
RSS_LAYERS = ("spectra", "pathintegral")

WORKLOADS_ALL = ("spectrum-dense", "spectrum-krylov", "identities", "slicing")
SPECTRA = ("spectrum-dense", "spectrum-krylov")
DENSE = ("spectrum-dense",)
KRYLOV = ("spectrum-krylov",)
IDENT = ("identities",)
SLICING = ("slicing",)


def modules():
    """The rotorkit modules named in MODULES, imported."""
    return {name: importlib.import_module(f"rotorkit.{name}")
            for name in MODULES}


def plan(modules):
    """[(container, key, span name)] for every binding the traced run wraps.

    ``modules`` maps the short names in MODULES to imported modules.
    """
    targets = []
    for short in MODULES:
        mod = modules[short]
        for key, val in sorted(vars(mod).items()):
            if key.startswith("_") or not inspect.isfunction(val):
                continue
            home = getattr(val, "__module__", "") or ""
            if not home.startswith("rotorkit."):
                continue
            layer = home.rsplit(".", 1)[1]
            if layer in ONLY and val.__name__ not in ONLY[layer]:
                continue
            targets.append((mod, key, f"{layer}.{val.__name__}"))
        for key in FOREIGN.get(short, ()):
            targets.append((mod, key, f"{short}.{key}"))
    for short, cls_name, attr in CLASS_ATTRS:
        cls = getattr(modules[short], cls_name)
        targets.append((cls, attr, f"{short}.{cls_name}.{attr}"))
    runners = modules["cli"]._RUNNERS
    for key, fn in sorted(runners.items()):
        targets.append((runners, key, f"cli.{fn.__name__}"))
    return targets


class Notes:
    """Sizes read from return values at layer boundaries, one command."""

    def __init__(self):
        self.matrix_order_max = 0
        self.matrix_bytes = 0
        self.sectors_scanned = 0
        self.kernels = {}          # id -> kernel, kept alive so ids stay unique
        self.kernel_build_spans = []
        self.kernel_bytes = 0
        self.bessel_elements = 0
        self.steps = 0
        self.exprs = []

    def hooks(self):
        return {
            "spectra.assemble": self._assembled,
            "spectra.sector_spectrum": self._sectors,
            "pathintegral.slice_kernel": self._kernel,
            "pathintegral.ive": self._bessel,
            "dynamics.integrate_reduced": self._trajectory,
            "dynamics.integrate_embedded_oracle": self._trajectory,
            "operators.operator_expr": self._expr,
        }

    def _assembled(self, idx, op):
        self.matrix_order_max = max(self.matrix_order_max, int(op.A.shape[0]))
        self.matrix_bytes = max(self.matrix_bytes, int(op.A.nbytes))

    def _sectors(self, idx, result):
        self.sectors_scanned += int(result.meta["sectors_scanned"])

    def _kernel(self, idx, K):
        if id(K) not in self.kernels:
            self.kernels[id(K)] = K
            self.kernel_build_spans.append(idx)
            self.kernel_bytes += int(K.nbytes)

    def _bessel(self, idx, out):
        self.bessel_elements += int(getattr(out, "size", 1))

    def _trajectory(self, idx, traj):
        self.steps += len(traj) - 1

    def _expr(self, idx, expr):
        self.exprs.append(expr)

    def summary(self):
        """JSON-ready counts; expression nodes are counted here, after the run."""
        tree = dag = 0
        for e in self.exprs:
            t, d = expr_node_counts(e)
            tree += t
            dag += d
        return {"matrix_order_max": self.matrix_order_max,
                "matrix_bytes": self.matrix_bytes,
                "sectors_scanned": self.sectors_scanned,
                "kernel_build_spans": self.kernel_build_spans,
                "kernel_bytes": self.kernel_bytes,
                "bessel_elements": self.bessel_elements,
                "steps": self.steps,
                "expr_tree_nodes": tree,
                "expr_dag_nodes": dag}


def _children(e):
    args = getattr(e, "args", None)
    if args is not None:
        return args
    base = getattr(e, "base", None)
    if base is not None:
        return (base,)
    arg = getattr(e, "arg", None)
    return () if arg is None else (arg,)


def expr_node_counts(root):
    """(nodes counted with repeats, distinct node ids) of one expression."""
    sizes = {}
    stack = [(root, False)]
    while stack:
        e, expanded = stack.pop()
        if id(e) in sizes:
            continue
        kids = _children(e)
        if expanded or not kids:
            sizes[id(e)] = 1 + sum(sizes[id(k)] for k in kids)
        else:
            stack.append((e, True))
            stack.extend((k, False) for k in kids if id(k) not in sizes)
    return sizes[id(root)], len(sizes)


def install(tracer, targets, notes):
    """Wrap every binding in ``targets`` (see plan), feeding ``notes``."""
    hooks = notes.hooks()
    for container, key, name in targets:
        tracer.wrap(container, key, name, on_result=hooks.get(name),
                    rss=name.split(".", 1)[0] in RSS_LAYERS)


# ---------------------------------------------------------------------------
# per-layer metrics
#
# (name, unit, kind, span names whose firing the metric needs, workloads
# that must fire them).  kind: "covered" = time inside the spans, nested
# calls counted once; "self" = span time minus child spans; "calls";
# "note" = a size from Notes; "rss" = peak-RSS rise inside the layer;
# "special" = computed by name below.  Counts ("calls", "note" and the
# count-valued specials) must repeat exactly between two traced runs.

def _m(name, unit, kind, spans, owners):
    return {"name": name, "unit": unit, "kind": kind, "spans": tuple(spans),
            "owners": owners}


EIGEN = ("spectra.eigvalsh", "spectra.eigh")
KERNEL = ("pathintegral.slice_kernel",)

METRICS = [
    _m("spectra.grid_build_s", "s", "covered", ["spectra.SpectralGrid.build"], DENSE),
    _m("spectra.assemble_s", "s", "covered", ["spectra.assemble"], DENSE),
    _m("spectra.symmetrize_s", "s", "covered",
       ["spectra.GridOperator.symmetric_matrix"], DENSE),
    _m("spectra.eigensolve_s", "s", "covered", EIGEN, DENSE),
    _m("spectra.extrapolate_s", "s", "covered", ["spectra.extrapolate"], DENSE),
    _m("spectra.matrix_order_max", "count", "note", ["spectra.assemble"], DENSE),
    _m("spectra.matrix_bytes", "bytes", "note", ["spectra.assemble"], DENSE),
    _m("spectra.eigensolve_calls", "count", "calls", EIGEN, DENSE),
    _m("spectra.rss_growth_mb", "MB", "rss", ["spectra."], DENSE),
    _m("spectra.lanczos_s", "s", "covered", ["spectra.lanczos_lowest"], KRYLOV),
    _m("spectra.tridiag_solves", "count", "calls", ["spectra.eigh_tridiagonal"],
       KRYLOV),
    _m("spectra.sector_s", "s", "covered", ["spectra.sector_spectrum"], KRYLOV),
    _m("spectra.sectors_scanned", "count", "note", ["spectra.sector_spectrum"],
       KRYLOV),
    _m("quadrature.nodes_s", "s", "covered", ["quadrature."],
       SPECTRA + IDENT),
    _m("pathintegral.bessel_s", "s", "covered", ["pathintegral.ive"], SLICING),
    _m("pathintegral.kernel_build_s", "s", "special", KERNEL, SLICING),
    _m("pathintegral.slice_apply_s", "s", "self", ["pathintegral.slice_step"],
       SLICING),
    _m("pathintegral.action_s", "s", "self",
       ["pathintegral.effective_hamiltonian_action"], SLICING),
    _m("pathintegral.extract_s", "s", "self",
       ["pathintegral.extract_effective_potential"], SLICING),
    _m("pathintegral.kernel_calls", "count", "calls", KERNEL, SLICING),
    _m("pathintegral.kernel_builds", "count", "special", KERNEL, SLICING),
    _m("pathintegral.kernel_hit_ratio", "ratio", "special", KERNEL, SLICING),
    _m("pathintegral.kernel_bytes", "bytes", "note", KERNEL, SLICING),
    _m("pathintegral.bessel_elements", "count", "note", ["pathintegral.ive"],
       SLICING),
    _m("pathintegral.rss_growth_mb", "MB", "rss", ["pathintegral."], SLICING),
    _m("operators.build_s", "s", "covered", ["operators.operator_expr"], IDENT),
    _m("operators.pullback_s", "s", "covered",
       ["operators.pullback_to_reduced", "operators.pullback_to_hyperspherical"],
       IDENT),
    _m("operators.harmonics_s", "s", "covered", ["operators.harmonic_polynomials"],
       IDENT),
    _m("operators.expr_tree_nodes", "count", "note", ["operators.operator_expr"],
       IDENT),
    _m("operators.expr_dag_nodes", "count", "note", ["operators.operator_expr"],
       IDENT),
    _m("expressions.evaluate_s", "s", "covered", ["expressions.evaluate"], IDENT),
    _m("expressions.evaluate_calls", "count", "calls", ["expressions.evaluate"],
       IDENT),
    _m("dynamics.reduced_s", "s", "covered", ["dynamics.integrate_reduced"], IDENT),
    _m("dynamics.oracle_s", "s", "covered", ["dynamics.integrate_embedded_oracle"],
       IDENT),
    _m("dynamics.lift_s", "s", "covered", ["dynamics.embedded_from_reduced"],
       IDENT),
    _m("dynamics.bracket_build_s", "s", "covered", ["dynamics.dirac_bracket_expr"],
       IDENT),
    _m("dynamics.steps", "count", "note",
       ["dynamics.integrate_reduced", "dynamics.integrate_embedded_oracle"], IDENT),
    _m("dynamics.lift_calls", "count", "calls", ["dynamics.embedded_from_reduced"],
       IDENT),
    _m("geometry.self_s", "s", "self", ["geometry."], IDENT),
    _m("geometry.calls", "count", "calls", ["geometry."], IDENT),
    _m("cli.self_s", "s", "special", ["cli.main"], WORKLOADS_ALL),
    _m("cli.payload_bytes", "bytes", "special", ["cli.main"], WORKLOADS_ALL),
]

TRACE_OVERHEAD = {"name": "trace.overhead_s", "unit": "s"}

COUNT_KINDS = ("calls", "note")
COUNT_SPECIALS = ("pathintegral.kernel_builds", "pathintegral.kernel_hit_ratio",
                  "cli.payload_bytes")


def is_count(metric):
    return metric["kind"] in COUNT_KINDS or metric["name"] in COUNT_SPECIALS


def matches(name, patterns):
    """Span name equals a pattern, or starts with one ending in '.'."""
    for pat in patterns:
        if name == pat or (pat.endswith(".") and name.startswith(pat)):
            return True
    return False


def _outermost(spans, patterns):
    """Indices of matching spans with no matching ancestor."""
    hit = [matches(s[0], patterns) for s in spans]
    out = []
    for i, s in enumerate(spans):
        if not hit[i]:
            continue
        parent = s[3]
        while parent >= 0 and not hit[parent]:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def command_values(cmd):
    """Per-layer values of one traced command.

    ``cmd`` holds ``spans`` (lists as recorded), ``notes`` (Notes.summary())
    and ``payload_bytes``.  Returns (values, fired span names).
    """
    spans = cmd["spans"]
    notes = cmd["notes"]
    selfs = None
    fired = {s[0] for s in spans}
    vals = {}
    for m in METRICS:
        name, kind, pats = m["name"], m["kind"], m["spans"]
        if kind == "covered":
            vals[name] = sum(spans[i][2] - spans[i][1]
                             for i in _outermost(spans, pats))
        elif kind == "self":
            if selfs is None:
                selfs = self_times(spans)
            vals[name] = sum(selfs[i] for i, s in enumerate(spans)
                             if matches(s[0], pats))
        elif kind == "calls":
            vals[name] = sum(1 for s in spans if matches(s[0], pats))
        elif kind == "note":
            vals[name] = notes[name.split(".", 1)[1]]
        elif kind == "rss":
            vals[name] = sum(spans[i][5] - spans[i][4]
                             for i in _outermost(spans, pats)) / 1024.0
    builds = notes["kernel_build_spans"]
    vals["pathintegral.kernel_build_s"] = sum(spans[i][2] - spans[i][1]
                                              for i in builds)
    vals["pathintegral.kernel_builds"] = len(builds)
    main_self = 0.0
    for i, s in enumerate(spans):
        if s[0] == "cli.main":
            runner = sum(c[2] - c[1] for c in spans
                         if c[3] == i and c[0].startswith("cli.run_"))
            main_self += (s[2] - s[1]) - runner
    vals["cli.self_s"] = main_self
    vals["cli.payload_bytes"] = cmd["payload_bytes"]
    return vals, fired


_MAX_OVER_COMMANDS = ("spectra.matrix_order_max", "spectra.matrix_bytes",
                      "spectra.rss_growth_mb", "pathintegral.rss_growth_mb")


def sequence_values(cmds):
    """Per-layer values of one traced workload sequence (all its commands)."""
    total = {m["name"]: 0 for m in METRICS}
    fired = set()
    for cmd in cmds:
        vals, f = command_values(cmd)
        fired |= f
        for name, v in vals.items():
            if name in _MAX_OVER_COMMANDS:
                total[name] = max(total[name], v)
            else:
                total[name] += v
    calls = total["pathintegral.kernel_calls"]
    builds = total["pathintegral.kernel_builds"]
    total["pathintegral.kernel_hit_ratio"] = ((calls - builds) / calls
                                              if calls else 0.0)
    return total, fired


def unmeasured(workload, fired):
    """Metrics the workload owns whose spans never fired."""
    return [m["name"] for m in METRICS if workload in m["owners"]
            and not any(matches(f, m["spans"]) for f in fired)]


def combine(sequences):
    """Median of measured values over traced sequences; counts must agree.

    Returns (values, mismatched count names).
    """
    out, mismatched = {}, []
    for m in METRICS:
        name = m["name"]
        vals = [seq[name] for seq in sequences]
        if is_count(m):
            if any(v != vals[0] for v in vals):
                mismatched.append(name)
            out[name] = vals[0]
        else:
            out[name] = statistics.median(vals)
    return out, mismatched
