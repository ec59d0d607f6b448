"""Span recording around netctrl's layers, from outside the program.

``Tracer.install`` replaces the functions listed in ``LAYERS`` on their
modules (and wherever another netctrl module imported them by name) with
wrappers that record a span: name, start, end and the index of the enclosing
span.  ``uninstall`` puts the originals back.  A name that a future netctrl
no longer has is listed in ``missing`` rather than wrapped, so that a layer
metric reading 0 can be told apart from a layer that lost its hook.

A layer's time is the self time of its spans: a span's duration minus the
part of it that child spans of other layers cover.  Spans of one layer that
nest (``build_auxiliary_graph`` around ``_build_arrays``) count once.
"""

import contextlib
import importlib
import io
import statistics
import time

# (module, attribute path) -> layer metric its self time is charged to
LAYERS = {
    ("system", "parse_system"): "system.parse_s",
    ("system", "StructuredSystem.__post_init__"): "system.construct_s",
    ("system", "StructuredSystem.state_adjacency"): "system.adjacency_s",
    ("system", "build_graph"): "system.adjacency_s",
    ("system", "SystemGraph.adjacency"): "system.adjacency_s",
    ("flow", "preprocess_direct"): "flow.preprocess_s",
    ("flow", "build_auxiliary_graph"): "flow.build_s",
    ("flow", "_build_arrays"): "flow.build_s",
    ("flow", "max_flow"): "flow.solve_s",
    ("flow", "_solve"): "flow.solve_s",
    ("flow", "extract_linking"): "flow.extract_s",
    ("flow", "min_cut_source_set"): "flow.separator_s",
    ("flow", "minimal_left_separator"): "flow.separator_s",
    ("flow", "essential_start_analysis"): "flow.essential_s",
    ("flow", "max_linking_size"): "flow.linking_s",
    ("flow", "maximum_linking"): "flow.linking_s",
    ("controllability", "classify_nodes"): "controllability.self_s",
    ("controllability", "solve_mtcp"): "controllability.self_s",
    ("controllability", "is_functional_target_controllable"): "controllability.self_s",
    ("controllability", "is_functional_output_controllable"): "controllability.self_s",
    ("controllability", "is_structurally_controllable"): "controllability.self_s",
    ("controllability", "generic_rank"): "controllability.self_s",
    ("numeric", "instantiate"): "numeric.instantiate_s",
    ("numeric", "transfer_rank"): "numeric.transfer_rank_s",
    ("numeric", "pointwise_output_ctrb_rank"): "numeric.pointwise_rank_s",
    ("numeric", "discretize_zoh"): "numeric.zoh_s",
    ("numeric", "track_trajectory"): "numeric.track_self_s",
    ("numeric", "cross_validate"): "numeric.cross_validate_s",
    ("cli", "main"): "cli.overhead_s",
}
# counted but given no span, so their time stays with the caller
COUNTED = {("numeric", "numeric_rank"): "numeric.svd_calls"}
BUILDERS = ("flow._build_arrays", "flow.build_auxiliary_graph")

SETUP_METRICS = ("import_s", "system.parse_s", "system.construct_s")
QUERY_METRICS = (
    "system.adjacency_s", "flow.preprocess_s", "flow.build_s", "flow.solve_s",
    "flow.extract_s", "flow.separator_s", "flow.essential_s",
    "controllability.self_s", "numeric.instantiate_s", "numeric.transfer_rank_s",
    "numeric.pointwise_rank_s", "numeric.zoh_s", "numeric.track_self_s",
)


class Tracer:
    def __init__(self):
        self.nc = None
        self.spans = []      # [name, start, end, parent index, result or None]
        self.stack = []
        self.counts = {}
        self.patched = []    # (owner, attribute, original)
        self.missing = []    # "module.path -> metric" of hooks not found

    def _resolve(self, module, path):
        owner = getattr(self.nc, module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr

    def _span_wrapper(self, name, original, keep_result):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self.stack[-1] if self.stack else -1, None]
            if name == "controllability.solve_mtcp" and (
                    kwargs.get("prefer_small_index") or args[1:2] == (True,)):
                span[0] = "controllability.solve_mtcp.lexi"
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if keep_result:
                span[4] = _arc_count(result)
            return result
        return wrapper

    def _count_wrapper(self, name, original):
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    def install(self, nc):
        self.nc = nc
        importlib.import_module(nc.__name__ + ".cli")
        originals = {}
        self.missing = []
        for table, counted in ((LAYERS, False), (COUNTED, True)):
            for module, path in table:
                try:
                    owner, attr = self._resolve(module, path)
                    original = getattr(owner, attr)
                except AttributeError:
                    self.missing.append(f"{module}.{path} -> {table[(module, path)]}")
                    continue
                name = f"{module}.{path.split('.')[-1]}"
                if counted:
                    wrapper = self._count_wrapper(table[(module, path)], original)
                else:
                    wrapper = self._span_wrapper(name, original, name in BUILDERS)
                originals[id(original)] = wrapper
                self.patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        # names imported with ``from .x import f`` hold the original function
        for mod in [self.nc] + [getattr(self.nc, m) for m in
                                ("system", "flow", "controllability", "numeric", "cli")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and callable(value):
                    self.patched.append((mod, attr, value))
                    setattr(mod, attr, originals[id(value)])

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []

    def layer_times(self, first=0):
        """Self time per layer metric over spans[first:]."""
        names = {f"{m}.{p.split('.')[-1]}": metric for (m, p), metric in LAYERS.items()}
        names["controllability.solve_mtcp.lexi"] = "controllability.self_s"
        spans = self.spans
        child = [0.0] * len(spans)
        for i in range(first, len(spans)):
            _, start, end, parent, _ = spans[i]
            if parent >= first:
                child[parent] += end - start
        out = {}
        for i in range(first, len(spans)):
            name, start, end, parent, _ = spans[i]
            metric = names[name]
            out[metric] = out.get(metric, 0.0) + (end - start) - child[i]
        return out


def _arc_count(result):
    """Forward arcs of a network returned by a builder."""
    count = getattr(result, "edge_count", None)
    if count is None and isinstance(result, tuple) and len(result) > 3:
        count = len(result[3]) // 2
    return count


def outermost_builders(spans, first):
    inside = set()
    found = []
    for i in range(first, len(spans)):
        name, _, _, parent, arcs = spans[i]
        if name in BUILDERS:
            if parent in inside:
                inside.add(i)
                continue
            inside.add(i)
            found.append(arcs or 0)
    return found


def lexi_flows(spans, first):
    solves = [i for i in range(first, len(spans))
              if spans[i][0] == "controllability.solve_mtcp.lexi"]
    if not solves:
        return 0.0
    lexi = set(solves)
    flows = 0
    for i in range(first, len(spans)):
        if spans[i][0] != "flow.max_linking_size":
            continue
        j = spans[i][3]
        while j >= 0 and j not in lexi:
            j = spans[j][3]
        flows += j >= 0
    return flows / len(solves)


def cli_overhead(tracer, nc, path):
    """Median self time of ``cli.main`` over a few subcommands on ``path``,
    and each subcommand's exit code and standard output."""
    selfs, outputs = [], {}
    for sub in ("check", "solve", "classify", "linking", "separator"):
        first = len(tracer.spans)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = nc.cli.main([sub, path, "--json"])
        outputs[sub] = [code, out.getvalue()]
        selfs.append(tracer.layer_times(first).get("cli.overhead_s", 0.0))
    return statistics.median(selfs), outputs
