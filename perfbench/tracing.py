"""Span tracing of the coresponse layers from outside the package.

``Tracer.install`` wraps public functions of the package's modules and
rebinds every module attribute that refers to the original, so each call is
timed where its caller looks the name up (``model_select.run_ga``,
``ga.group_terms``, ``cli.louvain`` ...).  No file of the package changes.
Spans stay in memory; :func:`layer_metrics` turns them into per-layer self
times, inclusive times and counts after the traced iteration.

A span's self time is its duration minus the union of its children's
intervals.  Work that ``parallel_map`` hands to worker threads is parented
to the ``parallel_map`` span, so with two threads the children overlap and
the layer self times of that stage add up to more than its wall time.
"""

import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: metric-name prefix of each layer; names must start with a letter, so the
#: ``_kernels`` module reports as ``kernels``
LAYERS = ("tables", "ingest", "network", "kernels", "ga", "model_select",
          "evaluation", "importance", "analytics", "utils", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # [key, start, end, parent index or None]
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, key: str) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([key, perf_counter(), None,
                               stack[-1] if stack else None])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack().pop()

    def add(self, name: str, value=1) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, key, fn, hook=None):
        def traced(*args, **kwargs):
            idx = self.begin(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def _traced_parallel_map(self, orig):
        def traced(fn, items, threads=1):
            items = list(items)
            self.add("utils.parallel_items", len(items))
            idx = self.begin("utils.parallel_map")
            try:
                if threads > 1:
                    def in_worker(item):
                        self._local.stack = [idx]
                        try:
                            return fn(item)
                        finally:
                            self._local.stack = []
                    return orig(in_worker, items, threads)
                return orig(fn, items, threads)
            finally:
                self.end(idx)
        return traced

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        from coresponse import ga, utils

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "coresponse" or name.startswith("coresponse.")]
        for module_name, attr, key, hook in _TARGETS:
            orig = getattr(sys.modules[f"coresponse.{module_name}"], attr)
            self._rebind(modules, orig, self.wrap(key, orig, hook))
        orig = utils.parallel_map
        self._rebind(modules, orig, self._traced_parallel_map(orig))
        for attr in ("__init__", "evaluate"):
            orig = vars(ga.Objective)[attr]
            setattr(ga.Objective, attr, self.wrap("ga.objective", orig))
            self._undo.append((ga.Objective, attr, orig))

    def _rebind(self, modules, orig, wrapper) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, name, wrapper)
                    self._undo.append((module, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _on_read(tracer, args, kwargs, result):
    tracer.add("tables.read_bytes", _file_bytes(args[0]))


def _on_write(tracer, args, kwargs, result):
    tracer.add("tables.write_bytes", _file_bytes(args[0]))


def _on_group_terms(tracer, args, kwargs, result):
    pop = args[0]
    m, p = pop.shape
    tracer.add("kernels.group_terms_rows", m)
    tracer.add("kernels.group_terms_bits", int(result[2].sum()))
    # dense formulation x.c, (X G) . X: 2mp^2 + 4mp flops; compulsory bytes:
    # the uint8 population, G, c and the three length-m outputs
    tracer.add("kernels.group_terms_flops", 2 * m * p * p + 4 * m * p)
    tracer.add("kernels.group_terms_bytes", m * p + 8 * p * p + 8 * p + 24 * m)


def _on_enet(tracer, args, kwargs, result):
    tracer.add("kernels.enet_sweeps", int(result[2].max()))


def _on_run_ga(tracer, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    generations = len(result.history) - 1
    tracer.add("ga.generations", generations)
    tracer.add("ga.evaluations", len(result.history) * cfg.population_size)
    if generations >= cfg.max_generations:
        tracer.add("ga.stop_max_generations")
    else:
        tracer.add("ga.stop_stagnation")


def _on_louvain(tracer, args, kwargs, result):
    import numpy as np

    tracer.add("analytics.edges",
               int(np.count_nonzero(np.triu(args[0].adjacency, k=1))))


# (module, attribute, span key, count hook); keys name the layer first
_TARGETS = (
    ("tables", "read_table", "tables.read", _on_read),
    ("tables", "write_table", "tables.write", _on_write),
    ("ingest", "load_abundance", "ingest.load", None),
    ("ingest", "load_function", "ingest.load", None),
    ("ingest", "filter_sparse_taxa", "ingest.filter", None),
    ("ingest", "css_normalize", "ingest.css_normalize", None),
    ("ingest", "write_abundance", "ingest.write", None),
    ("ingest", "write_function", "ingest.write", None),
    ("network", "load_adjacency", "network.load_adjacency", None),
    ("network", "infer_network", "network.infer_network", None),
    ("network", "write_adjacency", "network.write", None),
    ("network", "write_edge_list", "network.write", None),
    ("network", "convolve", "network.convolve", None),
    ("evaluation", "convolved_matrix", "network.convolve", None),
    ("_kernels", "group_terms", "kernels.group_terms", _on_group_terms),
    ("_kernels", "enet_coordinate_descent", "kernels.enet", _on_enet),
    ("ga", "run_ga", "ga.run", _on_run_ga),
    ("model_select", "sweep_k", "model_select.sweep_k", None),
    ("model_select", "aic_for_group", "model_select.aic", None),
    ("model_select", "mu_sweep", "model_select.mu_sweep", None),
    ("model_select", "write_sweep", "model_select.write", None),
    ("evaluation", "evaluate_method", "evaluation.evaluate_method", None),
    ("evaluation", "stratified_split", "evaluation.split", None),
    ("evaluation", "paired_t_test", "evaluation.ttest", None),
    ("evaluation", "write_reports", "evaluation.write", None),
    ("evaluation", "write_t_tests", "evaluation.write", None),
    ("importance", "discover_importance", "importance.discover_importance",
     None),
    ("importance", "aggregate_importance", "importance.aggregate", None),
    ("importance", "write_group_network", "importance.write_group_network",
     None),
    ("analytics", "louvain", "analytics.louvain", _on_louvain),
    ("analytics", "modularity", "analytics.modularity", None),
    ("analytics", "centralities", "analytics.centralities", None),
    ("analytics", "locate_group", "analytics.locate", None),
    ("analytics", "write_annotated_graph", "analytics.write_graph", None),
    ("analytics", "write_clusters", "analytics.write_tables", None),
    ("analytics", "write_centralities", "analytics.write_tables", None),
    ("analytics", "write_location", "analytics.write_tables", None),
)


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_table(spans):
    """Per span key: calls, inclusive seconds and self seconds.

    Inclusive time counts only outermost spans of a key, so a key that
    nests in itself is not counted twice.  Also returns, per stage span
    (key ``cli.<stage>``), its wall time and the self time of every key
    under it.
    """
    children = defaultdict(list)
    root = [0] * len(spans)
    for i, (key, start, end, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
            root[i] = root[parent]
        else:
            root[i] = i
    keys_above = [None] * len(spans)
    table = defaultdict(lambda: [0, 0.0, 0.0])
    stages = {}
    for i, (key, start, end, parent) in enumerate(spans):
        above = frozenset() if parent is None else (
            keys_above[parent] | {spans[parent][0]})
        keys_above[i] = above
        dur = end - start
        own = dur - _union_length(children.get(i, ()), start, end)
        row = table[key]
        row[0] += 1
        if key not in above:
            row[1] += dur
        row[2] += own
        stage = spans[root[i]][0]
        if parent is None:
            stages.setdefault(stage, [0.0, Counter()])[0] += dur
        stages[stage][1][key] += own
    return dict(table), stages


def parent_keys(spans, key: str, ancestor: str) -> int:
    """How many spans of ``key`` have an ``ancestor`` span above them."""
    count = 0
    for span in spans:
        if span[0] != key:
            continue
        parent = span[3]
        while parent is not None:
            if spans[parent][0] == ancestor:
                count += 1
                break
            parent = spans[parent][3]
    return count


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one traced iteration, plus its span table."""
    table, stages = span_table(tracer.spans)
    counts = tracer.counts

    def incl(key):
        return table.get(key, (0, 0.0, 0.0))[1]

    def own(key):
        return table.get(key, (0, 0.0, 0.0))[2]

    def calls(key):
        return table.get(key, (0, 0.0, 0.0))[0]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(row[2] for key, row in table.items()
                                   if key.split(".", 1)[0] == layer)
    rows = counts["kernels.group_terms_rows"]
    generations = counts["ga.generations"]
    m.update({
        "tables.read_s": incl("tables.read"),
        "tables.read_bytes": counts["tables.read_bytes"],
        "tables.write_s": incl("tables.write"),
        "tables.write_bytes": counts["tables.write_bytes"],
        "ingest.load_s": incl("ingest.load"),
        "ingest.css_normalize_s": incl("ingest.css_normalize"),
        "network.load_adjacency_s": incl("network.load_adjacency"),
        "network.infer_network_s": incl("network.infer_network"),
        "network.convolve_s": incl("network.convolve"),
        "network.convolve_calls": calls("network.convolve"),
        "kernels.group_terms_s": incl("kernels.group_terms"),
        "kernels.group_terms_calls": calls("kernels.group_terms"),
        "kernels.group_terms_rows": rows,
        "kernels.group_terms_bits_per_row":
            counts["kernels.group_terms_bits"] / rows if rows else 0.0,
        "kernels.group_terms_flops": counts["kernels.group_terms_flops"],
        "kernels.group_terms_bytes": counts["kernels.group_terms_bytes"],
        "kernels.enet_s": incl("kernels.enet"),
        "kernels.enet_sweeps": counts["kernels.enet_sweeps"],
        "ga.runs": calls("ga.run"),
        "ga.run_s": incl("ga.run"),
        "ga.generations": generations,
        "ga.evaluations": counts["ga.evaluations"],
        "ga.objective_s": own("ga.objective"),
        "ga.overhead_ms_per_gen":
            1e3 * own("ga.run") / generations if generations else 0.0,
        "ga.stop_stagnation": counts["ga.stop_stagnation"],
        "ga.stop_max_generations": counts["ga.stop_max_generations"],
        "model_select.sweep_k_s": incl("model_select.sweep_k"),
        "model_select.aic_s": incl("model_select.aic"),
        "model_select.mu_sweep_s": incl("model_select.mu_sweep"),
        "model_select.mu_sweep_runs":
            parent_keys(tracer.spans, "ga.run", "model_select.mu_sweep"),
        "evaluation.evaluate_method_s": incl("evaluation.evaluate_method"),
        "evaluation.split_s": incl("evaluation.split"),
        "importance.discover_importance_s":
            incl("importance.discover_importance"),
        "importance.aggregate_s": incl("importance.aggregate"),
        "importance.write_group_network_s":
            incl("importance.write_group_network"),
        "analytics.louvain_s": incl("analytics.louvain"),
        "analytics.louvain_restarts":
            parent_keys(tracer.spans, "analytics.modularity",
                        "analytics.louvain"),
        "analytics.centralities_s": incl("analytics.centralities"),
        "analytics.write_graph_s": incl("analytics.write_graph"),
        "analytics.edges": counts["analytics.edges"],
        "utils.parallel_map_s": incl("utils.parallel_map"),
        "utils.parallel_items": counts["utils.parallel_items"],
    })
    detail = {
        "spans": {key: {"calls": row[0], "incl_s": row[1], "self_s": row[2]}
                  for key, row in sorted(table.items())},
        "stages": {stage: {"wall_s": wall, "self_s": dict(selfs)}
                   for stage, (wall, selfs) in stages.items()},
    }
    return m, detail
