"""Outside-in tracer: wraps nclab entry points from the benchmark's own code.

Nothing in ``src/nclab`` knows about it.  ``Tracer.install`` replaces each
traced function in every namespace that holds a reference to it (module
globals, names imported by other modules, class attributes) and
``Tracer.remove`` puts the originals back, so untraced passes run the
unmodified program.

Every call through a wrapper records a span ``(id, parent, name, thread,
start, end)`` in a per-thread list.  Parents come from a per-thread stack; a
``parallel_map`` task started in a pool thread takes the ``parallel_map``
span as its parent, so the tree stays whole across threads.  Counters are
derived from the wrapped calls' arguments and return values.

Self time follows the blocking path of the calling thread: a span's self
time is its duration minus the time of its same-thread children.  Inside a
``parallel_map`` region of wall time W whose tasks took S thread-seconds in
total, every span under the tasks is scaled by min(1, W / S), and the
region's own self time is W minus the scaled task time.  Self times of all
spans plus the remainder of the root span then add up to the traced wall
time exactly, with or without the pool.
"""

from __future__ import annotations

import csv
import dataclasses
import inspect
import itertools
import math
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# The module each span name belongs to; direct numpy.linalg eigensolver
# calls count towards matrixcore, the layer that owns spectral work.
LAYERS = ("randmat", "matrixcore", "ncpoly", "nclaw", "gaussdisc",
          "laplacian", "control", "harness", "acceptance")
_LAYER_OF_PREFIX = {"linalg": "matrixcore"}
# Marks a patched attribute that did not exist before, so removal deletes it.
_ABSENT = object()


def layer_of(name):
    prefix = name.split(".", 1)[0]
    return _LAYER_OF_PREFIX.get(prefix, prefix)


class _WriteCounter:
    """File proxy that times ``write``/``close`` and counts characters written.

    The harness writes ASCII CSV and JSON, so characters equal bytes.
    """

    def __init__(self, tracer, fh):
        self._tracer = tracer
        self._fh = fh

    def write(self, text):
        with self._tracer.span("harness.write"):
            count = self._fh.write(text)
        self._tracer.count("harness.write.bytes", len(text))
        return count

    def close(self):
        with self._tracer.span("harness.write"):
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    """Span and counter recorder for one traced pass."""

    def __init__(self, log_dir):
        self.log_dir = log_dir
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._span_lists = []
        self._counter_list = []
        self._patches = []
        self._log_ids = itertools.count()
        self.state_bytes_max = 0
        self.pool_threads = {}   # parallel_map span id -> requested threads

    # -- recording -------------------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            local.counts = Counter()
            with self._lock:
                self._span_lists.append(local.spans)
                self._counter_list.append(local.counts)
        return local

    def span(self, name):
        return _Span(self, name)

    def count(self, key, amount=1):
        self._thread_state().counts[key] += amount

    def spans(self):
        return [s for spans in self._span_lists for s in spans]

    def counters(self):
        total = Counter()
        for counts in self._counter_list:
            total.update(counts)
        return total

    # -- patching ----------------------------------------------------------------

    def _patch(self, owners, attr, replacement):
        original = getattr(owners[0], attr)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the object the "
                                   "tracer expects; was it already patched?")
        for owner in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def _wrap(self, owners, attr, name, after=None):
        original = getattr(owners[0], attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                out = original(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        self._patch(owners, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        from nclab import (acceptance, control, gaussdisc, harness, laplacian,
                           matrixcore, nclaw, ncpoly, randmat)

        wrap = self._wrap
        cyl = laplacian.CylindricalFunction
        poly = ncpoly.NCPolynomial
        try:
            self._install_optimizer(control)
            wrap([control], "_evaluate_prepared", "control.evaluate")
            wrap([control], "_prepare_batch", "control.prepare")
            wrap([control], "_feature_scales", "control.feature_scales")
            wrap([control], "_gate_indicator", "control.gate", self._after_gate)
            wrap([control], "_word_features", "control.features")
            wrap([control], "_forward", "control.forward", self._after_forward)
            wrap([control], "_realize_controls", "control.realize")
            wrap([control], "_clip_batch", "control.clip", self._after_clip)
            wrap([control], "_pullback_clip", "control.pullback")
            wrap([control], "_chunk_cost", "control.cost")
            wrap([control], "_chunk_gradients", "control.grad")
            wrap([control], "_policy_step", "control.policy_step")
            wrap([control], "_bin_tree", "control.bin_tree")
            wrap([gaussdisc, control], "noise_table", "gaussdisc.noise_table")
            wrap([poly], "evaluate", "ncpoly.evaluate")
            wrap([poly], "evaluate_trace", "ncpoly.evaluate_trace")
            self._install_word_counter(ncpoly)
            wrap([cyl], "eval", "laplacian.eval")
            wrap([cyl], "gradient", "laplacian.gradient")
            wrap([cyl], "gue_laplacian", "laplacian.gue_laplacian")
            wrap([cyl], "free_laplacian", "laplacian.free_laplacian")
            wrap([cyl], "correction_term", "laplacian.correction")
            wrap([randmat, harness, acceptance], "sample_gue", "randmat.sample_gue")
            wrap([randmat, control, harness, gaussdisc], "sample_gue_tuple",
                 "randmat.sample_gue_tuple")
            wrap([randmat], "gue_increments", "randmat.gue_increments")
            wrap([matrixcore, control], "apply_scalar_function",
                 "matrixcore.apply_scalar_function")
            wrap([matrixcore], "eigh", "matrixcore.eigh")
            wrap([np.linalg], "eigh", "linalg.eig", self._after_eig)
            wrap([np.linalg], "eigvalsh", "linalg.eig", self._after_eig)
            wrap([nclaw], "freeness_statistic", "nclaw.freeness_statistic")
            wrap([harness], "run_config", "harness.run_config")
            wrap([harness], "_fd_laplacian", "harness.fd_laplacian")
            self._install_parallel_map(harness)
            self._install_open(harness)
            wrap([acceptance], "criterion_6", "acceptance.criterion_6")
        except BaseException:
            self.remove()
            raise

    # -- wrappers with their own logic ----------------------------------------

    def _install_optimizer(self, control):
        """Route every solve's iteration log to a file of this pass."""
        original = control.optimize_discrete_value
        signature = inspect.signature(original)

        def optimizer(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            cfg = bound.arguments.get("opt_config") or control.OptimizerConfig()
            log_path = os.path.join(self.log_dir,
                                    f"optimizer_{next(self._log_ids)}.csv")
            bound.arguments["opt_config"] = dataclasses.replace(cfg, log_path=log_path)
            with self.span("control.optimizer"):
                result = original(*bound.args, **bound.kwargs)
            self._read_optimizer_log(log_path, result.train_value)
            return result

        self._patch([control], "optimize_discrete_value", optimizer)

    def _read_optimizer_log(self, path, final_cost):
        """Iterations and accepted steps from the ``iter,batch_cost,...`` rows.

        A step was accepted when the next row's batch cost is lower; the last
        row's step was accepted when the returned training cost is lower.
        """
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        costs = [float(r["batch_cost"]) for r in rows] + [final_cost]
        accepted = sum(1 for a, b in zip(costs, costs[1:]) if b < a)
        self.count("control.optimizer.iterations", len(rows))
        self.count("control.optimizer.accepted", accepted)

    def _install_word_counter(self, ncpoly):
        """Count matmuls in ``_word_matrix``: every cache miss on a non-empty
        word costs one product, and for a one-letter word it is ``eye @ X``."""
        original = ncpoly._word_matrix

        def word_matrix(word, data, cache):
            if word and word not in cache:
                self.count("ncpoly.word_matrix.products")
                if len(word) == 1:
                    self.count("ncpoly.word_matrix.identity_products")
            return original(word, data, cache)

        self._patch([ncpoly], "_word_matrix", word_matrix)

    def _install_parallel_map(self, harness):
        original = harness.parallel_map

        def parallel_map(fn, items, threads):
            with self.span("harness.parallel_map") as region:
                self.pool_threads[region.sid] = max(1, int(threads))

                def task(item):
                    state = self._thread_state()
                    saved = state.stack
                    state.stack = [region.sid]
                    try:
                        with self.span("harness.parallel_map.task"):
                            return fn(item)
                    finally:
                        state.stack = saved

                return original(task, items, threads)

        self._patch([harness], "parallel_map", parallel_map)

    def _install_open(self, harness):
        """Shadow the builtin ``open`` inside the harness module only."""
        if hasattr(harness, "open"):
            raise RuntimeError("nclab.harness defines its own 'open'")

        def traced_open(file, mode="r", *args, **kwargs):
            if not any(flag in mode for flag in "wax+"):
                return open(file, mode, *args, **kwargs)
            with self.span("harness.write"):
                fh = open(file, mode, *args, **kwargs)
            return _WriteCounter(self, fh)

        harness.open = traced_open
        self._patches.append((harness, "open", _ABSENT))

    # -- counters from arguments and return values ------------------------------

    def _after_gate(self, args, gate):
        self.count("control.gate.samples", len(gate))
        self.count("control.gate.rejected", int(np.count_nonzero(gate == 0)))

    def _after_forward(self, args, out):
        states, alphas, _ = out
        self.count("control.tree_nodes",
                   sum(s.shape[0] * s.shape[1] for s in states))
        nbytes = sum(s.nbytes for s in states) + sum(a.nbytes for a in alphas)
        with self._lock:
            self.state_bytes_max = max(self.state_bytes_max, nbytes)

    def _after_clip(self, args, out):
        alpha, records = out
        self.count("control.clip.slots", math.prod(alpha.shape[:-2]))
        self.count("control.clip.clipped", len(records))

    def _after_eig(self, args, out):
        a = np.asarray(args[0])
        self.count("linalg.eig.matrices", math.prod(a.shape[:-2]))



class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        state = self.tracer._thread_state()
        self.sid = next(self.tracer._ids)
        self.parent = state.stack[-1] if state.stack else 0
        state.stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        state = self.tracer._thread_state()
        state.stack.pop()
        state.spans.append((self.sid, self.parent, self.name,
                            threading.get_ident(), self.start, end))
        return False


def self_times(spans):
    """Blocking-path self time per span name; see the module docstring.

    ``spans`` are ``(sid, parent, name, thread, start, end)`` tuples of one
    completed trace; the top-level spans have parent 0.
    """
    by_sid = {s[0]: s for s in spans}
    same_thread = defaultdict(float)
    cross_thread = defaultdict(float)
    children = defaultdict(list)
    for sid, parent, _, thread, start, end in spans:
        children[parent].append(sid)
        if parent in by_sid and by_sid[parent][3] != thread:
            cross_thread[parent] += end - start
        else:
            same_thread[parent] += end - start

    scale = {}
    pending = [(sid, 1.0) for sid in children[0]]
    while pending:
        sid, factor = pending.pop()
        scale[sid] = factor
        _, _, _, thread, start, end = by_sid[sid]
        tasks = cross_thread.get(sid, 0.0)
        inner = factor * min(1.0, (end - start) / tasks) if tasks else factor
        for child in children[sid]:
            same = by_sid[child][3] == thread
            pending.append((child, factor if same else inner))

    totals = defaultdict(float)
    for sid, _, name, _, start, end in spans:
        wall = end - start
        own = wall - same_thread.get(sid, 0.0) - min(wall, cross_thread.get(sid, 0.0))
        totals[name] += scale[sid] * own
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(tracer):
    """Per-layer metrics of one traced pass whose root span is the only
    top-level span.  Names follow the span names; ``layer.<module>.self_s``
    plus ``trace.unattributed_s`` (the root's own time) sum to
    ``trace.wall_s``."""
    spans = tracer.spans()
    by_sid = {s[0]: s for s in spans}
    roots = [s for s in spans if s[1] == 0]
    if len(roots) != 1:
        raise RuntimeError(f"expected one root span, found {len(roots)}")
    root = roots[0]
    totals = self_times(spans)
    calls = Counter(s[2] for s in spans)
    counts = tracer.counters()
    eig_parent = Counter(by_sid[s[1]][2] for s in spans
                         if s[2] == "linalg.eig" and s[1] in by_sid)

    m = {name + ".self_s": totals.get(name, 0.0) for name in (
        "control.forward", "control.realize", "control.cost", "control.grad",
        "control.pullback", "control.clip", "control.prepare", "control.gate",
        "control.features", "control.policy_step", "control.bin_tree",
        "ncpoly.evaluate", "ncpoly.evaluate_trace", "laplacian.eval",
        "laplacian.gradient", "laplacian.gue_laplacian",
        "laplacian.free_laplacian", "laplacian.correction",
        "harness.fd_laplacian", "randmat.sample_gue", "randmat.gue_increments",
        "linalg.eig", "matrixcore.apply_scalar_function",
        "nclaw.freeness_statistic", "harness.write")}
    m.update({name + ".calls": float(calls[name]) for name in (
        "control.evaluate", "control.policy_step", "control.bin_tree",
        "gaussdisc.noise_table", "ncpoly.evaluate", "ncpoly.evaluate_trace",
        "laplacian.eval", "laplacian.gradient", "laplacian.gue_laplacian",
        "randmat.sample_gue", "randmat.gue_increments", "linalg.eig",
        "matrixcore.apply_scalar_function", "nclaw.freeness_statistic")})

    clip_eigs = eig_parent["control.clip"]
    clipped = counts["control.clip.clipped"]
    m["control.clip.eig_calls"] = float(clip_eigs)
    m["control.clip.active_frac"] = _ratio(clipped, counts["control.clip.slots"])
    m["control.clip.useful_ratio"] = _ratio(clipped, clip_eigs)
    m["control.tree_nodes"] = float(counts["control.tree_nodes"])
    m["control.state_bytes"] = float(tracer.state_bytes_max)
    m["control.gate.eig_calls"] = float(eig_parent["control.gate"])
    m["control.gate.rejected_frac"] = _ratio(counts["control.gate.rejected"],
                                             counts["control.gate.samples"])
    m["control.optimizer.iterations"] = float(counts["control.optimizer.iterations"])
    m["control.optimizer.accepted_frac"] = _ratio(
        counts["control.optimizer.accepted"], counts["control.optimizer.iterations"])
    products = counts["ncpoly.word_matrix.products"]
    identity = counts["ncpoly.word_matrix.identity_products"]
    m["ncpoly.word_matrix.products"] = float(products)
    m["ncpoly.word_matrix.identity_products"] = float(identity)
    m["ncpoly.word_matrix.useful_ratio"] = _ratio(products - identity, products)
    m["linalg.eig.matrices"] = float(counts["linalg.eig.matrices"])

    pool_wall = busy = capacity = 0.0
    for sid, threads in tracer.pool_threads.items():
        region = by_sid[sid]
        wall = region[5] - region[4]
        pool_wall += wall
        capacity += threads * wall
    for s in spans:
        if s[2] == "harness.parallel_map.task":
            busy += s[5] - s[4]
    m["harness.parallel_map.wall_s"] = pool_wall
    m["harness.parallel_map.busy_ratio"] = _ratio(busy, capacity)
    m["harness.write.bytes"] = float(counts["harness.write.bytes"])
    m["acceptance.criterion_6.wall_s"] = sum(
        s[5] - s[4] for s in spans if s[2] == "acceptance.criterion_6")

    layers = dict.fromkeys(LAYERS, 0.0)
    for name, own in totals.items():
        if name != root[2]:
            layers[layer_of(name)] += own
    for layer, own in layers.items():
        m[f"layer.{layer}.self_s"] = own
    m["trace.unattributed_s"] = totals[root[2]]
    m["trace.wall_s"] = root[5] - root[4]
    return m
