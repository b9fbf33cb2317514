"""Outside-in tracing of proxdenoise's public functions.

The package is not modified.  `Tracer.install` looks up each target in
TARGETS and replaces it, by object identity, at every binding across the
loaded proxdenoise modules (module globals and class attributes), so a
call through `from .conv import conv_forward` in another module is traced
as well.  A target that no longer exists is listed as absent and the
metrics it feeds read 0 instead of crashing the run.

Each call records a span: name, start, end, parent and the phase (set-up,
check or timed round) it ran in.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the time its child spans
cover.  Work counts are computed in the wrappers from argument and result
shapes; byte counts are computed from shapes and dtypes, not measured.
The time the wrappers spend on those counts is recorded as
`trace.overhead` child spans, so it leaves the parent's self time and
shows up in `trace_overhead_frac` instead.
"""

import functools
import inspect
import statistics
import sys
import time

import numpy as np

# Per-layer metrics: name, unit, better.  Every `*.self_s` is self
# seconds per timed round and every count is per timed round (a round is
# one pass over the workload's inputs); `checkpoint.*` and `dataset.make_s`
# are the median seconds of one call, since those run during set-up.
PER_LAYER = (
    ("conv.forward.self_s", "s", "lower"),
    ("conv.adjoint.self_s", "s", "lower"),
    ("conv.param_backward.self_s", "s", "lower"),
    ("conv.weight_backward.self_s", "s", "lower"),
    ("conv.gmacs", "GMAC", "lower"),
    ("rbf.forward.self_s", "s", "lower"),
    ("rbf.backward.self_s", "s", "lower"),
    ("rbf.clip.self_s", "s", "lower"),
    ("rbf.kernel_evals_g", "G", "lower"),
    ("rbf.cache_mb", "MB", "lower"),
    ("rbf.clip_saturated_frac", "frac", "lower"),
    ("grouping.block_match.self_s", "s", "lower"),
    ("grouping.block_match.sites", "count", "lower"),
    ("grouping.block_match.candidates", "count", "lower"),
    ("grouping.filter.self_s", "s", "lower"),
    ("grouping.adjoint.self_s", "s", "lower"),
    ("grouping.bilinear.self_s", "s", "lower"),
    ("grouping.gathered_mb", "MB", "lower"),
    ("projection.self_s", "s", "lower"),
    ("projection.active_frac", "frac", "lower"),
    ("network.self_s", "s", "lower"),
    ("network.tape_mb", "MB", "lower"),
    ("network.stage.calls", "count", "lower"),
    ("training.self_s", "s", "lower"),
    ("training.loss.self_s", "s", "lower"),
    ("training.adam.self_s", "s", "lower"),
    ("training.awgn.self_s", "s", "lower"),
    ("training.samples", "count", "higher"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("netpbm.read_s", "s", "lower"),
    ("netpbm.write_s", "s", "lower"),
    ("dataset.make_s", "s", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
)

OVERHEAD = "trace.overhead"
ROUND = "bench.round"


# ------------------------------------------------------------ work counters
# Each counter gets the call's bound arguments (defaults applied) and its
# result, and adds to the per-phase Counts.


def _conv_macs(arg):
    def count(counts, a, result):
        feature_map = result if arg is None else np.asarray(a[arg])
        counts.add("conv.macs", feature_map.size * a["bank"].raw.shape[1])

    return count


def _rbf_forward(counts, a, result):
    counts.add("rbf.kernel_evals", np.asarray(a["z"]).size * a["mix"].centers.size)
    if isinstance(result, tuple) and result[1] is not None:
        counts.add("rbf.cache_bytes", result[1].nbytes)


def _rbf_backward(counts, a, result):
    if a["cache"] is None:  # the exponentials are evaluated again
        counts.add("rbf.kernel_evals", np.asarray(a["z"]).size * a["mix"].centers.size)


def _clip_forward(counts, a, result):
    lo, hi = a["lo"], a["hi"]
    if lo == -hi:  # the symmetric clip in front of the RBF, not the output clip
        z = np.asarray(a["z"])
        counts.add("rbf.clip_saturated", int(np.count_nonzero((z <= lo) | (z >= hi))))
        counts.add("rbf.clip_inputs", z.size)


def _window_population(grid, radius):
    return sum(min(grid, i + radius + 1) - max(0, i - radius) for i in range(grid))


def _block_match(counts, a, table):
    sites = table.indices.shape[0]
    wh, ww = a["window_hw"]
    per_row = _window_population(table.grid_h, wh // 2)
    per_col = _window_population(table.grid_w, ww // 2)
    counts.add("grouping.sites", sites)
    counts.add("grouping.candidates", per_row * per_col - sites)  # the site itself is no candidate


def _gathered(arg):
    def count(counts, a, result):
        feats = np.asarray(a[arg])
        counts.add("grouping.gathered_bytes", a["table"].indices.size * feats.shape[-1] * feats.itemsize)

    return count


def _project(counts, a, result):
    residual = float(np.linalg.norm(np.asarray(a["v"]) - np.asarray(a["y"])))
    counts.add("projection.calls", 1)
    counts.add("projection.active", int(residual > a["radius"]))


def _array_bytes(obj, seen, depth=0):
    """Bytes of the distinct array buffers reachable from obj."""
    if isinstance(obj, np.ndarray):
        owner = obj
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        if id(owner) in seen:
            return 0
        seen.add(id(owner))
        return owner.nbytes
    if depth > 3:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v, seen, depth + 1) for v in obj)
    if hasattr(obj, "__dict__"):
        return sum(_array_bytes(v, seen, depth + 1) for v in vars(obj).values())
    return 0


def _network_forward(counts, a, result):
    if a["want_tape"]:
        counts.peak("network.tape_bytes", _array_bytes(result[1], set()))


def _stage_call(counts, a, result):
    counts.add("network.stage_calls", 1)


def _sample(counts, a, result):
    counts.add("training.samples", 1)


# module, qualified name, span name, metric that takes its self time, counter
TARGETS = (
    ("proxdenoise.conv", "conv_forward", "conv.forward", "conv.forward.self_s", _conv_macs(None)),
    ("proxdenoise.conv", "conv_adjoint", "conv.adjoint", "conv.adjoint.self_s", _conv_macs("z")),
    ("proxdenoise.conv", "conv_param_backward", "conv.param_backward",
     "conv.param_backward.self_s", _conv_macs("z")),
    ("proxdenoise.conv", "weight_backward", "conv.weight_backward",
     "conv.weight_backward.self_s", None),
    ("proxdenoise.rbf", "rbf_forward", "rbf.forward", "rbf.forward.self_s", _rbf_forward),
    ("proxdenoise.rbf", "rbf_backward", "rbf.backward", "rbf.backward.self_s", _rbf_backward),
    ("proxdenoise.rbf", "clip_forward", "rbf.clip_forward", "rbf.clip.self_s", _clip_forward),
    ("proxdenoise.rbf", "clip_backward", "rbf.clip_backward", "rbf.clip.self_s", None),
    ("proxdenoise.grouping", "block_match", "grouping.block_match",
     "grouping.block_match.self_s", _block_match),
    ("proxdenoise.grouping", "group_filter", "grouping.filter", "grouping.filter.self_s",
     _gathered("features")),
    ("proxdenoise.grouping", "group_filter_adjoint", "grouping.adjoint", "grouping.adjoint.self_s",
     _gathered("z")),
    ("proxdenoise.grouping", "group_bilinear", "grouping.bilinear", "grouping.bilinear.self_s",
     _gathered("a")),
    ("proxdenoise.projection", "ball_radius", "projection.ball_radius", "projection.self_s", None),
    ("proxdenoise.projection", "project", "projection.project", "projection.self_s", _project),
    ("proxdenoise.projection", "project_input_backward", "projection.input_backward",
     "projection.self_s", None),
    ("proxdenoise.projection", "project_param_backward", "projection.param_backward",
     "projection.self_s", None),
    ("proxdenoise.network", "network_forward", "network.forward", "network.self_s",
     _network_forward),
    ("proxdenoise.network", "network_backward", "network.backward", "network.self_s", None),
    ("proxdenoise.network", "composite_forward", "network.stage.forward", "network.self_s",
     _stage_call),
    ("proxdenoise.network", "composite_backward", "network.stage.backward", "network.self_s", None),
    ("proxdenoise.network", "match_table", "network.match_table", "network.self_s", None),
    ("proxdenoise.network", "noise_estimate_trace", "network.noise_estimate_trace",
     "network.self_s", None),
    ("proxdenoise.network", "forward_with_residuals", "network.forward_with_residuals",
     "network.self_s", None),
    ("proxdenoise.training", "train_full", "training.train_full", "training.self_s", None),
    ("proxdenoise.training", "greedy_train", "training.greedy", "training.self_s", None),
    ("proxdenoise.training", "joint_train", "training.joint", "training.self_s", None),
    ("proxdenoise.training", "psnr_loss", "training.loss", "training.loss.self_s", _sample),
    ("proxdenoise.training", "Adam.step", "training.adam", "training.adam.self_s", None),
    ("proxdenoise.training", "awgn", "training.awgn", "training.awgn.self_s", None),
    ("proxdenoise.checkpoint", "load_checkpoint", "checkpoint.load", "checkpoint.load_s", None),
    ("proxdenoise.checkpoint", "save_checkpoint", "checkpoint.save", "checkpoint.save_s", None),
    ("proxdenoise.netpbm", "read_image", "netpbm.read", "netpbm.read_s", None),
    ("proxdenoise.netpbm", "write_image", "netpbm.write", "netpbm.write_s", None),
    ("proxdenoise.dataset", "make_dataset", "dataset.make", "dataset.make_s", None),
)

# metric -> count keys it is computed from; the metric is absent when a
# target feeding one of these keys is absent or its counter failed
_COUNT_SOURCES = {
    "conv.gmacs": ("conv.forward", "conv.adjoint", "conv.param_backward"),
    "rbf.kernel_evals_g": ("rbf.forward", "rbf.backward"),
    "rbf.cache_mb": ("rbf.forward",),
    "rbf.clip_saturated_frac": ("rbf.clip_forward",),
    "grouping.block_match.sites": ("grouping.block_match",),
    "grouping.block_match.candidates": ("grouping.block_match",),
    "grouping.gathered_mb": ("grouping.filter", "grouping.adjoint", "grouping.bilinear"),
    "projection.active_frac": ("projection.project",),
    "network.tape_mb": ("network.forward",),
    "network.stage.calls": ("network.stage.forward",),
    "training.samples": ("training.loss",),
}

# metrics that are the median of one call rather than a per-round total
_PER_CALL = ("checkpoint.load_s", "checkpoint.save_s", "dataset.make_s")


class Counts:
    def __init__(self):
        self.sums = {}
        self.peaks = {}

    def add(self, key, value):
        self.sums[key] = self.sums.get(key, 0) + value

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, 0), value)


def _resolve(module_name, qualname):
    obj = sys.modules.get(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, phase]
        self.phase = "setup"
        self.counts = {}  # phase -> Counts
        self.absent = []  # span names whose target was not found
        self.count_errors = {}  # span name -> first counter error
        self.span_cost = 0.0  # seconds of bookkeeping per span, from calibrate()
        self._stack = []
        self._restore = []

    # -------------------------------------------------------------- spans

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _count(self, name, counter, signature, args, kwargs, result):
        start = time.perf_counter()
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counter(self.counts.setdefault(self.phase, Counts()), bound.arguments, result)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            # a renamed argument or field must not stop the run
            self.count_errors.setdefault(name, repr(exc))
        parent = self._stack[-1] if self._stack else None
        self.spans.append([OVERHEAD, start, time.perf_counter(), parent, self.phase])

    def _wrap(self, fn, name, counter):
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self._count(name, counter, signature, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------ install/remove

    def install(self):
        """Wrap every target at every binding in the loaded proxdenoise modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "proxdenoise" or n.startswith("proxdenoise."))]
        namespaces = []
        for mod in modules:
            namespaces.append(mod)
            namespaces.extend(v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__.startswith("proxdenoise"))
        for module_name, qualname, name, _, counter in TARGETS:
            original = _resolve(module_name, qualname)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name, counter)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._restore.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    def calibrate(self, calls=5000):
        """Measure the bookkeeping cost of one span on a wrapped no-op."""
        def noop():
            pass

        def loop(fn):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            return time.perf_counter() - start

        phase, self.phase = self.phase, "calibrate"
        traced = loop(self._wrap(noop, "calibrate", None))
        self.phase = phase
        self.spans = [s for s in self.spans if s[4] != "calibrate"]
        self.span_cost = max(traced - loop(noop), 0.0) / calls

    # ------------------------------------------------------------- metrics

    def self_times(self):
        """Self time of every span, by span index."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def metrics(self, rounds):
        """Per-layer metrics over the given timed-round phases."""
        metric_of = {t[2]: t[3] for t in TARGETS}
        selfs = self.self_times()
        per_round = {r: {} for r in rounds}
        per_call = {}
        wall = overhead = 0.0
        for (name, start, end, _, phase), self_s in zip(self.spans, selfs):
            metric = metric_of.get(name)
            if metric in _PER_CALL:
                per_call.setdefault(metric, []).append(end - start)
            if phase not in per_round:
                continue
            if name == ROUND:
                wall += end - start
            elif name == OVERHEAD:
                overhead += end - start
            else:
                overhead += self.span_cost
                if metric is not None and metric not in _PER_CALL:
                    per_round[phase][metric] = per_round[phase].get(metric, 0.0) + self_s

        def median_of(values):
            return statistics.median(values) if values else 0.0

        counts = [self.counts.get(r, Counts()) for r in rounds]

        def count(key):
            return median_of([c.sums.get(key, 0) for c in counts])

        def frac(num, den):
            total = sum(c.sums.get(den, 0) for c in counts)
            return sum(c.sums.get(num, 0) for c in counts) / total if total else 0.0

        out = {}
        for metric, _, _ in PER_LAYER:
            if metric in _PER_CALL:
                out[metric] = median_of(per_call.get(metric, []))
            elif metric.endswith("_s"):
                out[metric] = median_of([per_round[r].get(metric, 0.0) for r in rounds])
        out.update({
            "conv.gmacs": count("conv.macs") / 1e9,
            "rbf.kernel_evals_g": count("rbf.kernel_evals") / 1e9,
            "rbf.cache_mb": count("rbf.cache_bytes") / 1e6,
            "rbf.clip_saturated_frac": frac("rbf.clip_saturated", "rbf.clip_inputs"),
            "grouping.block_match.sites": count("grouping.sites"),
            "grouping.block_match.candidates": count("grouping.candidates"),
            "grouping.gathered_mb": count("grouping.gathered_bytes") / 1e6,
            "projection.active_frac": frac("projection.active", "projection.calls"),
            "network.tape_mb": max((c.peaks.get("network.tape_bytes", 0) for c in counts),
                                   default=0) / 1e6,
            "network.stage.calls": count("network.stage_calls"),
            "training.samples": count("training.samples"),
        })
        out["trace_overhead_frac"] = overhead / wall if wall else 0.0
        return out

    def absent_metrics(self):
        """Metrics that read 0 because a target or its counter is missing."""
        missing = set(self.absent) | set(self.count_errors)
        absent = [t[3] for t in TARGETS if t[2] in self.absent]
        absent += [m for m, sources in _COUNT_SOURCES.items() if missing & set(sources)]
        return sorted(set(absent))

    def dump(self):
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "phase": ph}
                      for n, s, e, p, ph in self.spans],
            "absent_targets": self.absent,
            "counter_errors": self.count_errors,
            "span_cost_s": self.span_cost,
        }
