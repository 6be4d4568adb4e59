"""Span tracing of compbss layers, installed from outside the package.

`Tracer.install` replaces every module attribute of the loaded `compbss`
modules that refers to one of the traced functions with a wrapper that
records a span, so callers that did `from .x import f` are traced too.
`Tracer.restore` puts the original functions back.  Spans stay in memory
until `dump` writes them out.  Only the traced benchmark run imports this
module.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

ROOT = "campaign"   # one root span per CLI call; its self time is the campaign loop's own


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_schedule(counts, args, kwargs, result):
    rx_w = _arg(args, kwargs, 1, "rx_w")
    counts["scheduler.schedule.cells"] += rx_w.shape[0] * rx_w.shape[1]


def _count_link_geometry(counts, args, kwargs, result):
    layout = _arg(args, kwargs, 0, "layout")
    n_points = _arg(args, kwargs, 1, "points").shape[0]
    n_images = layout.wrap_shifts.shape[0] + 1
    # The float64 (N, images, B, 2) offset array that the image search computes.
    counts["geometry.link_geometry.bytes_computed"] += n_points * n_images * layout.n_bs * 2 * 8


def _count_heuristic(counts, args, kwargs, result):
    counts["heuristic.patterns_listed"] += len(_arg(args, kwargs, 4, "patterns"))
    counts["heuristic.patterns_evaluated"] += result.patterns_evaluated


# (layer name, defining module, function names, counter)
LAYERS = (
    ("geometry.drop_users", "compbss.geometry", ("drop_users",), None),
    ("geometry.link_geometry", "compbss.geometry", ("link_geometry",), _count_link_geometry),
    ("channel.build_gain_matrix", "compbss.channel", ("build_gain_matrix",), None),
    ("scheduler.center_cluster_users", "compbss.scheduler", ("center_cluster_users",), None),
    ("scheduler.schedule", "compbss.scheduler", ("schedule",), _count_schedule),
    ("bss.evaluate_pattern", "compbss.bss", ("evaluate_pattern",), None),
    ("bss.heuristic_select", "compbss.bss", ("heuristic_select",), _count_heuristic),
    ("bss.realization_stats", "compbss.bss", ("realization_stats",), None),
    ("metrics.aggregate", "compbss.metrics", ("aggregate",), None),
    ("campaign.build_context", "compbss.campaign", ("build_context",), None),
    ("campaign.write_output", "compbss.campaign",
     ("write_rows_csv", "write_rows_json", "write_manifest"), None),
)

# A realization is one drop x fading draw: it starts with its gain matrix,
# or with its drop when the drop is the first thing drawn for it.
_STARTS_DROP = "geometry.drop_users"
_STARTS_FADING = "channel.build_gain_matrix"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, campaign, realization]
        self.counts = dict.fromkeys(("scheduler.schedule.cells",
                                     "geometry.link_geometry.bytes_computed",
                                     "heuristic.patterns_listed",
                                     "heuristic.patterns_evaluated"), 0)
        self._stack = []
        self._campaign = -1
        self._realization = -1
        self._drop_open = False
        self._patched = []       # (module, attribute, original)

    def _enter(self, name):
        if name == _STARTS_DROP:
            self._realization += 1
            self._drop_open = True
        elif name == _STARTS_FADING:
            if not self._drop_open:
                self._realization += 1
            self._drop_open = False

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self._campaign, self._realization]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result
        return traced

    def call_campaign(self, index, fn, *args):
        """Run one CLI call under a root span tagged with its campaign index."""
        self._campaign, self._realization, self._drop_open = index, -1, False
        return self.wrap(ROOT, fn)(*args)

    def install(self):
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "compbss" or name.startswith("compbss.")]
        for layer, module_name, attrs, count in LAYERS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                original = getattr(module, attr)
                traced = self.wrap(layer, original, count)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
                            self._patched.append((mod, key, original))

    def restore(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-layer metrics; layer self times plus the root's add up to the wall."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        sched_us = []
        wall = 0.0
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                wall += end - start
            if name == "scheduler.schedule":
                sched_us.append((end - start) * 1e6)
        out = {}
        for layer, *_ in LAYERS:
            s = self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.self_s"] = s
            out[f"{layer}.share"] = s / wall if wall else 0.0
        if len(sched_us) >= 2:
            q = statistics.quantiles(sched_us, n=100, method="inclusive")
            out["scheduler.schedule.p50_us"], out["scheduler.schedule.p99_us"] = q[49], q[98]
        else:
            out["scheduler.schedule.p50_us"] = out["scheduler.schedule.p99_us"] = (
                sched_us[0] if sched_us else 0.0)
        out["campaign.self_s"] = self_s.get(ROOT, 0.0)
        out["trace.wall_s"] = wall
        out["scheduler.schedule.cells"] = self.counts["scheduler.schedule.cells"]
        out["geometry.link_geometry.bytes_computed"] = (
            self.counts["geometry.link_geometry.bytes_computed"])
        listed = self.counts["heuristic.patterns_listed"]
        out["bss.heuristic_select.eval_ratio"] = (
            self.counts["heuristic.patterns_evaluated"] / listed if listed else 0.0)
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "campaign",
                                  "realization"],
                       "spans": [[n, s - t0, e - t0, p, c, r]
                                 for n, s, e, p, c, r in self.spans]}, f)
            f.write("\n")
