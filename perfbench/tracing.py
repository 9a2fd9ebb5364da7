"""Spans and counts around the calls into each module of the package.

The tracer replaces a module's public functions by wrappers, at every
name under which a calling module bound them (``tau3`` as seen from both
``roots`` and ``cutprofile``, for example), and puts the originals back
when the run ends.  The package's source is not changed.

Each call records a span: name, start, end, the span that caused it and
the operation it belongs to.  Spans stay in memory, in flat arrays, and
are written out when the run ends.  A span's self time is its duration
minus the durations of its child spans; it is accumulated as the spans
close.  Per-layer figures are taken over operations that completed.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from bergersphere import cli, cutprofile, diameter, geodesic, roots, serialize

OP = "op"

# Metric name -> the (namespace, attribute) pairs through which it is called.
TARGETS = {
    "roots.tau3": [(roots, "tau3"), (cutprofile, "tau3")],
    "roots.tau_conj": [(roots, "tau_conj"), (cutprofile, "tau_conj")],
    "roots.tau3_derivative": [(cutprofile, "tau3_derivative")],
    "cutprofile.t_cut": [(cutprofile, "t_cut"), (diameter, "t_cut")],
    "cutprofile.t_cut_derivative": [(cutprofile, "t_cut_derivative")],
    "cutprofile.sample_profile": [(cli, "sample_profile")],
    "cutprofile.CutProfile.to_csv": [(cutprofile.CutProfile, "to_csv")],
    "diameter.diameter_report": [(diameter, "diameter_report")],
    "diameter.diameter_numeric": [(diameter, "diameter_numeric")],
    "diameter.diameter_closed_form": [(diameter, "diameter_closed_form")],
    "model.momentum_norm": [(cutprofile, "momentum_norm"), (geodesic, "momentum_norm")],
    "geodesic.initial_momentum": [(geodesic, "initial_momentum"), (cli, "initial_momentum")],
    "geodesic.conjugate_time_numeric": [(geodesic, "conjugate_time_numeric")],
    "geodesic.shorter_path_search": [(geodesic, "shorter_path_search")],
    "geodesic.endpoint_state": [(geodesic, "endpoint_state"), (cli, "endpoint_state")],
    "serialize.json_text": [(cutprofile, "json_text"), (diameter, "json_text"), (cli, "json_text")],
    "serialize.fmt17": [(serialize, "fmt17"), (cutprofile, "fmt17"), (cli, "fmt17")],
    "cli.main": [(cli, "main")],
}

# Calls whose returned text is the rendered output document.
_DOCUMENTS = ("serialize.json_text", "cutprofile.CutProfile.to_csv")


def _pbar3(pb) -> float:
    return abs(float(getattr(pb, "pbar3", pb)))


class Tracer:
    """In-memory spans plus per-name counts for one benchmark run."""

    def __init__(self) -> None:
        self.names = [OP] + list(TARGETS)
        self._id = {name: i for i, name in enumerate(self.names)}
        # one entry per span, in opening order
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack: list = []   # [span index, name, child time] of open spans
        self._t0 = time.perf_counter_ns()
        self.op_index = -1
        self.ops_done = 0
        self.calls: dict = defaultdict(int)
        self.self_ns: dict = defaultdict(int)
        self.edges: dict = defaultdict(int)   # (parent name, name) -> calls
        self.doc_chars = 0
        self.tau3_calls = 0
        self.tau3_distinct = 0
        self._reset_op()

    def _reset_op(self) -> None:
        self._calls: dict = defaultdict(int)
        self._self: dict = defaultdict(int)
        self._edges: dict = defaultdict(int)
        self._doc_chars = 0
        self._tau3_keys: set = set()
        self._tau3_calls = 0

    def _enter(self, name: str) -> None:
        self._stack.append([len(self.span_name), name, 0])
        self.span_name.append(self._id[name])
        self.span_start.append(time.perf_counter_ns() - self._t0)
        self.span_end.append(-1)
        self.span_parent.append(self._stack[-2][0] if len(self._stack) > 1 else -1)
        self.span_op.append(self.op_index)

    def _exit(self) -> None:
        end = time.perf_counter_ns() - self._t0
        index, name, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self._calls[name] += 1
        self._self[name] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            self._edges[(parent[1], name)] += 1

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if name in _DOCUMENTS:
                self._doc_chars += len(result)
            elif name == "roots.tau3":
                self._tau3_calls += 1
                self._tau3_keys.add((float(args[0]), _pbar3(args[1])))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, sites in TARGETS.items():
                for owner, attr in sites:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def operation(self):
        """Root span of one operation; its figures count only if it completes."""
        self.op_index += 1
        self._reset_op()
        self._enter(OP)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._exit()
            if ok:
                self._merge()

    def _merge(self) -> None:
        self.ops_done += 1
        for src, dst in ((self._calls, self.calls), (self._self, self.self_ns),
                         (self._edges, self.edges)):
            for key, value in src.items():
                dst[key] += value
        self.doc_chars += self._doc_chars
        self.tau3_calls += self._tau3_calls
        self.tau3_distinct += len(self._tau3_keys)

    def metrics(self) -> dict:
        """Per-layer figures over the completed operations."""
        ops = max(self.ops_done, 1)

        def per_op(name):
            return self.calls[name] / ops

        def self_per_call(name, scale):
            calls = self.calls[name]
            return self.self_ns[name] / calls / scale if calls else 0.0

        def self_share(prefix):
            # every span lies inside an operation, so the self times add up to the ops' time
            own = sum(v for k, v in self.self_ns.items() if k.startswith(prefix))
            total = sum(self.self_ns.values())
            return own / total if total else 0.0

        numeric = self.calls["diameter.diameter_numeric"]
        out = {
            "roots.tau3.calls": (per_op("roots.tau3"), "count"),
            "roots.tau3.us": (self_per_call("roots.tau3", 1e3), "us"),
            "roots.tau3.unique_share": (
                self.tau3_distinct / self.tau3_calls if self.tau3_calls else 0.0, "ratio"),
            "roots.tau_conj.calls": (per_op("roots.tau_conj"), "count"),
            "roots.tau_conj.us": (self_per_call("roots.tau_conj", 1e3), "us"),
            "roots.tau3_derivative.calls": (per_op("roots.tau3_derivative"), "count"),
            "roots.tau3_derivative.us": (self_per_call("roots.tau3_derivative", 1e3), "us"),
            "roots.self_share": (self_share("roots."), "ratio"),
            "cutprofile.t_cut.calls": (per_op("cutprofile.t_cut"), "count"),
            "cutprofile.t_cut.us": (self_per_call("cutprofile.t_cut", 1e3), "us"),
            "cutprofile.t_cut_derivative.us": (
                self_per_call("cutprofile.t_cut_derivative", 1e3), "us"),
            "cutprofile.sample_profile.ms": (
                self_per_call("cutprofile.sample_profile", 1e6), "ms"),
            "cutprofile.CutProfile.to_csv.ms": (
                self_per_call("cutprofile.CutProfile.to_csv", 1e6), "ms"),
            "diameter.diameter_numeric.ms": (
                self_per_call("diameter.diameter_numeric", 1e6), "ms"),
            "diameter.t_cut_per_numeric": (
                self.edges[("diameter.diameter_numeric", "cutprofile.t_cut")] / numeric
                if numeric else 0.0, "count"),
            "diameter.diameter_closed_form.us": (
                self_per_call("diameter.diameter_closed_form", 1e3), "us"),
            "model.momentum_norm.calls": (per_op("model.momentum_norm"), "count"),
            "model.momentum_norm.us": (self_per_call("model.momentum_norm", 1e3), "us"),
            "geodesic.initial_momentum.calls": (per_op("geodesic.initial_momentum"), "count"),
            "geodesic.initial_momentum.us": (
                self_per_call("geodesic.initial_momentum", 1e3), "us"),
            "geodesic.conjugate_time_numeric.ms": (
                self_per_call("geodesic.conjugate_time_numeric", 1e6), "ms"),
            "geodesic.shorter_path_search.calls": (
                per_op("geodesic.shorter_path_search"), "count"),
            "geodesic.shorter_path_search.ms": (
                self_per_call("geodesic.shorter_path_search", 1e6), "ms"),
            "geodesic.endpoint_state.ms": (self_per_call("geodesic.endpoint_state", 1e6), "ms"),
            "geodesic.self_share": (self_share("geodesic."), "ratio"),
            "serialize.json_text.ms": (self_per_call("serialize.json_text", 1e6), "ms"),
            "serialize.fmt17.calls": (per_op("serialize.fmt17"), "count"),
            "serialize.bytes_per_op": (self.doc_chars / ops, "bytes"),
            "cli.main.ms": (self_per_call("cli.main", 1e6), "ms"),
        }
        return out

    def write(self, path) -> None:
        """Write every span as CSV, times in ns from the start of the run."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            names = self.names
            for i, (nid, start, end, parent, op) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_op)):
                fh.write(f"{i},{parent},{op},{names[nid]},{start},{end}\n")

