"""Outside tracing: span recording around the public functions of each
stagebound module, installed by rebinding the module attributes that
callers look up, so the program's source is not touched.

Spans are kept in memory as (parent, name, start, end) and reduced to
per-layer metrics at the end of the run.  A boundary whose attribute no
longer exists (after a refactor renames or removes it) is recorded as
absent and reports zero instead of failing the run.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# Span name -> the attributes that callers look the function up by, as
# "<module>.<attr>" or "<module>.<Class>.<attr>" inside the stagebound
# package.  A function imported by name into another module is wrapped in
# every module that calls it.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "logic.is_tautology": (
        "logic.is_tautology",
        "stagegraph.is_tautology",
        "bounds.is_tautology",
    ),
    "logic.enumerate_satisfying_valuations": (
        "logic.enumerate_satisfying_valuations",
        "stagegraph.enumerate_satisfying_valuations",
    ),
    "stagegraph.build_stage_graph": ("stagegraph.build_stage_graph",),
    "stagegraph.build_child": ("stagegraph.build_child",),
    "stagegraph.compute_pi_nu": ("stagegraph.compute_pi_nu",),
    "stagegraph.is_stable": ("stagegraph.is_stable",),
    "stagegraph.is_dead": ("stagegraph.is_dead",),
    "stagegraph.build_transformation_graph": ("stagegraph.build_transformation_graph",),
    "stagegraph.compute_j": ("stagegraph.compute_j",),
    "stagegraph.classify_nu_mode": ("stagegraph.classify_nu_mode",),
    "stagegraph.compute_i_and_l": ("stagegraph.compute_i_and_l",),
    "bounds.is_fast": ("bounds.is_fast",),
    "bounds.is_very_fast": ("bounds.is_very_fast",),
    "bounds.aggregate": ("bounds.aggregate",),
    "verify.check_stage_graph": ("verify.check_stage_graph",),
    "verify.stage_denotation": ("verify.stage_denotation",),
    "verify.ReachGraph.sat": ("verify.ReachGraph.sat",),
    "verify.ReachGraph.box_set": ("verify.ReachGraph.box_set",),
    "verify.ReachGraph.backward_reach": ("verify.ReachGraph.backward_reach",),
    "verify.ReachGraph.almost_sure_reach": ("verify.ReachGraph.almost_sure_reach",),
    "verify.expected_steps_all": ("verify.expected_steps_all",),
    "verify.explore": ("verify.explore",),
    "verify.stable_set": ("verify.stable_set",),
    "verify.simulate": ("verify.simulate",),
    "protocol.step_distribution": ("verify.step_distribution",),
    "protocol.parse_protocol": ("protocol.parse_protocol", "corpus.parse_protocol"),
}

# The spans that call is_tautology directly: its calls and time are split
# by the enclosing one, so each entailment call site is visible.
TAUTOLOGY_PHASES = (
    "is_stable",
    "is_dead",
    "build_transformation_graph",
    "compute_j",
    "classify_nu_mode",
    "build_child",
    "is_fast",
    "is_very_fast",
    "other",
)

# Work counts taken at the boundaries: metric name -> (span, count(args, result)).
COUNTS = {
    "logic.enumerate_satisfying_valuations.results": (
        "logic.enumerate_satisfying_valuations",
        lambda args, res: len(res),
    ),
    "stagegraph.stages": ("stagegraph.build_stage_graph", lambda args, res: len(res.stages)),
    "stagegraph.children_pruned": ("stagegraph.build_child", lambda args, res: res is None),
    "verify.ReachGraph.sat.evals": ("verify.ReachGraph.sat", lambda args, res: len(args[0].nodes)),
    "verify.explore.nodes": ("verify.explore", lambda args, res: len(res.nodes)),
    "verify.simulate.interactions": ("verify.simulate", lambda args, res: sum(res.steps)),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in BOUNDARIES:
        names += [f"{span}.calls", f"{span}.total_s", f"{span}.self_s"]
    for phase in TAUTOLOGY_PHASES:
        names += [
            f"logic.is_tautology.by.{phase}.calls",
            f"logic.is_tautology.by.{phase}.total_s",
        ]
    names.append("logic.is_tautology.distinct")
    names += list(COUNTS)
    names += ["verify.simulate.interactions_per_s", "trace.overhead_s"]
    return names


class Tracer:
    """Records spans while installed on a set of stagebound modules."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float] | None] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.formulas: set = set()
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, modules: dict) -> None:
        """Wrap every boundary found in `modules` (short name -> module)."""
        self.absent = []
        for span, bindings in BOUNDARIES.items():
            for binding in bindings:
                *path, attr = binding.split(".")
                owner = modules.get(path[0])
                for part in path[1:]:
                    owner = getattr(owner, part, None)
                orig = getattr(owner, attr, None)
                if orig is None:
                    self.absent.append(binding)
                    continue
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(span, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, span: str, orig):
        counts = [(k, f) for k, (s, f) in COUNTS.items() if s == span]
        is_tautology = span == "logic.is_tautology"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(sid)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[sid] = (parent, span, start, end)
            for key, count in counts:
                self.counts[key] += count(args, result)
            if is_tautology:
                self.formulas.add(args[0])
            return result

        return wrapper

    def metrics(self, overhead_s: float, interactions_per_s: float) -> dict[str, float]:
        """Reduce the recorded spans to the metrics of `metric_names()`."""
        out = dict.fromkeys(metric_names(), 0)
        child_time = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, (parent, span, start, end) in enumerate(self.spans):
            dur = end - start
            out[f"{span}.calls"] += 1
            out[f"{span}.total_s"] += dur
            out[f"{span}.self_s"] += dur - child_time[sid]
            if span == "logic.is_tautology":
                phase = self.spans[parent][1].rsplit(".", 1)[1] if parent >= 0 else "other"
                if phase not in TAUTOLOGY_PHASES:
                    phase = "other"
                out[f"logic.is_tautology.by.{phase}.calls"] += 1
                out[f"logic.is_tautology.by.{phase}.total_s"] += dur
        out["logic.is_tautology.distinct"] = len(self.formulas)
        out.update(self.counts)
        out["verify.simulate.interactions_per_s"] = interactions_per_s
        out["trace.overhead_s"] = overhead_s
        return {k: float(v) if isinstance(v, float) else int(v) for k, v in out.items()}

    def write(self, path, meta: dict) -> None:
        """Write the spans as JSON lines, after one header line of `meta`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for sid, (parent, span, start, end) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, span, start, end]) + "\n")
