"""Spans recorded from outside the library, by wrapping its public functions.

Each entry of ``WRAPS`` names a function by the module attribute its caller
looks up at call time (``harness.run_tracking`` is what ``run_trial`` calls),
so replacing that attribute puts a span around every call.  A span is
``[name, start, end, parent, frame]``; ``frame`` numbers the (trial, user)
tracking frames and is -1 outside ``run_trial``.  A layer's self time is its
span time minus the time of its child spans.

Installing fails if a wrapped attribute no longer exists, so a traced run
breaks loudly instead of reporting zero for a layer that moved.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _plan(tracer, args, plan):
    tracer.counts["over_bound_slots"] += sum(bool(pc.over_bound) for pc in plan.pairings)


def _channel(tracer, args, channel):
    tracer.theta_r = args[0].direction
    tracer.counts["dense_bytes"] += channel.h.nbytes


def _precoder(tracer, args, f):
    tracer.counts["dense_bytes"] += f.nbytes


def _coarse(tracer, args, est):
    # gross error: farther than one subcarrier-angle step 2*alpha/(L*2M) from theta_r
    plan = args[0].plan
    step = 2.0 * plan.alpha / (plan.slots * 2 * plan.cfg.m_half)
    tracer.counts["gross"] += abs(est.theta_hat - tracer.theta_r) > step


def _cpr(tracer, args, prob):
    tracer.counts["cpr_bytes"] += prob.b_mats.nbytes


def _refine(tracer, args, state):
    tracer.counts["refine_iters"] += state.iterations
    tracer.counts["refine_converged"] += bool(state.converged)
    tracer.counts["refine_diverged"] += bool(state.diverged)


# (module, attribute path, span name, hook run on the result)
WRAPS = (
    ("cli", "main", "cli.main", None),
    ("cli", "sweep", "harness.sweep", None),
    ("harness", "run_trial", "harness.run_trial", None),
    ("harness", "build_codebook", "codebook.build_codebook", None),
    ("harness", "plan_tracking", "tracker.plan_tracking", _plan),
    ("harness", "channel_response", "physmodel.channel_response", _channel),
    ("harness", "run_tracking", "tracker.run_tracking", None),
    ("harness", "coarse_estimate", "tracker.coarse_estimate", _coarse),
    ("harness", "build_cpr_problem", "leakage.build_cpr_problem", _cpr),
    ("harness", "refine", "leakage.refine", _refine),
    ("harness", "snap", "codebook.snap", None),
    ("harness", "beamforming_gain", "harness.beamforming_gain", None),
    ("harness", "precoder_matrix", "physmodel.precoder_matrix", _precoder),
    ("tracker", "pairing_mod.make_pairing", "pairing.make_pairing", None),
    ("tracker", "forward_bound", "pairing.forward_bound", None),
    ("tracker", "large_angle_bound", "pairing.large_angle_bound", None),
    ("pairing", "large_angle_bound", "pairing.large_angle_bound", None),
    ("tracker", "quantized_pairing", "codebook.quantized_pairing", None),
    ("codebook", "snap", "codebook.snap", None),
    ("tracker", "precoder_matrix", "physmodel.precoder_matrix", _precoder),
    ("tracker", "angle_map", "beampattern.angle_map", None),
    ("leakage", "precoder_matrix", "physmodel.precoder_matrix", _precoder),
)

BOUND_SPANS = ("pairing.forward_bound", "pairing.large_angle_bound")


class Tracer:
    """Spans and counts of one traced run, kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.frame = -1
        self.theta_r = float("nan")
        self._stack: list[int] = []
        self._trial_depth = 0
        self._frames_in_trial = 0
        self.hook_error: Exception | None = None

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            if name == "harness.run_trial":
                self.frame += 1
                self._frames_in_trial = 0
                self._trial_depth += 1
            elif name == "tracker.plan_tracking":
                # every (trial, user) frame plans once; the first shares run_trial's id
                if self._frames_in_trial:
                    self.frame += 1
                self._frames_in_trial += 1
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.frame if self._trial_depth else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                if name == "harness.run_trial":
                    self._trial_depth -= 1
            if hook is not None and self.hook_error is None:
                try:
                    hook(self, args, result)
                except Exception as exc:  # reported by check(), never inside the library
                    self.hook_error = exc
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Replace every wrapped attribute for the duration of the block."""
        undo = []
        try:
            for mod_name, path, name, hook in WRAPS:
                owner = importlib.import_module(f"thztrack.{mod_name}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)  # AttributeError: the layer moved
                setattr(owner, attr, self._wrap(name, original, hook))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def check(self):
        if self.hook_error is not None:
            raise RuntimeError(f"trace hook failed: {self.hook_error!r}") from self.hook_error

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for (name, start, end, _, _), inner in zip(self.spans, child):
            agg = out[name]
            agg["calls"] += 1
            agg["total"] += end - start
            agg["self"] += end - start - inner
        return dict(out)

    def write(self, path: Path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,frame\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, frame in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{frame}\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    Times are ms per frame unless the unit says otherwise; a frame is one
    ``tracker.plan_tracking`` call.  Layers that did no work read zero.
    """
    agg = tracer.by_name()
    c = tracer.counts

    def stat(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    frames = stat("tracker.plan_tracking", "calls")
    if frames == 0:
        raise RuntimeError("traced run planned no frames")

    def ms(name: str, key: str = "total") -> float:
        return 1e3 * stat(name, key) / frames

    refines = stat("leakage.refine", "calls")
    return {
        "leakage.refine.self_ms": (ms("leakage.refine", "self"), "ms"),
        "leakage.refine.iters_mean": (ratio(c["refine_iters"], refines), "count"),
        "leakage.refine.ms_per_iter": (ratio(1e3 * stat("leakage.refine", "self"), c["refine_iters"]), "ms"),
        "leakage.converged_frac": (ratio(c["refine_converged"], refines), "1"),
        "leakage.diverged_frac": (ratio(c["refine_diverged"], refines), "1"),
        "leakage.build_cpr_problem.self_ms": (ms("leakage.build_cpr_problem", "self"), "ms"),
        "leakage.cpr_bytes": (ratio(c["cpr_bytes"], stat("leakage.build_cpr_problem", "calls")), "B"),
        "physmodel.channel_response.ms": (ms("physmodel.channel_response"), "ms"),
        "physmodel.precoder_matrix.ms": (ms("physmodel.precoder_matrix"), "ms"),
        "physmodel.precoder_matrix.calls": (stat("physmodel.precoder_matrix", "calls") / frames, "1/frame"),
        "physmodel.dense_bytes": (c["dense_bytes"] / frames, "B/frame"),
        "tracker.run_tracking.self_ms": (ms("tracker.run_tracking", "self"), "ms"),
        "tracker.plan_tracking.self_ms": (ms("tracker.plan_tracking", "self"), "ms"),
        "tracker.coarse_estimate.ms": (ms("tracker.coarse_estimate"), "ms"),
        "tracker.over_bound_slots": (c["over_bound_slots"] / frames, "1/frame"),
        "tracker.gross_frac": (c["gross"] / frames, "1"),
        "pairing.make_pairing.ms": (ms("pairing.make_pairing"), "ms"),
        "pairing.bound_calls": (sum(stat(n, "calls") for n in BOUND_SPANS) / frames, "1/frame"),
        "codebook.build_codebook.ms": (
            ratio(1e3 * stat("codebook.build_codebook", "total"), stat("codebook.build_codebook", "calls")), "ms"),
        "codebook.quantized_pairing.ms": (ms("codebook.quantized_pairing"), "ms"),
        "codebook.snap.ms": (ms("codebook.snap"), "ms"),
        "beampattern.angle_map.ms": (ms("beampattern.angle_map"), "ms"),
        "beampattern.angle_map.calls": (stat("beampattern.angle_map", "calls") / frames, "1/frame"),
        "harness.self_ms": (ms("harness.run_trial", "self") + ms("harness.sweep", "self"), "ms"),
        "harness.beamforming_gain.self_ms": (ms("harness.beamforming_gain", "self"), "ms"),
        "cli.self_ms_per_sweep": (ratio(1e3 * stat("cli.main", "self"), stat("cli.main", "calls")), "ms"),
        "trace.frame_ms": (ms("harness.sweep"), "ms"),
        # 1 when every span lies inside its parent: self times partition the sweep time
        "trace.accounted_frac": (
            ratio(sum(a["self"] for n, a in agg.items() if n != "cli.main"), stat("harness.sweep", "total")), "1"),
    }
