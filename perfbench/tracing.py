"""Outside-in tracing: spans around calls into the package's modules.

Nothing inside the package is edited.  Tracer.installed() replaces each
target function with a timing wrapper in the namespace where its caller
looks it up (cli.simulate_jump and analysis.simulate_jump are separate
targets for the same function); leaving the with block puts the originals
back, so untraced runs execute no wrapper at all.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter, defaultdict
from time import perf_counter

from sarrusjump import analysis, cli, config, dynamics, elastic, screws, thrust


def _simulate_work(args, kwargs, result):
    traj, _ = result
    options = args[3] if len(args) > 3 else kwargs["options"]
    if kwargs.get("record", True):
        steps = len(traj) - 1
    else:
        steps = math.ceil(float(traj.t[-1]) / options.step)
    return {"steps": steps, "rows": len(traj)}


def _write_work(args, kwargs, result):
    return {"bytes": result.stat().st_size}


def _sensitivity_work(args, kwargs, curve):
    return {"points": len(curve.status), "ok": curve.status.count("ok")}


def _portrait_work(args, kwargs, trajectories):
    work = {"samples": sum(len(tr.t) for tr in trajectories)}
    for status, count in Counter(tr.status for tr in trajectories).items():
        work[f"status.{status}"] = count
    return work


def _profile_work(args, kwargs, profile):
    return {"samples": len(profile)}


# (module, attribute, span name, work extractor)
TARGETS = (
    (cli, "main", "cli.main", None),
    (config, "load_config", "config.load_config", None),
    (config, "apply_overrides", "config.apply_overrides", None),
    (config, "build_config", "config.build_config", None),
    (cli, "simulate_jump", "dynamics.simulate_jump", _simulate_work),
    (analysis, "simulate_jump", "dynamics.simulate_jump", _simulate_work),
    (dynamics, "simulate_jump", "dynamics.simulate_jump", _simulate_work),
    (cli, "write_csv", "serialize.write_csv", _write_work),
    (cli, "write_json", "serialize.write_json", _write_work),
    (analysis, "sensitivity", "analysis.sensitivity", _sensitivity_work),
    (analysis, "identify_mu", "analysis.identify_mu", None),
    (analysis, "stiction_threshold", "analysis.stiction_threshold", None),
    (analysis, "phase_portrait", "analysis.phase_portrait", _portrait_work),
    (analysis, "find_equilibria", "analysis.find_equilibria", None),
    (thrust, "thrust_profile", "thrust.thrust_profile", _profile_work),
    (elastic, "fit_mooney", "elastic.fit_mooney", None),
    (elastic, "fit_gaussian", "elastic.fit_gaussian", None),
    (screws, "build_sarrus", "screws.build_sarrus", None),
    (screws, "mobility_report", "screws.mobility_report", None),
)


class Tracer:
    """Collects spans [name, start, end, parent index, op id, work]."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.op_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the with block."""
        originals = []
        try:
            for module, attr, name, work in TARGETS:
                originals.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, originals[-1][2], work))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def op_work(spans, prefix_ops) -> dict:
    """(span name, work) sequence of each of the first prefix_ops ops, for the
    repeat check."""
    out = defaultdict(list)
    for name, _, _, _, op_id, work in spans:
        if work is not None and op_id < prefix_ops:
            out[op_id].append((name, sorted(work.items())))
    return dict(out)


def layer_metrics(spans, prefix_ops: int, scale) -> dict:
    """Per-layer metrics from one traced phase.

    scale[op] rescales op's span times to the reference core speed, as
    run.py does for end-to-end times.  Times are means per call or per op,
    as the unit says; self time is a span's duration minus that of its
    direct children.  The work counts (dynamics.rk4_steps,
    dynamics.record_rows, serialize.bytes) are totals over the first
    prefix_ops ops, which every run executes, so they repeat exactly from
    run to run.
    """
    duration = [(end - start) * scale[op] for _, start, end, _, op, _ in spans]
    self_time = list(duration)
    for i, span in enumerate(spans):
        if span[3] is not None:
            self_time[span[3]] -= duration[i]

    calls = Counter()
    total = defaultdict(float)
    own = defaultdict(float)
    work = defaultdict(float)
    prefix = defaultdict(int)
    identify_sims = 0
    for i, (name, _, _, parent, op_id, w) in enumerate(spans):
        calls[name] += 1
        total[name] += duration[i]
        own[name] += self_time[i]
        for key, value in (w or {}).items():
            work[f"{name}:{key}"] += value
            if op_id < prefix_ops:
                prefix[f"{name}:{key}"] += value
        if (name == "dynamics.simulate_jump" and parent is not None
                and spans[parent][0] == "analysis.identify_mu"):
            identify_sims += 1

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_total(prefix_name):
        return sum(t for name, t in total.items() if name.startswith(prefix_name))

    ops = sum(n for name, n in calls.items() if name.startswith("op."))
    sims = calls["dynamics.simulate_jump"]
    sweeps = calls["analysis.sensitivity"]
    portraits = calls["analysis.phase_portrait"]
    trajectories = sum(v for k, v in work.items()
                       if k.startswith("analysis.phase_portrait:status."))
    write_s = layer_total("serialize.")
    written = work["serialize.write_csv:bytes"] + work["serialize.write_json:bytes"]
    metrics = {
        "config.build_calls": (ratio(calls["config.build_config"], ops), "calls/op"),
        "config.build_s": (ratio(layer_total("config."), ops), "s/op"),
        "cli.self_s": (ratio(own["cli.main"], ops), "s/op"),
        "dynamics.simulate_calls": (ratio(sims, ops), "calls/op"),
        "dynamics.simulate_self_s": (ratio(own["dynamics.simulate_jump"], sims), "s/call"),
        "dynamics.rk4_steps": (prefix["dynamics.simulate_jump:steps"], "count"),
        "dynamics.us_per_step": (1e6 * ratio(own["dynamics.simulate_jump"],
                                             work["dynamics.simulate_jump:steps"]), "us"),
        "dynamics.record_rows": (prefix["dynamics.simulate_jump:rows"], "count"),
        "serialize.write_s": (ratio(write_s, ops), "s/op"),
        "serialize.bytes": (prefix["serialize.write_csv:bytes"]
                            + prefix["serialize.write_json:bytes"], "B"),
        "serialize.mb_per_s": (1e-6 * ratio(written, write_s), "MB/s"),
        "analysis.sensitivity_self_s": (ratio(own["analysis.sensitivity"], sweeps), "s/call"),
        "analysis.sensitivity_points": (ratio(work["analysis.sensitivity:points"], sweeps),
                                        "points/call"),
        "analysis.points_ok_frac": (ratio(work["analysis.sensitivity:ok"],
                                          work["analysis.sensitivity:points"]), "fraction"),
        "analysis.identify_s": (ratio(total["analysis.identify_mu"],
                                      calls["analysis.identify_mu"]), "s/call"),
        "analysis.identify_sims_per_call": (ratio(identify_sims,
                                                  calls["analysis.identify_mu"]), "sims/call"),
        "analysis.portrait_s": (ratio(total["analysis.phase_portrait"], portraits), "s/call"),
        "analysis.portrait_samples": (ratio(work["analysis.phase_portrait:samples"],
                                            portraits), "samples/call"),
    }
    for status in ("closed", "open", "escaped", "damped", "failed"):
        metrics[f"analysis.portrait_status.{status}"] = (
            ratio(work[f"analysis.phase_portrait:status.{status}"], trajectories), "fraction")
    metrics.update({
        "analysis.equilibria_s": (ratio(total["analysis.find_equilibria"],
                                        calls["analysis.find_equilibria"]), "s/call"),
        "thrust.profile_s": (ratio(total["thrust.thrust_profile"],
                                   calls["thrust.thrust_profile"]), "s/call"),
        "thrust.samples_per_s": (ratio(work["thrust.thrust_profile:samples"],
                                       total["thrust.thrust_profile"]), "1/s"),
        "elastic.fit_s": (ratio(layer_total("elastic.fit_"),
                                calls["elastic.fit_mooney"] + calls["elastic.fit_gaussian"]),
                          "s/call"),
        "screws.mobility_s": (ratio(layer_total("screws."), calls["screws.mobility_report"]),
                              "s/call"),
        "screws.mobility_calls": (ratio(calls["screws.mobility_report"], ops), "calls/op"),
    })
    return metrics
