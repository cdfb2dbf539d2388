"""Outside-in tracing of crnflow: wrap public callables, keep spans, fold them.

`install()` replaces each traced function in every crnflow module
namespace that holds a reference to it (including the names re-exported
from `crnflow/__init__`), and patches the traced methods on their
classes. Each call records a span (name, start, end, parent) in memory;
`Tracer.dump()` writes them out when the command has returned. A few
calls also record an observation of their result (basis sizes, ledger
rows, Newton iterations, bytes emitted) at the same boundary.

`fold()` turns one span file into per-layer totals. It is stdlib-only so
run.py can use it without importing the package.
"""

from __future__ import annotations

import functools
import json
import time

# traced callable -> self-time bucket; every bucket is a per-layer metric
BUCKETS = {
    "exact.kernel_basis": "exact.kernel_basis_s",
    "exact.integer_rank": "exact.kernel_basis_s",
    "network.build_network": "network.build_s",
    "network.network_from_reactions": "network.build_s",
    "fileio.parse_network": "fileio.parse_s",
    "fileio.load_network": "fileio.load_s",
    "fileio.ScenarioConfig.load": "fileio.load_s",
    "fileio.emit_trajectory_csv": "fileio.emit_s",
    "fileio.emit_schedule_csv": "fileio.emit_s",
    "fileio.emit_report_json": "fileio.emit_s",
    "kinetics.mass_action_flux": "kinetics.flux_s",
    "kinetics.net_flux_raw": "kinetics.raw_flux_s",
    "kinetics.wegscheider_check": "kinetics.other_s",
    "kinetics.classify_state": "kinetics.other_s",
    "convex.CoshDissipation.value": "convex.dissipation_s",
    "convex.CoshDissipation.dual_value": "convex.dissipation_s",
    "convex.KLPotential.bregman": "convex.bregman_s",
    "dynamics.simulate": "dynamics.self_s",
    "dynamics.simulate_timedep": "dynamics.self_s",
    "dynamics.lyapunov_monitor": "dynamics.monitor_s",
    "dynamics.energy_dissipation_balance": "dynamics.monitor_s",
    "dynamics.RateSchedule.__call__": "dynamics.schedule_s",
    "geometry.equilibrium_point": "geometry.solver_s",
    "geometry.pythagoras_gap": "geometry.solver_s",
    "geometry.velocity_dual": "geometry.solver_s",
    "geometry.flux_split": "geometry.solver_s",
    "geometry.force_split": "geometry.solver_s",
    "geometry.effective_equilibrium_rates": "geometry.schedule_self_s",
    "geometry.effective_steady_rates": "geometry.schedule_self_s",
    "cli.main": "cli.self_s",
}

# call counters: metric -> traced callables it counts
COUNTS = {
    "exact.kernel_basis_calls": ("exact.kernel_basis",),
    "kinetics.flux_calls": ("kinetics.mass_action_flux",),
    "kinetics.raw_flux_calls": ("kinetics.net_flux_raw",),
    "convex.dissipation_calls": ("convex.CoshDissipation.value", "convex.CoshDissipation.dual_value"),
    "dynamics.schedule_calls": ("dynamics.RateSchedule.__call__",),
    # the per-sample Newton solvers (flux_split delegates to velocity_dual)
    "geometry.solver_calls": ("geometry.equilibrium_point", "geometry.velocity_dual", "geometry.force_split"),
}

SIMULATORS = ("dynamics.simulate", "dynamics.simulate_timedep")


def _certificates(result) -> dict:
    cert = result[1]
    residuals = [v for k, v in cert.items() if k.endswith("_residual")]
    return {
        "geometry.newton_iters": int(cert["iterations"].sum()),
        "geometry.max_cert_residual": max(float(r.max()) for r in residuals),
    }


def _emitted(text: str) -> dict:
    return {"fileio.bytes_out": len(text.encode("utf-8")), "fileio.rows_out": text.count("\n")}


# per-layer metrics read from a traced call's result; "max" ones take the
# largest value seen, the others add up
OBSERVERS = {
    "exact.kernel_basis": lambda r: {"exact.max_basis_entry": int(abs(r).max()) if r.size else 0},
    "dynamics.simulate": lambda r: {"dynamics.ledger_rows": int(r.times.size)},
    "dynamics.simulate_timedep": lambda r: {"dynamics.ledger_rows": int(r.times.size)},
    "geometry.effective_equilibrium_rates": _certificates,
    "geometry.effective_steady_rates": _certificates,
    "fileio.emit_trajectory_csv": _emitted,
    "fileio.emit_schedule_csv": _emitted,
    "fileio.emit_report_json": _emitted,
}
OBSERVED = (
    "exact.max_basis_entry",
    "dynamics.ledger_rows",
    "geometry.newton_iters",
    "geometry.max_cert_residual",
    "fileio.bytes_out",
    "fileio.rows_out",
)

METRICS = tuple(sorted(set(BUCKETS.values()) | set(COUNTS) | set(OBSERVED) | {"dynamics.rhs_evals"}))


class Tracer:
    """In-memory span recorder. Spans are appended on entry, so a parent
    always precedes its children in `spans`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.observed: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if observe is not None:
                self.observed.append(observe(result))
            return result

        return traced

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        record = {
            "names": names,
            "spans": [[index[n], t0, t1, p] for n, t0, t1, p in self.spans],
            "observed": self.observed,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every traced callable of the imported crnflow package."""
    import sys

    import crnflow  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sys.modules.items() if n == "crnflow" or n.startswith("crnflow.")]
    for qualname in BUCKETS:
        mod_name, *attrs = qualname.split(".")
        owner = sys.modules[f"crnflow.{mod_name}"]
        if len(attrs) == 2:  # a method: patch the class once
            cls = getattr(owner, attrs[0])
            raw = cls.__dict__[attrs[1]]
            if isinstance(raw, classmethod):
                setattr(cls, attrs[1], classmethod(tracer.wrap(qualname, raw.__func__)))
            else:
                setattr(cls, attrs[1], tracer.wrap(qualname, raw))
            continue
        original = getattr(owner, attrs[0])
        traced = tracer.wrap(qualname, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)


def fold(record: dict) -> dict:
    """Per-layer totals of one span file: self times, counts, observations."""
    names = record["names"]
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    in_sim = [False] * len(spans)
    for i, (n, t0, t1, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += t1 - t0
            in_sim[i] = in_sim[parent]
        if names[n] in SIMULATORS:
            in_sim[i] = True
    counted = {member: metric for metric, members in COUNTS.items() for member in members}
    out = dict.fromkeys(METRICS, 0)
    for i, (n, t0, t1, _) in enumerate(spans):
        name = names[n]
        out[BUCKETS[name]] += (t1 - t0) - child_time[i]
        if name in counted:
            out[counted[name]] += 1
        if name == "kinetics.net_flux_raw" and in_sim[i]:
            out["dynamics.rhs_evals"] += 1
    for obs in record["observed"]:
        for metric, value in obs.items():
            out[metric] = max(out[metric], value) if ".max_" in metric else out[metric] + value
    return out
