"""Spans around the public functions of each ncgrav layer, installed from outside.

`Tracer.install()` replaces each target in TARGETS (a module function or a
class method) by a wrapper that records a span: name, start, end, parent span
and the benchmark item it ran under.  Per (span name, item label) it keeps the
call count, the inclusive time and the self time, which is the span's
duration minus the time covered by its child spans.  The program under test
is not edited; `uninstall()` puts the originals back.

A target that no longer exists in the code under test is skipped and listed
in `absent`; the metrics that need it are then reported as absent by
`layer_metrics` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

SPAN_CAP = 100_000

# (layer, module, attribute, span name).  Spans of the coeff layer are
# counted and timed but not stored one by one: there are millions per pass.
TARGETS = [
    ("coeff", "ncgrav.coeff", "Coeff.__mul__", "coeff.mul"),
    ("coeff", "ncgrav.coeff", "Coeff.__rmul__", "coeff.mul"),
    ("coeff", "ncgrav.coeff", "Coeff.__add__", "coeff.add"),
    ("coeff", "ncgrav.coeff", "Coeff.__neg__", "coeff.neg"),
    ("coeff", "ncgrav.coeff", "Coeff.__sub__", "coeff.sub"),
    ("coeff", "ncgrav.coeff", "Coeff.div_i_lam", "coeff.div_i_lam"),
    ("exactalg", "ncgrav.exactalg", "NCElement.__mul__", "exactalg.mul"),
    ("exactalg", "ncgrav.exactalg", "NCElement.__add__", "exactalg.add"),
    ("exactalg", "ncgrav.exactalg", "NCElement.shift_t", "exactalg.shift_t"),
    ("exactalg", "ncgrav.exactalg", "NCElement.partial_x", "exactalg.partial_x"),
    ("exactalg", "ncgrav.exactalg", "NCElement.d0", "exactalg.d0"),
    ("exactalg", "ncgrav.exactalg", "NCElement.delta0_const",
     "exactalg.delta0_const"),
    ("exactalg", "ncgrav.exactalg", "NCOneForm.__add__", "exactalg.form_add"),
    ("exactalg", "ncgrav.exactalg", "NCOneForm.lmul", "exactalg.lmul"),
    ("exactalg", "ncgrav.exactalg", "NCOneForm.mul_gen", "exactalg.mul_gen"),
    ("exactalg", "ncgrav.exactalg", "NCOneForm.mul_elem", "exactalg.mul_elem"),
    ("exactalg", "ncgrav.exactalg", "normal_order", "exactalg.normal_order"),
    ("exactalg", "ncgrav.exactalg", "exterior_d_leibniz",
     "exactalg.exterior_d_leibniz"),
    ("exactalg", "ncgrav.exactalg", "exterior_d_formula",
     "exactalg.exterior_d_formula"),
    ("exactalg", "ncgrav.exactalg", "exterior_d", "exactalg.exterior_d"),
    ("exactalg", "ncgrav.exactalg", "commutator_d", "exactalg.commutator_d"),
    ("timeops", "ncgrav.timeops", "TimeFunction.shift", "timeops.shift"),
    ("timeops", "ncgrav.timeops", "TimeFunction.__mul__", "timeops.mul"),
    ("timeops", "ncgrav.timeops", "d0", "timeops.d0"),
    ("timeops", "ncgrav.timeops", "delta0_const", "timeops.delta0_const"),
    ("timeops", "ncgrav.timeops", "delta0_hybrid", "timeops.delta0_hybrid"),
    ("timeops", "ncgrav.timeops", "delta0_power", "timeops.delta0_power"),
    ("timeops", "ncgrav.timeops", "delta0_general", "timeops.delta0_general"),
    ("geometry", "ncgrav.geometry", "RadialProfile.__call__",
     "geometry.profile"),
    ("geometry", "ncgrav.geometry", "mu_nu_closed", "geometry.mu_nu_closed"),
    ("geometry", "ncgrav.geometry", "mu_nu_numeric", "geometry.mu_nu_numeric"),
    ("geometry", "ncgrav.geometry", "ode_residuals", "geometry.ode_residuals"),
    ("waveops", "ncgrav.waveops", "box_general", "waveops.box_general"),
    ("waveops", "ncgrav.waveops", "SeparableField.to_grid", "waveops.to_grid"),
    ("dispersion", "ncgrav.dispersion", "sweep", "dispersion.sweep"),
    ("dispersion", "ncgrav.dispersion", "dispersion_point",
     "dispersion.dispersion_point"),
    ("dispersion", "ncgrav.dispersion", "solve_k", "dispersion.solve_k"),
    ("dispersion", "ncgrav.dispersion", "group_velocity",
     "dispersion.group_velocity"),
    ("effective", "ncgrav.effective", "figure1_data", "effective.figure1_data"),
    ("effective", "ncgrav.effective", "mG_over_mp", "effective.mG_over_mp"),
    ("effective", "ncgrav.effective", "effective_params",
     "effective.effective_params"),
    ("spectrum", "ncgrav.spectrum", "solve_radial", "spectrum.solve_radial"),
    ("spectrum", "ncgrav.spectrum", "bohr_oracle", "spectrum.bohr_oracle"),
    ("cli", "ncgrav.cli", "main", "cli.main"),
]
LAYER_OF = {name: layer for layer, _module, _attr, name in TARGETS}
UNSTORED_LAYERS = {"coeff"}
# counts a workload reads off its own outputs; 0 on the other workloads
OUTPUT_COUNTS = ("exactalg.terms_out", "dispersion.evanescent_frac",
                 "cli.bytes_out")


class Tracer:
    def __init__(self):
        self.agg = {}        # (span name, item label) -> [calls, total, self]
        self.spans = []      # (id, name, start, end, parent id, item id)
        self.dropped = 0
        self.absent = []
        self.label = None    # item label, e.g. "pair"
        self.item = None     # item id, e.g. "pair#3"
        self._stack = []
        self._next_id = 0
        self._installed = []

    # -- installing ---------------------------------------------------
    def install(self):
        for layer, module, attr, name in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._installed.append((owner, leaf, fn))
            setattr(owner, leaf,
                    self._wrap(fn, name, layer not in UNSTORED_LAYERS))

    def uninstall(self):
        for owner, leaf, fn in reversed(self._installed):
            setattr(owner, leaf, fn)
        self._installed = []

    def _wrap(self, fn, name, store):
        tracer, stack, agg, spans = self, self._stack, self.agg, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                rec = agg.get((name, tracer.label))
                if rec is None:
                    rec = agg[(name, tracer.label)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if store:
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[1], name, start, end,
                                      stack[-1][1] if stack else None,
                                      tracer.item))
                    else:
                        tracer.dropped += 1

        return traced

    # -- reading ------------------------------------------------------
    def snapshot(self):
        """The aggregates so far, then cleared for the next pass."""
        out = {k: tuple(v) for k, v in self.agg.items()}
        self.agg.clear()
        return out

    def span_records(self):
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "item": it} for i, n, s, e, p, it in self.spans]


def _sum(agg, field, names=None, layer=None, label=None):
    return sum(v[field] for (n, lab), v in agg.items()
               if (names is None or n in names)
               and (layer is None or LAYER_OF[n] == layer)
               and (label is None or lab == label))


def layer_metrics(snapshots, units, extra, absent):
    """Per-layer metrics of the traced passes.

    snapshots: one aggregate dict per traced pass; units: {item label: units
    per pass}; extra: counts the workload read off its outputs.  Each metric
    is the median over passes.  Returns (values, names of absent metrics).
    """
    CALLS, INCL, SELF = 0, 1, 2

    def span(name, field):
        return lambda a: _sum(a, field, names={name})

    def layer_self(layer):
        return lambda a: _sum(a, SELF, layer=layer)

    def per_unit(name, label):
        return lambda a: (1e6 * _sum(a, INCL, names={name}, label=label)
                          / units[label] if units.get(label) else 0.0)

    def cli_total(sub):
        return lambda a: _sum(a, INCL, names={"cli.main"}, label="cli:" + sub)

    rules = {
        "coeff.self_s": (layer_self("coeff"), ["coeff.mul", "coeff.add"]),
        "timeops.leibniz_pairs.self_s": (
            lambda a: _sum(a, SELF, layer="timeops", label="timeops-leibniz"),
            ["timeops.shift"]),
        "waveops.box_general.us_per_node": (
            per_unit("waveops.box_general", "box_general"),
            ["waveops.box_general"]),
        "dispersion.sweep.us_per_omega": (
            per_unit("dispersion.sweep", "sweep"), ["dispersion.sweep"]),
        "effective.small_x.us_per_point": (
            per_unit("effective.figure1_data", "figure1-small-x"),
            ["effective.figure1_data"]),
        "cli.self_s": (layer_self("cli"), ["cli.main"]),
    }
    for name in ("coeff.mul", "coeff.add", "exactalg.normal_order",
                 "exactalg.mul_gen", "timeops.delta0_general", "timeops.shift",
                 "dispersion.solve_k", "spectrum.solve_radial",
                 "geometry.profile"):
        rules[name + ".calls"] = (span(name, CALLS), [name])
    for name in ("exactalg.exterior_d_leibniz", "exactalg.exterior_d_formula",
                 "exactalg.mul_elem", "exactalg.commutator_d", "exactalg.mul",
                 "exactalg.lmul", "timeops.delta0_general",
                 "waveops.box_general", "dispersion.sweep",
                 "dispersion.solve_k", "effective.figure1_data",
                 "spectrum.solve_radial", "geometry.mu_nu_numeric",
                 "geometry.ode_residuals"):
        rules[name + ".self_s"] = (span(name, SELF), [name])
    for name in ("exactalg.exterior_d_leibniz", "exactalg.exterior_d_formula",
                 "exactalg.mul_elem", "exactalg.commutator_d"):
        rules[name + ".incl_s"] = (span(name, INCL), [name])
    for sub in ("figure1", "dispersion", "mu-nu", "spectrum", "dark-energy"):
        rules["cli.%s.s" % sub] = (cli_total(sub), ["cli.main"])

    values, missing = {}, []
    for metric, (fn, needs) in rules.items():
        if any(n in absent for n in needs):
            missing.append(metric)
            values[metric] = 0.0
        else:
            values[metric] = statistics.median(fn(a) for a in snapshots)
    values.update(dict.fromkeys(OUTPUT_COUNTS, 0), **extra)
    return values, missing
