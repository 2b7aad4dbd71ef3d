"""Layer hooks and per-layer metrics of the traced run.

Each hook wraps a name that ``linkcov.experiment``, ``linkcov.cli`` or
``linkcov.neighbor_multi`` (or a module the CLI imports from at call
time) looks up when it runs, so the real pipeline is timed without
editing the package.  A metric that depends on a hook whose name no
longer exists is reported as absent, naming the hook, never as 0.

A metric of a layer that a workload never reaches reads 0 there (no
time, no work), except the converged shares, which read 1.0 when no fit
ran.  Counts are totals over the one traced unit of work.
"""

import dataclasses

from spans import median, self_times

E, C, L = "linkcov.experiment.", "linkcov.cli.", "linkcov.linkage."
M, U, P = "linkcov.neighbor_multi.", "linkcov.neighbor_uni.", "linkcov.popsim."

ROOT_SPAN = "experiment.unit"
CLI_COMMANDS = ("simulate", "link", "fit_uni", "fit_multi", "baselines")


def _nbytes(obj):
    return sum(getattr(getattr(obj, f.name), "nbytes", 0)
               for f in dataclasses.fields(obj))


def _count_size(name):
    def after(tr, args, kwargs, result):
        tr.count(name, result.size)
    return after


def _after_population(tr, args, kwargs, pop):
    tr.count("popsim.population_bytes", _nbytes(pop))


def _after_block(tr, args, kwargs, pairs):
    tr.count("linkage.candidate_pairs", pairs.size)
    tr.count("linkage.pairs_bytes", _nbytes(pairs))


def _after_racinskij(tr, args, kwargs, est):
    tr.count("baselines.racinskij_fits")
    tr.count("baselines.racinskij_converged",
             int(bool(est.diagnostics["converged"])))


def _after_em_iteration(tr, args, kwargs, result):
    tr.count("baselines.racinskij_em_iters")


def _after_minimize(layer):
    def after(tr, args, kwargs, res):
        tr.count(f"{layer}.nfev", int(res.nfev))
        tr.count(f"{layer}.nit", int(res.nit))
    return after


def _after_fit_multi(tr, args, kwargs, fit):
    tr.count("neighbor_multi.fits")
    tr.count("neighbor_multi.converged", int(bool(fit.converged)))


def _after_select_multi(tr, args, kwargs, sel):
    tr.peak("neighbor_multi.distinct_vectors", int(args[0].keys.shape[0]))


def _mn_span(args, kwargs):
    constraint = kwargs.get("constraint", args[2] if len(args) > 2 else None)
    return f"neighbor_multi.select_d{getattr(constraint, 'd', 0)}"


def _cli_span(args, kwargs):
    return "cli." + str(args[0]).replace("-", "_")


# (hooked names, span name or a function of the call giving one,
#  after-call counter, the span and counter names the hook produces)
HOOKS = [
    ([E + "synthetic_surname_table"], "frequencies.calibrate", None,
     ["frequencies.calibrate"]),
    ([E + "build_soundex_index", "linkcov.frequencies.build_soundex_index"],
     "frequencies.soundex_index", None, ["frequencies.soundex_index"]),
    ([E + "generate_population", P + "generate_population"],
     "popsim.population", _after_population,
     ["popsim.population", "popsim.population_bytes"]),
    ([E + "draw_samples", P + "draw_samples"], "popsim.samples", None,
     ["popsim.samples"]),
    ([L + "sample_records"], "linkage.panels", None, ["linkage.panels"]),
    ([L + "block_pairs"], "linkage.block", _after_block,
     ["linkage.block", "linkage.candidate_pairs", "linkage.pairs_bytes"]),
    ([L + "baseline_pairs"], "linkage.baseline",
     _count_size("linkage.baseline_pairs"),
     ["linkage.baseline", "linkage.baseline_pairs"]),
    ([L + "link_rule1"], "linkage.rule1", _count_size("linkage.links_rule1"),
     ["linkage.rule1", "linkage.links_rule1"]),
    ([L + "dedupe_rule2"], "linkage.rule2",
     _count_size("linkage.links_rule2"),
     ["linkage.rule2", "linkage.links_rule2"]),
    ([L + "counts"], "linkage.counts", None, ["linkage.counts"]),
    ([L + "confusion"], "linkage.confusion", None, ["linkage.confusion"]),
    ([L + "clerical_sample"], "linkage.clerical", None, ["linkage.clerical"]),
    ([E + "racinskij_fit", C + "racinskij_fit"], "baselines.racinskij",
     _after_racinskij,
     ["baselines.racinskij", "baselines.racinskij_fits",
      "baselines.racinskij_converged"]),
    (["linkcov.baselines._ci_loglik"], None, _after_em_iteration,
     ["baselines.racinskij_em_iters"]),
    ([E + "lincoln_petersen", C + "lincoln_petersen"], "baselines.naive",
     None, ["baselines.naive"]),
    ([E + "df_dt_estimators", C + "df_dt_estimators"], "baselines.df_dt",
     None, ["baselines.df_dt"]),
    ([E + "select_G", C + "select_G", M + "select_G"], "neighbor_uni.select",
     None, ["neighbor_uni.select"]),
    ([U + "minimize"], None, _after_minimize("neighbor_uni"),
     ["neighbor_uni.nfev", "neighbor_uni.nit"]),
    ([E + "select_G_multi", C + "select_G_multi"], _mn_span,
     _after_select_multi,
     ["neighbor_multi.select_d1", "neighbor_multi.select_d2",
      "neighbor_multi.distinct_vectors"]),
    ([M + "minimize"], None, _after_minimize("neighbor_multi"),
     ["neighbor_multi.nfev", "neighbor_multi.nit"]),
    ([M + "fit_multi"], None, _after_fit_multi,
     ["neighbor_multi.fits", "neighbor_multi.converged"]),
    ([C + "dispatch"], _cli_span, None,
     ["cli." + c for c in CLI_COMMANDS]),
    ([C + "dump_population", L + "dump_linkset", L + "dump_counts"],
     "cli.csv_write", None, ["cli.csv_write"]),
    ([C + "load_population", C + "_counts_from_csv"], "cli.csv_read", None,
     ["cli.csv_read"]),
]


def install(tracer):
    """Put every layer hook in place on ``tracer``."""
    for names, span, after, _ in HOOKS:
        for dotted in names:
            tracer.hook(dotted, span=span, after=after)


class TracedUnit:
    """Span totals, self times and counts of one traced unit of work."""

    def __init__(self, tracer, unit):
        self.tracer = tracer
        self.unit = unit
        selfs = self_times(tracer.spans)
        self.total, self.self = {}, {}
        self.root = None
        for i, s in tracer.unit_spans(unit):
            self.total[s.name] = self.total.get(s.name, 0.0) + s.duration
            self.self[s.name] = self.self.get(s.name, 0.0) + selfs[i]
            if s.parent < 0 and s.name == ROOT_SPAN:
                self.root = s

    def t(self, name):
        return self.total.get(name, 0.0)

    def c(self, name):
        return self.tracer.counted(self.unit, name)


def _share(num, den, empty):
    return num / den if den else empty


def _calibrate_s(u, ctx):
    setup = [s.duration for _, s in u.tracer.unit_spans("setup")
             if s.name == "frequencies.calibrate"]
    return median(setup) if setup else 0.0


def _mn_us_per_eval(u, ctx):
    self_s = (u.self.get("neighbor_multi.select_d1", 0.0)
              + u.self.get("neighbor_multi.select_d2", 0.0))
    return _share(self_s * 1e6, u.c("neighbor_multi.nfev"), 0.0)


def _total(name):
    return (name + "_s", "s", [name], lambda u, ctx: u.t(name))


def _counter(name, unit="count"):
    return (name, unit, [name], lambda u, ctx: u.c(name))


# name, unit, span and counter names it is computed from, value
METRICS = [
    ("frequencies.calibrate_s", "s", ["frequencies.calibrate"], _calibrate_s),
    _total("frequencies.soundex_index"),
    _total("popsim.population"),
    _total("popsim.samples"),
    _counter("popsim.population_bytes", "bytes"),
    _total("linkage.panels"),
    _total("linkage.block"),
    _total("linkage.baseline"),
    _total("linkage.rule1"),
    _total("linkage.rule2"),
    _total("linkage.counts"),
    _total("linkage.confusion"),
    _total("linkage.clerical"),
    _counter("linkage.candidate_pairs"),
    ("linkage.block_pairs_per_s", "1/s",
     ["linkage.candidate_pairs", "linkage.block"],
     lambda u, ctx: _share(u.c("linkage.candidate_pairs"),
                           u.t("linkage.block"), 0.0)),
    ("linkage.baseline_yield", "ratio",
     ["linkage.baseline_pairs", "linkage.candidate_pairs"],
     lambda u, ctx: _share(u.c("linkage.baseline_pairs"),
                           u.c("linkage.candidate_pairs"), 0.0)),
    _counter("linkage.links_rule1"),
    _counter("linkage.links_rule2"),
    _counter("linkage.pairs_bytes", "bytes"),
    _total("baselines.racinskij"),
    _counter("baselines.racinskij_em_iters"),
    ("baselines.racinskij_converged_frac", "ratio",
     ["baselines.racinskij_converged"],
     lambda u, ctx: _share(u.c("baselines.racinskij_converged"),
                           u.c("baselines.racinskij_fits"), 1.0)),
    _total("baselines.naive"),
    _total("baselines.df_dt"),
    _total("neighbor_uni.select"),
    _counter("neighbor_uni.nfev"),
    _counter("neighbor_uni.nit"),
    _total("neighbor_multi.select_d1"),
    ("neighbor_multi.select_d1_self_s", "s", ["neighbor_multi.select_d1"],
     lambda u, ctx: u.self.get("neighbor_multi.select_d1", 0.0)),
    _total("neighbor_multi.select_d2"),
    ("neighbor_multi.select_d2_self_s", "s", ["neighbor_multi.select_d2"],
     lambda u, ctx: u.self.get("neighbor_multi.select_d2", 0.0)),
    _counter("neighbor_multi.nfev"),
    _counter("neighbor_multi.nit"),
    ("neighbor_multi.us_per_eval", "us",
     ["neighbor_multi.select_d1", "neighbor_multi.nfev"], _mn_us_per_eval),
    _counter("neighbor_multi.distinct_vectors"),
    ("neighbor_multi.converged_frac", "ratio", ["neighbor_multi.converged"],
     lambda u, ctx: _share(u.c("neighbor_multi.converged"),
                           u.c("neighbor_multi.fits"), 1.0)),
    ("experiment.traced_unit_s", "s", [], lambda u, ctx: u.root.duration),
    ("experiment.self_s", "s", [], lambda u, ctx: u.self[ROOT_SPAN]),
    ("experiment.trace_overhead_s", "s", [],
     lambda u, ctx: u.root.duration - ctx["untraced_s"]),
    ("experiment.unconverged_frac", "ratio", [],
     lambda u, ctx: _share(ctx["unconverged"], ctx["fits"], 0.0)),
] + [_total("cli." + c) for c in CLI_COMMANDS] + [
    _total("cli.csv_write"),
    _total("cli.csv_read"),
    ("cli.bytes_written", "bytes", [], lambda u, ctx: ctx["bytes_written"]),
]


def per_layer(tracer, unit, ctx):
    """Every per-layer metric of one traced unit.

    Returns name -> {"value", "unit"}; a metric whose hook is missing
    has value None and an "absent" reason naming the hook.
    """
    u = TracedUnit(tracer, unit)
    missing_by_key = {}
    for names, _, _, produces in HOOKS:
        gone = [tracer.missing[n] for n in names if n in tracer.missing]
        for key in produces:
            missing_by_key.setdefault(key, []).extend(gone)
    out = {}
    for name, unit_name, needs, value in METRICS:
        gone = [m for key in needs for m in missing_by_key.get(key, [])]
        if gone:
            out[name] = {"value": None, "unit": unit_name,
                         "absent": "; ".join(sorted(set(gone)))}
        else:
            out[name] = {"value": value(u, ctx), "unit": unit_name}
    return out
