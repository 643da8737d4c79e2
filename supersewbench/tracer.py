"""Spans and counters at the public entry points of each supersew layer.

The tracer wraps functions from the benchmark's side: class attributes for
methods, and every module attribute that holds a traced function, since
``nscoord`` and ``sewing`` import functions such as ``exp_ns_terms`` and
``e_hat_inv`` by name.  Nothing inside ``src/`` changes.

Per traced name it keeps the number of calls, the self time (a span's
duration minus the time its direct child spans cover) and the total time
(inclusive, counted at the outermost activation only, so recursion is not
counted twice).  Spans are kept in memory, up to a limit, as
``(id, parent, op, name, start, end)`` and written out by ``dump``.
"""

import json
import sys
from collections import defaultdict
from time import perf_counter

from supersew import grassmann, nscoord, nsmod, scalars, series, sewing, vosa
from supersew.series import WindowError

GE = grassmann.GrassmannElement

MAX_SPANS = 100_000


# name -> list of (owner, attribute) sites holding one original function
SPANNED = {
    "grassmann.mul": [(GE, "__mul__"), (GE, "__rmul__")],
    "grassmann.subs": [(GE, "subs")],
    "grassmann.pow": [(GE, "__pow__")],
    "grassmann.truncate": [(GE, "truncate")],
    "grassmann.inverse": [(GE, "inverse")],
    "series.compose_series": [(series.SuperMap, "compose_series")],
    "series.inverse_graded": [(series.SuperMap, "inverse_graded")],
    "series.inverse_at_zero": [(series.SuperMap, "inverse_at_zero")],
    "series.apply_derivation": [(series.SuperSeries, "apply_derivation")],
    "series.exp_ns_terms": [(series, "exp_ns_terms")],
    "nscoord.e_hat": [(nscoord, "e_hat")],
    "nscoord.e_hat_inv": [(nscoord, "e_hat_inv")],
    "nscoord.e_tilde": [(nscoord, "e_tilde")],
    "nscoord.inf_exp_map": [(nscoord, "inf_exp_map")],
    "nscoord.e_inf_inv": [(nscoord, "e_inf_inv")],
    "sewing.sew": [(sewing, "sew")],
    "sewing.solve_psi": [(sewing, "solve_psi")],
    "sewing.solve_gamma": [(sewing, "solve_gamma")],
    "sewing.sn_act": [(sewing, "sn_act")],
    "sewing.e_inf_inv_flipped": [(sewing, "e_inf_inv_flipped")],
    "nsmod.gen_apply": [(nsmod.FockModule, "gen_apply"),
                        (nsmod.VermaModule, "gen_apply")],
    "nsmod.exp_act": [(nsmod, "exp_act")],
    "vosa.mode_basis": [(vosa.FockVOSA, "mode_basis")],
    "vosa.ytilde_apply": [(vosa.FockVOSA, "ytilde_apply")],
    "vosa.delta_series": [(vosa, "delta_series")],
}
# counted only: these run millions of times and carry no useful span
COUNTED = {
    "scalars.gq_mul": [(scalars.GQ, "__mul__"), (scalars.GQ, "__rmul__")],
    "scalars.gq_add": [(scalars.GQ, "__add__"), (scalars.GQ, "__radd__")],
}
# memoised methods: growth of the instance's memo is the number of misses
MEMOISED = {"nsmod.gen_apply", "vosa.mode_basis"}
# a WindowError from these, raised to sew's retry loops, is one retry
RETRIED = {"nscoord.e_hat_inv", "sewing.e_inf_inv_flipped"}
RETRY_LOOPS = {"coord_at", "inf_at"}

# the per-layer metrics the traced run reports (``Tracer.metrics`` has more)
PER_LAYER = [
    "scalars.gq_mul.calls", "scalars.gq_add.calls",
    "grassmann.mul.calls", "grassmann.mul.self_s",
    "grassmann.mul.term_pairs", "grassmann.mul.out_terms",
    "grassmann.subs.calls", "grassmann.subs.self_s",
    "grassmann.pow.calls", "grassmann.pow.self_s",
    "grassmann.truncate.in_terms", "grassmann.truncate.out_terms",
    "grassmann.inverse.calls", "grassmann.inverse.self_s",
    "series.compose_series.calls", "series.compose_series.self_s",
    "series.compose_series.total_s",
    "series.inverse_graded.calls", "series.inverse_graded.total_s",
    "series.inverse_at_zero.calls", "series.inverse_at_zero.total_s",
    "series.exp_ns_terms.calls", "series.exp_ns_terms.total_s",
    "series.apply_derivation.calls", "series.apply_derivation.self_s",
    "nscoord.e_hat.calls", "nscoord.e_hat.total_s",
    "nscoord.e_hat_inv.calls", "nscoord.e_hat_inv.total_s",
    "nscoord.e_hat_inv.self_s",
    "nscoord.e_tilde.calls", "nscoord.e_tilde.total_s",
    "nscoord.inf_exp_map.calls", "nscoord.inf_exp_map.total_s",
    "nscoord.e_inf_inv.calls", "nscoord.e_inf_inv.total_s",
    "sewing.sew.calls", "sewing.sew.total_s", "sewing.sew.self_s",
    "sewing.solve_psi.calls", "sewing.solve_psi.total_s",
    "sewing.solve_gamma.calls", "sewing.solve_gamma.total_s",
    "sewing.sn_act.calls", "sewing.sn_act.total_s",
    "sewing.e_inf_inv_flipped.calls", "sewing.e_inf_inv_flipped.total_s",
    "sewing.window_retries",
    "nsmod.gen_apply.calls", "nsmod.gen_apply.misses",
    "nsmod.gen_apply.self_s",
    "nsmod.exp_act.calls", "nsmod.exp_act.total_s",
    "vosa.mode_basis.calls", "vosa.mode_basis.misses",
    "vosa.mode_basis.self_s",
    "vosa.ytilde_apply.calls", "vosa.ytilde_apply.total_s",
    "vosa.delta_series.total_s", "vosa.memo_entries",
]


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "misses")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.misses = 0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counts = defaultdict(int)
        self.spans = []
        self.dropped_spans = 0
        self.op = -1
        self.memo_owners = {}
        self._stack = []     # open spans: [span id, child seconds]
        self._next_id = 0
        self._depth = defaultdict(int)
        self._saved = []

    # -- installation ---------------------------------------------------------

    def install(self):
        """Replace every traced function at every site that holds it."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "supersew"
                                      or name.startswith("supersew.")
                                      or name.startswith("supersewbench."))]
        for table, make in ((SPANNED, self._spanned),
                            (COUNTED, self._counted)):
            for name, sites in table.items():
                for owner, attr in sites:
                    original = getattr(owner, attr)
                    targets = [(owner, attr)]
                    if not isinstance(owner, type):
                        targets = [(m, a) for m in mods
                                   for a, val in vars(m).items()
                                   if val is original]
                    wrapper = make(name, original)
                    for o, a in targets:
                        self._saved.append((o, a, original))
                        setattr(o, a, wrapper)

    def uninstall(self):
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved = []

    # -- wrappers -------------------------------------------------------------

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def _spanned(self, name, fn):
        st = self.stats[name]
        stack = self._stack
        depth = self._depth
        spans = self.spans
        counts = self.counts
        memoised = name in MEMOISED
        retried = name in RETRIED

        def wrapper(*args, **kw):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            d = depth[name]
            depth[name] = d + 1
            if memoised and d == 0:
                owner = args[0]
                self.memo_owners[id(owner)] = owner
                memo_before = len(owner._memo)
            t0 = perf_counter()
            try:
                out = fn(*args, **kw)
            except WindowError:
                if retried and \
                        sys._getframe(1).f_code.co_name in RETRY_LOOPS:
                    counts["sewing.window_retries"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] = d
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st.calls += 1
                st.self_s += dur - frame[1]
                if d == 0:
                    st.total_s += dur
                    if memoised:
                        st.misses += len(args[0]._memo) - memo_before
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, self.op, name, t0, t1))
                else:
                    self.dropped_spans += 1
            if name == "grassmann.mul":
                other = args[1]
                counts["grassmann.mul.term_pairs"] += len(args[0].t) * (
                    len(other.t) if isinstance(other, GE) else 1)
                counts["grassmann.mul.out_terms"] += len(out.t)
            elif name == "grassmann.truncate":
                counts["grassmann.truncate.in_terms"] += len(args[0].t)
                counts["grassmann.truncate.out_terms"] += len(out.t)
            return out
        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Flat {metric name: value} for every traced name and counter."""
        out = {}
        for name in SPANNED:
            st = self.stats[name]
            out[name + ".calls"] = st.calls
            out[name + ".self_s"] = st.self_s
            out[name + ".total_s"] = st.total_s
            if name in MEMOISED:
                out[name + ".misses"] = st.misses
        for name in COUNTED:
            out[name + ".calls"] = self.counts[name]
        for name in ("grassmann.mul.term_pairs", "grassmann.mul.out_terms",
                     "grassmann.truncate.in_terms",
                     "grassmann.truncate.out_terms", "sewing.window_retries"):
            out[name] = self.counts[name]
        out["vosa.memo_entries"] = sum(
            len(o._memo) for o in self.memo_owners.values()
            if isinstance(o, vosa.FockVOSA))
        return out

    def dump(self, path, header):
        """Write the header, then one JSON line per kept span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans),
                                     dropped_spans=self.dropped_spans))
                     + "\n")
            for span_id, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")
