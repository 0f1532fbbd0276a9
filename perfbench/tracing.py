"""Spans and work counters around vmpnet's public entry points.

The tracer is installed from outside the package: it replaces a function in
every vmpnet module namespace that holds it (``scaling`` imports
``dual_colors_genealogy`` by name, so patching only ``duality`` would miss
its calls), and puts the originals back on ``restore``.  Spans are kept in
memory as ``[name, start, end, parent, counts]`` and written out once, when
the traced job ends.  Counters add to the innermost open span.

Which metric answers which per-layer row of ROADMAP item 1:

=========================  ================================================
keyed RNG                  ``rng.vertex_uniform.calls``,
                           ``rng.vertex_uniform_grid.elems``
arrow outcomes             ``lattice_net.KeyedNet.outcome_at.calls``
forward batch              ``models.forward_batch.s``,
                           ``models.forward_batch.site_updates_per_s``
dual genealogy, t=32..2048 ``scaling.marginal.t<t>.s``,
                           ``scaling.interface.t<t>.s``,
                           ``duality.dual_sample_many.draws_per_s``
both exact oracles         ``duality.exact_forward_law.s``,
                           ``duality.exact_dual_law.s``,
                           ``duality.exact_dual_law.configs``
max-flow relevance         ``dualgraph.relevant_points.s`` (brute force:
                           ``dualgraph.relevant_points_bruteforce.s``)
chi-square / bootstrap     ``duality.pooled_two_sample_chisquare.s``,
                           ``scaling.bootstrap.s``
=========================  ================================================
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.root_counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open_counts(self) -> dict:
        return self.spans[self._stack[-1]][4] if self._stack else self.root_counts

    def span(self, name, fn, measure=None):
        """Wrap ``fn`` in a span.  ``name`` is a string or a function of
        (args, kwargs); ``measure(args, kwargs, result)`` returns counts to
        add to the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if measure is not None:
                rec[4].update(measure(args, kwargs, result))
            return result

        return wrapper

    def counter(self, name, fn, amount=None):
        """Wrap ``fn`` so each call adds ``amount(args, kwargs)`` (default 1)
        to counter ``name`` of the innermost open span."""
        open_counts = self._open_counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = open_counts()
            counts[name] = counts.get(name, 0) + (1 if amount is None else amount(args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ----------------------------------------------------------

    def patch_function(self, fn, wrapper) -> int:
        """Replace ``fn`` by ``wrapper`` in every loaded vmpnet module."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "vmpnet" or modname.startswith("vmpnet.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
                    hits += 1
        return hits

    def patch_method(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    def dump(self) -> dict:
        return {
            "workload": self.workload,
            "root_counts": self.root_counts,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "workload": self.workload, "counts": c}
                for n, s, e, p, c in self.spans
            ],
        }


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------

def _bound(fn):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return get


def _chunk_depth(kind):
    """Span name of one scaling chunk, keyed by the query depth of its level."""

    def name(args, kwargs):
        level = kwargs["levels"][args[0][0]]
        depth = level["t_n"] if kind == "interface" else max(v.t for v in level["snapped"])
        return f"scaling.{kind}.t{depth}"

    return name


def install(tracer: Tracer) -> None:
    from vmpnet import cli, coloring, dualgraph, duality, lattice_net, models, rng, runio, scaling, verify

    def wrap(fn, name, measure=None):
        tracer.patch_function(fn, tracer.span(name, fn, measure))

    def count(fn, name, amount=None):
        tracer.patch_function(fn, tracer.counter(name, fn, amount))

    dsm = _bound(duality.dual_sample_many)
    wrap(duality.dual_sample_many, "duality.dual_sample_many", lambda a, k, r: {"draws": dsm(a, k)["trials"]})
    wrap(duality.forward_sample_many, "duality.forward_sample_many")
    wrap(duality.pooled_two_sample_chisquare, "duality.pooled_two_sample_chisquare")
    wrap(duality.exact_forward_law, "duality.exact_forward_law")
    edl = _bound(duality.exact_dual_law)
    wrap(duality.exact_dual_law, "duality.exact_dual_law", lambda a, k, r: {"configs": _dual_configs(**edl(a, k))})

    fb = _bound(models.forward_batch)
    wrap(models.forward_batch, "models.forward_batch", lambda a, k, r: {"site_updates": _batch_updates(fb(a, k))})
    sim = _bound(models.simulate)
    wrap(models.simulate, "models.simulate", lambda a, k, r: {"site_updates": _simulate_updates(sim(a, k))})

    wrap(scaling.coarsening_gate, "scaling.coarsening_gate")
    wrap(scaling.interface_experiment, "scaling.interface_experiment")
    wrap(scaling.marginal_convergence_experiment, "scaling.marginal_convergence_experiment")
    wrap(scaling._marginal_chunk, _chunk_depth("marginal"))
    wrap(scaling._interface_chunk, _chunk_depth("interface"))
    wrap(scaling.interface_census, "scaling.interface_census")
    wrap(scaling._bootstrap_tvd_ci, "scaling.bootstrap")

    wrap(dualgraph.build_dag, "dualgraph.build_dag", lambda a, k, r: {"vertices": len(r.kinds)})
    wrap(dualgraph.relevant_points, "dualgraph.relevant_points")
    wrap(dualgraph.relevant_points_bruteforce, "dualgraph.relevant_points_bruteforce")
    wrap(
        dualgraph.reduce_dag,
        "dualgraph.reduce_dag",
        lambda a, k, r: {"vertices_in": len(a[0].kinds), "vertices_kept": len(r.kinds)},
    )
    wrap(coloring.color_dag, "coloring.color_dag")

    for attr, fn in sorted(vars(verify).items()):
        if attr.startswith("gate_") and inspect.isfunction(fn):
            wrap(fn, f"verify.{attr}")

    wrap(cli.main, lambda a, k: f"cli.main.{(a[0] if a else k['argv'])[0]}")
    tracer.patch_method(
        runio.RunDir,
        "write",
        tracer.span(
            "runio.RunDir.write",
            runio.RunDir.write,
            lambda a, k, r: {"bytes": len((a[2] if len(a) > 2 else k["content"]).encode())},
        ),
    )

    count(rng.vertex_uniform, "rng.vertex_uniform.calls")
    count(
        rng.vertex_uniform_grid,
        "rng.vertex_uniform_grid.elems",
        lambda a, k: int(np.broadcast(*(np.asarray(v) for v in a)).size),
    )
    tracer.patch_method(
        lattice_net.KeyedNet,
        "outcome_at",
        tracer.counter("lattice_net.KeyedNet.outcome_at.calls", lattice_net.KeyedNet.outcome_at),
    )


def _dual_configs(params, points, **_) -> int:
    """|support| ^ |decision cone|, the enumeration size of exact_dual_law."""
    support = sum(1 for pr in (0.5 * params.w, 0.5 * params.w, params.b, params.kappa) if pr > 0.0)
    decision = {
        (x, t)
        for px, pt in points
        for t in range(1, pt + 1)
        for x in range(px - (pt - t), px + (pt - t) + 1, 2)
    }
    return support ** len(decision)


def _batch_updates(a) -> int:
    x_lo, x_hi = a["x_lo"], a["x_hi"]
    width = len(range(x_lo + (x_lo + 1) % 2, x_hi + 1, 2))
    t_max = max(t for _, t in a["record"])
    return len(a["seeds"]) * sum(width - t for t in range(1, t_max + 1))


def _simulate_updates(a) -> int:
    want = 1 if a["parity"] == "odd" else 0
    width = sum(1 for x in range(a["x_lo"], a["x_hi"] + 1) if x % 2 == want)
    return sum(width - t for t in range(1, a["steps"] + 1))


# ---------------------------------------------------------------------------
# From spans to per-layer metrics
# ---------------------------------------------------------------------------

def layer_totals(trace: dict) -> tuple[dict, dict, dict]:
    """Per span name: self time, call count and summed counters; plus the
    counters summed over all spans."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    all_counts: dict[str, int] = defaultdict(int, trace["root_counts"])
    for s, child in zip(spans, child_time):
        self_s[s["name"]] += (s["end"] - s["start"]) - child
        calls[s["name"]] += 1
        for k, v in s["counts"].items():
            counts[s["name"]][k] += v
            all_counts[k] += v
    return dict(self_s), dict(calls), {"by_span": counts, "all": all_counts}


def _rate(work: int, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(trace: dict, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric the benchmark reports; 0 for a layer the
    workload does not reach."""
    self_s, calls, counts = layer_totals(trace)
    by_span, total = counts["by_span"], counts["all"]

    def s(name):
        return self_s.get(name, 0.0)

    def c(span, key):
        return by_span.get(span, {}).get(key, 0)

    m = {
        "duality.dual_sample_many.s": s("duality.dual_sample_many"),
        "duality.dual_sample_many.draws_per_s": _rate(
            c("duality.dual_sample_many", "draws"), s("duality.dual_sample_many")
        ),
        "duality.forward_sample_many.s": s("duality.forward_sample_many"),
        "models.forward_batch.s": s("models.forward_batch"),
        "models.forward_batch.site_updates_per_s": _rate(
            c("models.forward_batch", "site_updates"), s("models.forward_batch")
        ),
        "duality.pooled_two_sample_chisquare.s": s("duality.pooled_two_sample_chisquare"),
    }
    for kind in ("marginal", "interface"):
        for t in (32, 128, 512, 2048):
            m[f"scaling.{kind}.t{t}.s"] = s(f"scaling.{kind}.t{t}")
    kept_in = c("dualgraph.reduce_dag", "vertices_in")
    m.update(
        {
            "scaling.bootstrap.s": s("scaling.bootstrap"),
            "scaling.interface_census.s": s("scaling.interface_census"),
            "rng.vertex_uniform.calls": total["rng.vertex_uniform.calls"],
            "rng.vertex_uniform_grid.elems": total["rng.vertex_uniform_grid.elems"],
            "duality.exact_forward_law.s": s("duality.exact_forward_law"),
            "duality.exact_dual_law.s": s("duality.exact_dual_law"),
            "duality.exact_dual_law.configs": c("duality.exact_dual_law", "configs"),
            "dualgraph.build_dag.s": s("dualgraph.build_dag"),
            "dualgraph.build_dag.vertices": c("dualgraph.build_dag", "vertices"),
            "dualgraph.relevant_points.s": s("dualgraph.relevant_points"),
            "dualgraph.relevant_points_bruteforce.s": s("dualgraph.relevant_points_bruteforce"),
            "dualgraph.reduce_dag.s": s("dualgraph.reduce_dag"),
            "dualgraph.reduce_dag.kept_ratio": c("dualgraph.reduce_dag", "vertices_kept") / kept_in
            if kept_in
            else 0.0,
            "lattice_net.KeyedNet.outcome_at.calls": total["lattice_net.KeyedNet.outcome_at.calls"],
            "coloring.color_dag.s": s("coloring.color_dag"),
            "coloring.color_dag.calls": calls.get("coloring.color_dag", 0),
            "verify.gate_oracle_equality.s": s("verify.gate_oracle_equality"),
            "verify.gate_reduction.s": s("verify.gate_reduction"),
            "verify.gate_order_independence.s": s("verify.gate_order_independence"),
            "models.simulate.s": s("models.simulate"),
            "models.simulate.site_updates_per_s": _rate(
                c("models.simulate", "site_updates"), s("models.simulate")
            ),
            "cli.main.simulate.s": s("cli.main.simulate"),
            "cli.main.reduce-graph.s": s("cli.main.reduce-graph"),
            "runio.RunDir.write.s": s("runio.RunDir.write"),
            "runio.RunDir.write.bytes": c("runio.RunDir.write", "bytes"),
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
            "trace.named_share": sum(self_s.values()) / traced_wall_s if traced_wall_s > 0 else 0.0,
        }
    )
    return m


def deterministic_counts(trace: dict) -> dict:
    """Every work count of a trace, keyed by span name; these must repeat
    exactly between two traced runs at one seed."""
    _, calls, counts = layer_totals(trace)
    out = {f"{name}.calls": n for name, n in calls.items()}
    for name, cs in counts["by_span"].items():
        for k, v in cs.items():
            out[f"{name}.{k}"] = v
    out.update({f"total.{k}": v for k, v in counts["all"].items()})
    return out
