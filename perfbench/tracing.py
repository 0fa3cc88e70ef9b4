"""Spans around the public calls of each ``biloc`` layer, for traced runs.

``Tracer.install`` replaces a function where the calling module looks it up
(``biloc.cli.solve``, ``biloc.solver.bnb.evaluate_offers`` and so on) with a
wrapper that records a span: name, start, end, parent span and operation
number, plus counts read off the call's result.  Spans stay in memory and
are written out once the run ends; ``layer_metrics`` derives each layer's
time and counts for one operation from them.  Nothing inside ``src/``
changes.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "op", "info")

    def __init__(self, sid, name, parent, start, op):
        self.sid, self.name, self.parent = sid, name, parent
        self.start, self.end, self.op = start, None, op
        self.info: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, owner, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``name`` may be a function of the call's (args, kwargs);
        ``on_result(info, args, kwargs, result)`` stores counts on the span.
        """
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1].sid if tracer._stack else None
            span = Span(len(tracer.spans), label, parent, time.perf_counter(), tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(span.info, args, kwargs, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def count_draws(self, owner, attr: str) -> None:
        """Count the noise draws a generator method yields, per stream, on
        the innermost open span."""
        original = getattr(owner, attr)
        tracer = self

        def counted(scenarios, n, k, m, *args, **kwargs):
            key = repr((scenarios.seed, scenarios.count, scenarios.beta, n, k, m))
            for chunk in original(scenarios, n, k, m, *args, **kwargs):
                if tracer._stack:
                    draws = tracer._stack[-1].info.setdefault("draws", {})
                    draws[key] = draws.get(key, 0) + chunk.size
                yield chunk

        self._patched.append((owner, attr, original))
        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({"id": s.sid, "name": s.name, "parent": s.parent,
                                      "op": s.op, "start": s.start, "end": s.end,
                                      **s.info}) + "\n")


def _nodes(info, _args, _kwargs, solution):
    info["nodes"] = getattr(solution, "nodes", 0)


def _rows(info, _args, _kwargs, model):
    info["rows"] = len(getattr(model, "constraints", ()))


def _trivial(info, _args, _kwargs, certified):
    info["trivial"] = bool(certified)


def _pivots(info, _args, _kwargs, result):
    info["iterations"] = getattr(result, "iterations", 0)


def _simulate_mode(_args, kwargs):
    # the CLI passes the mode by keyword; its value names the mode
    return ("oracle.realloc" if kwargs.get("mode") == "per-scenario-reallocation"
            else "oracle.reduced")


#: (module, attribute looked up there, span name, count reader)
WRAPPED = (
    ("biloc.cli", "solve", "bnb.solve", _nodes),
    ("biloc.bench", "solve", "bnb.solve", _nodes),
    ("biloc.solver.bnb", "certifies_trivial", "milp.certify", _trivial),
    ("biloc.solver.bnb", "best_facility_set", "serving.warm_start", None),
    ("biloc.solver.bnb", "evaluate_offers", "serving.leaf_eval", None),
    ("biloc.solver.serving", "evaluate_offers", "serving.subset_eval", None),
    ("biloc.solver.serving", "solve_transportation", "transport.solve", None),
    ("biloc.solver.transportation", "solve_dense_lp", "simplex.solve", _pivots),
    ("biloc.milp", "build", "milp.build", _rows),
    ("biloc.choice", "rho_saa", "choice.rho_saa", None),
    ("biloc.oracle", "simulate", _simulate_mode, None),
    ("biloc.oracle", "transport_offers", "oracle.transport", None),
    ("biloc.instance", "generate", "instance.generate", None),
    ("biloc.instance", "load", "instance.load", None),
    ("biloc.instance", "save", "instance.save", None),
    ("biloc.bench", "generate", "instance.generate", None),
    ("biloc.bench", "load", "instance.load", None),
)


def install_biloc(tracer: Tracer) -> list[str]:
    """Wrap the public call of every layer the three workloads reach.

    A module or function that a refactor removed is skipped, so its layer
    reads 0; the skipped names are returned.
    """
    missing = []
    for module, attr, name, reader in WRAPPED:
        try:
            owner = importlib.import_module(module)
        except ModuleNotFoundError:
            owner = None
        if getattr(owner, attr, None) is None:
            missing.append(f"{module}.{attr}")
            continue
        tracer.install(owner, attr, name, reader)
    scenarios = getattr(sys.modules.get("biloc.choice"), "ScenarioSet", None)
    if getattr(scenarios, "epsilon_chunks", None) is None:
        missing.append("biloc.choice.ScenarioSet.epsilon_chunks")
    else:
        tracer.count_draws(scenarios, "epsilon_chunks")
    return missing


#: Per-layer metric -> unit, in report order.
LAYER_METRICS = {
    "bnb.solve_s": "s", "bnb.self_s": "s", "bnb.nodes": "count",
    "serving.warm_start_s": "s", "serving.warm_start_subsets": "count",
    "serving.leaf_evals": "count", "serving.leaf_eval_s": "s",
    "transport.calls": "count", "transport.s": "s", "transport.greedy_share": "ratio",
    "simplex.calls": "count", "simplex.iterations": "count", "simplex.s": "s",
    "milp.build_s": "s", "milp.build_rows": "count", "milp.trivial_points": "count",
    "choice.saa_s": "s", "choice.draws": "count", "choice.draw_reuse": "ratio",
    "oracle.reduced_s": "s", "oracle.realloc_s": "s", "oracle.realloc_solves": "count",
    "instance.s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric of one operation's spans (0 where the layer
    did not run)."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(name: str) -> float:
        return sum(s.seconds for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def self_time(name: str) -> float:
        return sum(s.seconds - sum(c.seconds for c in children.get(s.sid, ()))
                   for s in by_name.get(name, ()))

    transports = by_name.get("transport.solve", [])
    greedy = sum(1 for s in transports
                 if not any(c.name == "simplex.solve" for c in children.get(s.sid, ())))
    realloc_ids = {s.sid for s in by_name.get("oracle.realloc", ())}
    made, distinct = 0, {}
    for s in by_name.get("choice.rho_saa", ()):
        for key, size in s.info.get("draws", {}).items():
            made += size
            distinct[key] = max(distinct.get(key, 0), size)
    return {
        "bnb.solve_s": total("bnb.solve"),
        "bnb.self_s": self_time("bnb.solve"),
        "bnb.nodes": sum(s.info.get("nodes", 0) for s in by_name.get("bnb.solve", ())),
        "serving.warm_start_s": total("serving.warm_start"),
        "serving.warm_start_subsets": calls("serving.subset_eval"),
        "serving.leaf_evals": calls("serving.leaf_eval"),
        "serving.leaf_eval_s": total("serving.leaf_eval"),
        "transport.calls": len(transports),
        "transport.s": total("transport.solve"),
        "transport.greedy_share": greedy / len(transports) if transports else 0.0,
        "simplex.calls": calls("simplex.solve"),
        "simplex.iterations": sum(s.info.get("iterations", 0)
                                  for s in by_name.get("simplex.solve", ())),
        "simplex.s": total("simplex.solve"),
        "milp.build_s": total("milp.build"),
        "milp.build_rows": sum(s.info.get("rows", 0) for s in by_name.get("milp.build", ())),
        "milp.trivial_points": sum(1 for s in by_name.get("milp.certify", ())
                                   if s.info.get("trivial")),
        "choice.saa_s": total("choice.rho_saa"),
        "choice.draws": made,
        "choice.draw_reuse": sum(distinct.values()) / made if made else 0.0,
        "oracle.reduced_s": total("oracle.reduced"),
        "oracle.realloc_s": total("oracle.realloc"),
        "oracle.realloc_solves": sum(1 for s in by_name.get("oracle.transport", ())
                                     if s.parent in realloc_ids),
        "instance.s": sum(total("instance." + n) for n in ("generate", "load", "save")),
    }
