"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces the public entry points of each sidforge
module with timing wrappers. A wrapper goes on every module attribute
that holds the original function, so ``from .quantizer import
encode_batch`` in ``cli`` and ``evalharness`` is traced too. Nothing in
the program changes; ``uninstall`` puts the originals back.

Spans are kept in memory as ``[name, start, end, parent]`` and written
out when the run ends. A span's self time is its duration minus the
durations of its direct children (the program is single-threaded, so
children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

LAYERS = ("kmeans", "quantizer", "sidmetrics", "generator", "evalharness",
          "embedding", "sids", "curriculum", "identity", "cli")

CLI_COMMANDS = ("enhance", "fit-codebook", "encode", "curriculum", "fit-scorer",
                "evaluate", "metrics", "generate")


def _cli_metric(command: str) -> str:
    return f"cli.{command.replace('-', '_')}_s"


# name -> unit for every per-layer metric; each is emitted on every
# workload, with 0 where the workload leaves that layer idle
PER_LAYER_UNITS: dict[str, str] = {
    "kmeans.seed_s": "s", "kmeans.fit_s": "s", "kmeans.fit_calls": "count",
    "kmeans.lloyd_iters": "count", "kmeans.balanced_s": "s",
    "kmeans.balanced_iters": "count",
    "quantizer.fit_codebook_s": "s", "quantizer.fit_self_s": "s",
    "quantizer.opq_s": "s", "quantizer.opq_rounds": "count",
    "quantizer.encode_s": "s", "quantizer.encode_calls": "count",
    "quantizer.encode_peak_mb": "MB", "quantizer.save_s": "s", "quantizer.load_s": "s",
    "sidmetrics.cur_s": "s", "sidmetrics.icr_s": "s", "sidmetrics.drift_self_s": "s",
    "generator.build_trie_s": "s", "generator.trie_nodes": "count",
    "generator.beam_s": "s", "generator.beam_calls": "count",
    "generator.cooc_fit_s": "s", "generator.score_calls": "count",
    "generator.score_s": "s", "generator.score_calls_per_beam": "count",
    "generator.unseen_slot_ratio": "ratio", "generator.beam_kept_ratio": "ratio",
    "evalharness.run_eval_s": "s", "evalharness.rank_items_s": "s",
    "evalharness.distinct_context_ratio": "ratio",
    "embedding.load_catalog_s": "s", "embedding.save_catalog_s": "s",
    "embedding.compose_s": "s",
    "sids.read_sid_file_s": "s", "sids.write_sid_file_s": "s",
    "curriculum.stage3_s": "s", "curriculum.records": "count",
    "identity.build_user_sid_s": "s", "identity.build_user_sid_calls": "count",
    "identity.parse_prompt_s": "s",
    **{_cli_metric(c): "s" for c in CLI_COMMANDS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count", "trace.coverage": "ratio", "trace.overhead_s": "s",
}

# (module, function, span name); spans named "<layer>.<op>" add up into
# the "<layer>.<op>_s" metric
_SPANS = (
    ("kmeans", "kmeanspp_seed", "kmeans.seed"),
    ("kmeans", "kmeans_fit", "kmeans.fit"),
    ("kmeans", "balanced_kmeans_fit", "kmeans.balanced"),
    ("quantizer", "fit_codebook", "quantizer.fit_codebook"),
    ("quantizer", "opq_fit", "quantizer.opq"),
    ("quantizer", "save_codebook", "quantizer.save"),
    ("quantizer", "load_codebook", "quantizer.load"),
    ("sidmetrics", "cur", "sidmetrics.cur"),
    ("sidmetrics", "icr", "sidmetrics.icr"),
    ("sidmetrics", "drift_report", "sidmetrics.drift"),
    ("generator", "build_trie", "generator.build_trie"),
    ("generator", "cooccurrence_fit", "generator.cooc_fit"),
    ("evalharness", "run_eval", "evalharness.run_eval"),
    ("evalharness", "rank_items", "evalharness.rank_items"),
    ("embedding", "load_catalog", "embedding.load_catalog"),
    ("embedding", "save_catalog", "embedding.save_catalog"),
    ("embedding", "compose_enhanced", "embedding.compose"),
    ("sids", "read_sid_file", "sids.read_sid_file"),
    ("sids", "write_sid_file", "sids.write_sid_file"),
    ("curriculum", "build_stage3", "curriculum.stage3"),
    ("identity", "build_user_sid", "identity.build_user_sid"),
    ("identity", "parse_prompt", "identity.parse_prompt"),
)


def _count_trie_nodes(trie) -> int:
    count, stack = 0, [trie.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children.values())
    return count


class NullTracer:
    """Stand-in for untraced repeats: spans cost one no-op context."""

    def span(self, name: str):
        return contextlib.nullcontext()


class _CountingScorer:
    """Proxy scorer: times and counts ``score`` calls, per digit position,
    and checks whether the co-occurrence slot behind each call was seen."""

    def __init__(self, inner, tracer: "Tracer", length: int):
        self._inner = inner
        self._tracer = tracer
        self.per_pos = [0] * length
        counts = getattr(inner, "counts", None)
        self._slots = counts if isinstance(counts, dict) else None

    def score(self, context, prefix, digit):
        t0 = time.perf_counter()
        value = self._inner.score(context, prefix, digit)
        self._tracer.score_s += time.perf_counter() - t0
        pos = len(prefix)
        self.per_pos[pos] += 1
        rq = getattr(context, "rq", None)
        if self._slots is not None and rq:
            if (pos, rq[0], prefix[-1] if prefix else -1) not in self._slots:
                self._tracer.counters["generator.unseen_slots"] += 1
        return value

    # any other scorer method the program calls goes to the real scorer
    # uncounted, so traced outputs still equal untraced ones
    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.score_s = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- wrappers ------------------------------------------------------

    def _timed(self, orig, name, after=None):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _encode_wrapper(self, orig):
        """encode_batch: span plus the tracemalloc peak of the call."""
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            own = not tracemalloc.is_tracing()
            if own:
                tracemalloc.start()
            index = tracer._open("quantizer.encode")
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._close(index)
                if own:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.counters["quantizer.encode_peak_mb"] = max(
                        tracer.counters["quantizer.encode_peak_mb"], peak_mb)
        return wrapper

    def _beam_wrapper(self, orig):
        """beam_search: span, plus a counting proxy in place of the scorer."""
        tracer = self
        signature = inspect.signature(orig)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            scheme = a["trie"].scheme if a["trie"] is not None else a["scheme"]
            # without a trie or scheme the search raises before any scoring
            proxy = _CountingScorer(a["scorer"], tracer, scheme.length if scheme is not None else 0)
            a["scorer"] = proxy
            index = tracer._open("generator.beam")
            try:
                return orig(*bound.args, **bound.kwargs)
            finally:
                tracer._close(index)
                c = tracer.counters
                c["generator.score_calls"] += sum(proxy.per_pos)
                c["generator.beam_kept"] += sum(min(a["beam"], n) for n in proxy.per_pos)
        return wrapper

    def _after_hooks(self):
        c = self.counters

        def kmeans_fit(args, kwargs, result):
            c["kmeans.lloyd_iters"] += len(result.sse_per_iter)

        def balanced(args, kwargs, result):
            c["kmeans.balanced_iters"] += len(result.sse_per_iter)

        def opq(args, kwargs, result):
            c["quantizer.opq_rounds"] += len(result[1]["mean_sq_error_per_outer_iter"])

        def trie(args, kwargs, result):
            c["generator.trie_nodes"] += _count_trie_nodes(result)

        def run_eval(args, kwargs, result):
            cases = kwargs["cases"] if "cases" in kwargs else args[2]
            c["evalharness.cases"] += len(cases)
            c["evalharness.distinct_contexts"] += len({repr(case.context) for case in cases})

        def stage3(args, kwargs, result):
            c["curriculum.records"] += len(result[0])

        return {"kmeans.fit": kmeans_fit, "kmeans.balanced": balanced,
                "quantizer.opq": opq, "generator.build_trie": trie,
                "evalharness.run_eval": run_eval, "curriculum.stage3": stage3}

    def install(self) -> None:
        """Wrap every traced entry point wherever a sidforge module holds it."""
        import sidforge.generator
        import sidforge.quantizer

        hooks = self._after_hooks()
        replacements = {}
        for module_name, func_name, span_name in _SPANS:
            orig = getattr(sys.modules[f"sidforge.{module_name}"], func_name)
            replacements[id(orig)] = (orig, self._timed(orig, span_name, hooks.get(span_name)))
        encode = sidforge.quantizer.encode_batch
        replacements[id(encode)] = (encode, self._encode_wrapper(encode))
        beam = sidforge.generator.beam_search
        replacements[id(beam)] = (beam, self._beam_wrapper(beam))

        for name, module in list(sys.modules.items()):
            if name != "sidforge" and not name.startswith("sidforge."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        calls: dict[str, int] = defaultdict(int)
        covered = 0.0
        for (name, start, end, parent), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            layer, _, op = name.partition(".")
            key = _cli_metric(op) if layer == "cli" else f"{name}_s"
            if key in out:
                out[key] += end - start
            out[f"{layer}.self_s"] += own
            if name == "quantizer.fit_codebook":
                out["quantizer.fit_self_s"] += own
            elif name == "sidmetrics.drift":
                out["sidmetrics.drift_self_s"] += own
            if parent < 0:
                covered += end - start
        c = self.counters
        for name in ("kmeans.lloyd_iters", "kmeans.balanced_iters", "quantizer.opq_rounds",
                     "quantizer.encode_peak_mb", "generator.trie_nodes",
                     "generator.score_calls", "curriculum.records"):
            out[name] = c[name]
        for metric, span in (("kmeans.fit_calls", "kmeans.fit"),
                             ("quantizer.encode_calls", "quantizer.encode"),
                             ("generator.beam_calls", "generator.beam"),
                             ("identity.build_user_sid_calls", "identity.build_user_sid")):
            out[metric] = calls[span]
        out["generator.score_s"] = self.score_s
        if calls["generator.beam"]:
            out["generator.score_calls_per_beam"] = c["generator.score_calls"] / calls["generator.beam"]
        if c["generator.score_calls"]:
            out["generator.unseen_slot_ratio"] = c["generator.unseen_slots"] / c["generator.score_calls"]
            out["generator.beam_kept_ratio"] = c["generator.beam_kept"] / c["generator.score_calls"]
        if c["evalharness.cases"]:
            out["evalharness.distinct_context_ratio"] = (
                c["evalharness.distinct_contexts"] / c["evalharness.cases"])
        out["trace.spans"] = len(self.spans)
        out["trace.coverage"] = covered / traced_wall_s if traced_wall_s > 0 else 0.0
        out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line of raw counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")
            f.write(json.dumps({"counters": dict(self.counters),
                                "score_s": self.score_s}, sort_keys=True) + "\n")
