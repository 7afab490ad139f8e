"""Layer tracing for the benchmark, installed from outside the library.

The tracer replaces every public function of the traced ``gasp`` modules
with a timing wrapper, in every loaded ``gasp`` namespace that holds it
(``from .degree_table import terms`` gives ``gasp.codec`` its own name for
the function, so that name is replaced too).  No library source changes.

Calls into ``codec``, ``harness``, ``schemes`` and ``cli`` each get a span
(name, start, end, parent span).  Calls into ``gf`` and ``degree_table``
are too many for spans (plan search runs ``det`` about 10**5 times), so
they are only aggregated.  Every call, spanned or not, adds to a
per-(parent, function) aggregate of calls, busy (inclusive) time and self
time (busy minus traced children).

A few return values and argument shapes are turned into exact counts:
plan-search attempts and rejects by reason, symbols moved, enumeration
size of the exhaustive audit, and multiply-adds computed from matrix
shapes.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from math import comb

SPANNED = ("codec", "harness", "schemes", "cli")
AGGREGATED = ("gf", "degree_table")
PLAN_SEARCH = "codec.find_evaluation_plan"


def _encode_macs(bound) -> int:
    # One multiply-add per block entry per share term: N servers, each
    # combining K+T row blocks of (r/K) x s and L+T column blocks of s x (t/L).
    code, shapes = bound.arguments["code"], bound.arguments["shapes"]
    k, l, t = code.params.k, code.params.l, code.params.t
    per_server = (k + t) * (shapes.r // k) * shapes.s + (l + t) * shapes.s * (shapes.t // l)
    return code.n_servers * per_server


def _audit_steps(bound, code_for_scheme) -> int:
    # The enumeration size the audit's budget check compares with max_steps.
    args = bound.arguments
    params, p = args["params"], args["p"]
    k, l, t = params.k, params.l, params.t
    shapes = args.get("shapes")
    r, s, tc = (k, 1, l) if shapes is None else (shapes.r, shapes.s, shapes.t)
    subset = args.get("subset_size") or t
    masks = 0 if args.get("zero_masks") else t * (r // k) * s + t * s * (tc // l)
    n = code_for_scheme(params, "auto").n_servers
    return p ** (r * s + s * tc + masks) * comb(n, subset)


class Tracer:
    """Wraps the library's public functions while installed.

    ``harvest()`` returns and clears the aggregates and counts gathered
    since the last harvest; spans accumulate until the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._agg: dict[tuple[str, str], list] = {}
        self._counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._hooks: dict[str, object] = {}
        self._paused = [False]

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for mod_name in SPANNED + AGGREGATED:
            module = sys.modules[f"gasp.{mod_name}"]
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    originals[obj] = f"{mod_name}.{name}"
        wrappers = {fn: self._wrap(fn, label, label.split(".")[0] in SPANNED)
                    for fn, label in originals.items()}
        code_for_scheme = sys.modules["gasp.schemes"].code_for_scheme
        self._hooks = self._make_hooks(originals, code_for_scheme)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gasp" and not mod_name.startswith("gasp."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)

    def call(self, label: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``label``: the root of one operation."""
        return self._wrap(fn, label, True)(*args)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------

    def _make_hooks(self, originals, code_for_scheme) -> dict:
        signatures = {label: inspect.signature(fn) for fn, label in originals.items()}
        counts = self._counts

        def bind(label, args, kwargs):
            return signatures[label].bind(*args, **kwargs)

        def on_cost(label, args, kwargs, result):
            counts["codec.upload_symbols"] += result.upload_symbols
            counts["codec.download_symbols"] += result.download_symbols

        def on_encode(label, args, kwargs, result):
            counts["codec.encode.mac_computed"] += _encode_macs(bind(label, args, kwargs))

        def on_mat_mul(label, args, kwargs, result):
            a = bind(label, args, kwargs).arguments["a"]
            counts["gf.mat_mul.mac_computed"] += a.rows * a.cols * result.cols

        def on_solve(label, args, kwargs, result):
            # Dense Gauss-Jordan: n pivots, each updating n rows of n + m entries.
            n = result.rows
            counts["gf.solve.mac_computed"] += n * n * (n + result.cols)

        def on_audit(label, args, kwargs, result):
            self._paused[0] = True
            try:
                steps = _audit_steps(bind(label, args, kwargs), code_for_scheme)
            finally:
                self._paused[0] = False
            counts["harness.exhaustive_privacy_audit.steps"] += steps

        def on_plan(label, args, kwargs, result):
            counts["codec.plan.accepted"] += 1

        return {
            "codec.cost": on_cost,
            "codec.encode": on_encode,
            "gf.mat_mul": on_mat_mul,
            "gf.solve": on_solve,
            "harness.exhaustive_privacy_audit": on_audit,
            PLAN_SEARCH: on_plan,
        }

    def _wrap(self, fn, label: str, spanned: bool):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        close = self._close
        paused = self._paused

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_index = None
            if spanned:
                span_index = len(spans)
                spans.append([label, 0.0, 0.0, _span_parent(stack)])
            # frame: label, child seconds, span index, mask checks this attempt
            frame = [label, 0.0, span_index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, parent, start, clock(), None, None, None, raised=True)
                raise
            close(frame, parent, start, clock(), args, kwargs, result, raised=False)
            return result

        return traced

    def _close(self, frame, parent, start, end, args, kwargs, result, raised) -> None:
        self._stack.pop()
        label, child_s, span_index, _ = frame
        busy = end - start
        if span_index is not None:
            self.spans[span_index][1:3] = [start, end]
        parent_label = "-"
        if parent is not None:
            parent[1] += busy
            parent_label = parent[0]
        entry = self._agg.get((parent_label, label))
        if entry is None:
            entry = self._agg[(parent_label, label)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += busy
        entry[2] += busy - child_s
        if raised:
            return
        if parent_label == PLAN_SEARCH:
            self._classify_attempt(parent, label, result)
        hook = self._hooks.get(label)
        if hook is not None:
            hook(label, args, kwargs, result)

    def _classify_attempt(self, search_frame, label, result) -> None:
        # Plan search checks each candidate in a fixed order: GV determinant,
        # then the alpha-mask matrix, then the beta-mask matrix, stopping at
        # the first failure.
        counts = self._counts
        if label == "gf.det":
            counts["codec.plan.attempts"] += 1
            search_frame[3] = 0
            if result == 0:
                counts["codec.plan.reject_gv"] += 1
        elif label == "gf.is_mds":
            search_frame[3] += 1
            if not result:
                side = "alpha" if search_frame[3] == 1 else "beta"
                counts[f"codec.plan.reject_{side}_mds"] += 1

    # -- results ------------------------------------------------------

    def harvest(self) -> tuple[dict, Counter]:
        """Aggregates {(parent, function): [calls, busy_s, self_s]} and counts."""
        agg, counts = self._agg, Counter(self._counts)
        self._agg = {}
        self._counts.clear()
        return agg, counts


def _span_parent(stack) -> int | None:
    for frame in reversed(stack):
        if frame[2] is not None:
            return frame[2]
    return None
