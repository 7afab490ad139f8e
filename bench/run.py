"""Benchmark of the gasp library: set-up, steady-state multiplication, oracles.

Run from the repository root:

    python3 bench/run.py --workload multiply --seed 0 --seconds 20 --trace 0

Each run is one process, one thread and one closed-loop client: the next
operation starts only after the previous one and its checks have ended.
The library is imported from ``src/``; the run calls its public functions
itself and checks every output outside the timed interval.

Workloads (why each one is here):

* ``cold-session``: one operation is a complete ``harness.run_sdmm``
  session at (K,L,T) = (4,4,3) (small scheme, N = 33, p = 1399) with a fresh
  seed, multiplying an 8x2 by a 2x8 pair.  Plan search is nearly all of it,
  and the C(33,3) mask minors nearly all of plan search: the set-up path.
* ``multiply``: one (8,8,2) plan (small scheme, N = 83, p = 11383) is
  prepared in set-up; one operation is encode, 83 server products, decode
  and ``codec.cost`` for a fresh 128x64 by 64x128 pair with seeded masks.
  No plan search runs: the steady-state path.
* ``reproduce``: one operation is a pass over the brute-force oracles and
  table commands: ``harness.mds_audit`` of a (4,4,4) big-scheme plan built
  in set-up (full C(39,4) enumeration), the exhaustive privacy audit at
  (1,1,2) over F_7 with real and with zeroed masks, the ``rate-sweep`` and
  ``grouped-sweep`` CLI commands, ``optimize_gasp(50, T)`` for T = 1..24,
  and a grouped-code session (4,4,4), G = 2 at the default field.  These
  are the paths that should stay slow and unchanged.

Inputs come from ``--seed``: session seeds, audit plan seeds, matrices and
masks.  The set-up plans (``PLAN_SEED``), the table commands and the grouped
probe take fixed inputs, so every run repeats the same set-up and probe work.

Checks: every decoded product is compared with ``gf.mat_mul``; every plan
that ``cold-session`` and ``multiply`` use is re-checked with the full
enumeration of ``harness.mds_audit``; audit verdicts must match their
expected values; the CLI CSVs must match ``bench/golden`` byte for byte.
A failed check counts in ``failed``.  The grouped session at the default
field is refused with ``PlanSearchError`` at present; that outcome is
counted apart as ``grouped_probe.refused`` and printed, not hidden.  A
non-zero exit status means the benchmark itself crashed.

With ``--trace 0`` the last line reports the end-to-end metrics:
``setup_s``, the median of at least three set-ups (fresh import of the
library, code build and the plan the loop reuses); ``op_ref.p50``, the
median time of one operation in refs; and ``peak_rss_mb``.  A ref is the
time of a fixed pure-Python kernel sampled around and during every step
(see ``Stopwatch``): the host's speed drifts by tens of percent within
seconds to minutes, and a time in refs cancels most of that drift.
Seconds, rates and failures are printed by name above the last line.

With ``--trace 1`` the run alternates untraced and traced operations on
the same inputs and reports per-layer metrics from ``bench/tracer.py``:
counts summed over the workload's first ``counted_ops`` traced
operations, times as means per traced operation, one traced set-up
(``setup.*``), and the tracing overhead.  Spans and the run record are
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer  # bench/ is on sys.path as the script's directory

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"

# A seed kept out of tuning, for confirming a claimed gain.
HELD_OUT_SEED = 2718281
# Set-up searches the same plan in every run: plan search takes one to a
# few attempts depending on its seed, and set-up time should measure the
# same work whatever --seed is.
PLAN_SEED = 0
SETUP_REPEATS, SETUP_MIN_S = 3, 1.0
LIB_MODULES = ("cli", "codec", "degree_table", "errors", "gf", "harness", "schemes")


def import_library():
    """Import gasp afresh, so that set-up time includes the import."""
    for name in [m for m in sys.modules if m == "gasp" or m.startswith("gasp.")]:
        del sys.modules[name]
    return argparse.Namespace(**{m: importlib.import_module(f"gasp.{m}") for m in LIB_MODULES})


def random_field_matrix(lib, p: int, rows: int, cols: int, rng: random.Random):
    return lib.gf.FieldMatrix(rows, cols, tuple(rng.randrange(p) for _ in range(rows * cols)))


def guarded(lib, fn, *args, **kwargs):
    """Call ``fn``; a library error is returned as the result, to fail its check."""
    try:
        return fn(*args, **kwargs)
    except lib.errors.GaspError as exc:
        return exc


_REF_P = 11383
_REF_ROWS = [[(i * 7919 + j * 104729 + 1) % _REF_P for j in range(24)] for i in range(24)]
SAMPLE_EVERY_S = 0.1


def reference_seconds() -> float:
    """One timed run of a fixed pure-Python kernel: the benchmark's unit.

    The kernel is modular row elimination of a 24x24 matrix, the kind of
    interpreted integer loop the library runs, and it calls no library code.
    The garbage collector is held off while it runs: a collection of the
    workload's heap is the workload's cost, not a change of host speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rows = [row[:] for row in _REF_ROWS]
        for col in range(24):
            inv = pow(rows[col][col] or 1, -1, _REF_P)
            pivot = rows[col]
            for r in range(col + 1, 24):
                f = rows[r][col] * inv % _REF_P
                rows[r] = [(x - f * y) % _REF_P for x, y in zip(rows[r], pivot)]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Stopwatch:
    """Runs the steps of one operation, timing each in seconds and in refs.

    The host's speed drifts by tens of percent within seconds, so the
    reference kernel is timed three times at each edge of a step and, from
    an interval timer, every ``SAMPLE_EVERY_S`` seconds while it runs.  A
    step's time in refs is its own time, sampling excluded, over the mean
    of those kernel times.  Timing only at the edges tracks a step of a few
    seconds worse than no correction at all.
    """

    def __init__(self, lib) -> None:
        self.lib = lib
        self.seconds = 0.0
        self.refs = 0.0
        self._edge = [reference_seconds() for _ in range(3)]

    def __call__(self, fn, *args, **kwargs):
        samples = list(self._edge)
        sampling = 0.0

        def sample(signum, frame):
            nonlocal sampling
            start = time.perf_counter()
            samples.append(reference_seconds())
            sampling += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = guarded(self.lib, fn, *args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        self._edge = [reference_seconds() for _ in range(3)]
        elapsed -= sampling
        self.seconds += elapsed
        self.refs += elapsed / statistics.fmean(samples + self._edge)
        return result


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    notes: list = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(name)


# -- workloads ------------------------------------------------------------
#
# ``op(lib, state, inputs, step)`` runs one operation, making each timed
# library call through ``step(fn, *args)``; ``check`` verifies the result
# outside the timed interval.


class ColdSession:
    name = "cold-session"
    op_metric, rate_metric = "session_s", "sessions_per_s"
    counted_ops = 10
    shape = (8, 2, 8)

    def setup(self, lib):
        params = lib.degree_table.SchemeParams(4, 4, 3)
        return {"params": params, "code": lib.schemes.code_for_scheme(params, "auto")}

    def describe(self, lib, state):
        code = state["code"]
        return {"N": code.n_servers, "p": lib.codec.default_field(code).p}

    def inputs(self, lib, state, rng):
        return rng.randrange(2**32)

    def op(self, lib, state, session_seed, step):
        shapes = lib.codec.BlockShapes(*self.shape)
        return step(lib.harness.run_sdmm, state["params"], shapes=shapes, seed=session_seed)

    def check(self, lib, state, session_seed, result, tally):
        if isinstance(result, Exception):
            tally.check(f"session {session_seed}: {result!r}", False)
            return
        plan = result.plan
        ok = result.product == lib.gf.mat_mul(plan.field.p, result.matrix_a, result.matrix_b)
        ok = ok and lib.harness.mds_audit(result.code, plan).all_pass
        tally.check(f"session {session_seed}", ok)


class Multiply:
    name = "multiply"
    op_metric, rate_metric = "multiply_s", "multiplies_per_s"
    counted_ops = 1
    shape = (128, 64, 128)

    def setup(self, lib):
        code = lib.schemes.code_for_scheme(lib.degree_table.SchemeParams(8, 8, 2), "auto")
        return {"code": code, "plan": lib.codec.find_evaluation_plan(code, seed=PLAN_SEED)}

    def describe(self, lib, state):
        return {"N": state["code"].n_servers, "p": state["plan"].field.p}

    def inputs(self, lib, state, rng):
        r, s, t = self.shape
        p = state["plan"].field.p
        a = random_field_matrix(lib, p, r, s, rng)
        b = random_field_matrix(lib, p, s, t, rng)
        return a, b, rng.randrange(2**32)

    def op(self, lib, state, inputs, step):
        return step(self.multiply, lib, state, *inputs)

    def multiply(self, lib, state, a, b, mask_seed):
        code, plan = state["code"], state["plan"]
        shapes = lib.codec.BlockShapes(*self.shape)
        bundle = lib.codec.encode(a, b, code, plan, shapes, seed=mask_seed)
        responses = tuple(lib.codec.server_evaluate(bundle, n) for n in range(code.n_servers))
        product = lib.codec.decode(responses, code, plan, shapes)
        lib.codec.cost(code, shapes)
        return product

    def check(self, lib, state, inputs, product, tally):
        a, b, mask_seed = inputs
        if "plan_ok" not in state:
            state["plan_ok"] = lib.harness.mds_audit(state["code"], state["plan"]).all_pass
        ok = state["plan_ok"] and product == lib.gf.mat_mul(state["plan"].field.p, a, b)
        tally.check(f"multiply masks={mask_seed}", ok)


class Reproduce:
    name = "reproduce"
    op_metric, rate_metric = "reproduce_s", "passes_per_s"
    counted_ops = 1
    sweeps = {
        "rate_sweep_k20_l20_t40.csv": ["rate-sweep", "--k", "20", "--l", "20", "--t-max", "40"],
        "grouped_sweep_k36.csv": ["grouped-sweep", "--k", "36"],
    }
    # The grouped probe is one fixed configuration, known to be refused; a
    # fixed seed keeps its 200 failing plan-search attempts the same work in
    # every run.
    probe_seed = 0

    def setup(self, lib):
        code = lib.schemes.code_for_scheme(lib.degree_table.SchemeParams(4, 4, 4), "big")
        return {"code": code, "plan": lib.codec.find_evaluation_plan(code, seed=PLAN_SEED)}

    def describe(self, lib, state):
        return {"N": state["code"].n_servers, "p": state["plan"].field.p}

    def inputs(self, lib, state, rng):
        return rng.randrange(2**32)

    def op(self, lib, state, audit_seed, step):
        h, params = lib.harness, lib.degree_table.SchemeParams
        report = step(h.mds_audit, state["code"], state["plan"])
        out = {
            "mds_audit": getattr(report, "all_pass", report),
            "exhaustive": step(h.exhaustive_privacy_audit, params(1, 1, 2), 7, seed=audit_seed),
            "exhaustive_zero_masks": step(
                h.exhaustive_privacy_audit, params(1, 1, 2), 7, seed=audit_seed, zero_masks=True
            ),
        }
        for golden, argv in self.sweeps.items():
            out[golden] = step(lib.cli.main, argv + ["--out", str(OUT / golden)])
        out["optimize"] = step(lambda: [lib.schemes.optimize_gasp(50, t) for t in range(1, 25)])
        out["grouped_probe"] = step(
            h.run_sdmm, params(4, 4, 4), scheme="grouped", g=2, seed=self.probe_seed
        )
        return out

    def check(self, lib, state, audit_seed, out, tally):
        tally.check("mds_audit verdict", out["mds_audit"] is True)
        tally.check("exhaustive audit verdict", out["exhaustive"] is True)
        tally.check("zero-mask audit verdict", out["exhaustive_zero_masks"] is False)
        for golden in self.sweeps:
            same = (OUT / golden).read_bytes() == (GOLDEN / golden).read_bytes()
            tally.check(f"{golden} bytes", out[golden] == 0 and same)
        golden_optimize = (GOLDEN / "optimize_n50.csv").read_text(encoding="ascii")
        tally.check("optimize_gasp table", not isinstance(out["optimize"], Exception)
                    and optimize_csv(out["optimize"]) == golden_optimize)
        probe = out["grouped_probe"]
        if isinstance(probe, lib.errors.PlanSearchError):
            tally.attempted += 1
            tally.refused += 1
        elif isinstance(probe, Exception):
            tally.check(f"grouped probe: {probe!r}", False)
        else:
            ok = probe.product == lib.gf.mat_mul(probe.plan.field.p, probe.matrix_a, probe.matrix_b)
            tally.check("grouped probe", ok)


def optimize_csv(results) -> str:
    lines = ["T,K,L,n_used,rate"]
    for t, best in enumerate(results, start=1):
        lines.append(f"{t},{best.k},{best.l},{best.n_used},{best.rate}")
    return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (ColdSession(), Multiply(), Reproduce())}


# -- measurement ------------------------------------------------------------


def timed_setup(workload):
    """Median of at least SETUP_REPEATS set-ups lasting SETUP_MIN_S in all."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        gc.collect()  # the previous import's modules are garbage now
        start = time.perf_counter()
        lib = import_library()
        state = workload.setup(lib)
        times.append(time.perf_counter() - start)
    return lib, state, statistics.median(times)


def measure_untraced(workload, lib, state, rng, seconds, tally):
    """Operations back to back; returns (seconds, refs) per operation."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        inputs = workload.inputs(lib, state, rng)
        watch = Stopwatch(lib)
        result = workload.op(lib, state, inputs, watch)
        samples.append((watch.seconds, watch.refs))
        workload.check(lib, state, inputs, result, tally)
    return samples


def measure_traced(workload, lib, state, rng, seconds, tally, tracer):
    """Pairs of one untraced and one traced operation on the same inputs."""
    plain, traced, per_op = [], [], []
    label = f"bench.{workload.name}"
    step = functools.partial(guarded, lib)
    deadline = time.perf_counter() + seconds
    while len(traced) < workload.counted_ops or time.perf_counter() < deadline:
        inputs = workload.inputs(lib, state, rng)
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            start = time.perf_counter()
            if with_trace:
                with tracer:
                    result = tracer.call(label, workload.op, lib, state, inputs, step)
                traced.append(time.perf_counter() - start)
                per_op.append(tracer.harvest())
            else:
                result = workload.op(lib, state, inputs, step)
                plain.append(time.perf_counter() - start)
            workload.check(lib, state, inputs, result, tally)
    return plain, traced, per_op


# -- per-layer metrics ------------------------------------------------------

# Function -> the stats reported for it, each summed over all its callers.
LAYER_STATS = {
    "codec.find_evaluation_plan": ("calls", "busy_s", "self_s"),
    "gf.is_mds": ("calls", "busy_s"),
    "gf.generalized_vandermonde": ("busy_s",),
    "codec.encode": ("busy_s", "self_s"),
    "codec.random_matrix": ("busy_s",),
    "codec.server_evaluate": ("busy_s",),
    "gf.mat_mul": ("busy_s",),
    "codec.decode": ("busy_s", "self_s"),
    "gf.solve": ("busy_s",),
    "harness.mds_audit": ("busy_s", "self_s"),
    "harness.exhaustive_privacy_audit": ("busy_s", "self_s"),
    "harness.run_sdmm": ("busy_s",),
    "schemes.code_for_scheme": ("busy_s",),
    "degree_table.count_terms": ("calls", "busy_s"),
    "schemes.rate_report": ("busy_s",),
    "schemes.grouped_sweep": ("busy_s",),
    "schemes.optimize_gasp": ("busy_s",),
    "cli.main": ("busy_s", "self_s"),
}
STAT_INDEX = {"calls": 0, "busy_s": 1, "self_s": 2}
COUNTS = (
    "codec.plan.attempts",
    "codec.plan.reject_gv",
    "codec.plan.reject_alpha_mds",
    "codec.plan.reject_beta_mds",
    "codec.upload_symbols",
    "codec.download_symbols",
    "harness.exhaustive_privacy_audit.steps",
    "codec.encode.mac_computed",
    "gf.mat_mul.mac_computed",
    "gf.solve.mac_computed",
)


def layer_values(agg, counts) -> dict:
    """Per-layer values of one traced operation."""
    values = {}
    for fn, stats in LAYER_STATS.items():
        for stat in stats:
            values[f"{fn}.{stat}"] = sum(
                entry[STAT_INDEX[stat]] for (_, name), entry in agg.items() if name == fn
            )
    minor = agg.get(("gf.is_mds", "gf.det"), [0, 0.0, 0.0])
    values["gf.det.minor.calls"] = minor[0]
    gv = [e for (parent, name), e in agg.items() if name == "gf.det" and parent != "gf.is_mds"]
    values["gf.det.gv.calls"] = sum(e[0] for e in gv)
    values["gf.det.gv.busy_s"] = sum(e[1] for e in gv)
    for name in COUNTS:
        values[name] = counts[name]
    values["codec.plan.accepted"] = counts["codec.plan.accepted"]
    return values


# Set-up work that the traced run also records once, for the plan layers.
SETUP_LAYERS = (
    "codec.find_evaluation_plan.busy_s",
    "codec.plan.attempts",
    "gf.det.minor.calls",
    "gf.det.gv.calls",
    "gf.det.gv.busy_s",
    "gf.generalized_vandermonde.busy_s",
)


def traced_setup(workload, lib, tracer) -> dict:
    with tracer:
        tracer.call("bench.setup", workload.setup, lib)
    values = layer_values(*tracer.harvest())
    return {
        f"setup.{name}": (values[name], "s" if name.endswith("_s") else "count")
        for name in SETUP_LAYERS
    }


def per_layer_metrics(per_op, plain, traced, counted) -> dict:
    ops = [layer_values(agg, counts) for agg, counts in per_op]
    metrics = {}
    for name in ops[0]:
        if name == "codec.plan.accepted":
            continue
        if name.endswith("_s"):
            metrics[name] = (statistics.fmean(op[name] for op in ops), "s")
        else:
            metrics[name] = (sum(op[name] for op in ops[:counted]), "count")
    attempts = metrics["codec.plan.attempts"][0]
    accepted = sum(op["codec.plan.accepted"] for op in ops[:counted])
    metrics["codec.plan.accept_ratio"] = (accepted / attempts if attempts else 0.0, "ratio")
    # Pairs ran on identical inputs; their difference is the tracing cost.
    overhead = statistics.median(t - u for t, u in zip(traced, plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / statistics.median(plain), "ratio")
    return metrics


# -- run record -------------------------------------------------------------


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_noise(lib) -> dict:
    """Spread of 20 identical gf.mat_mul calls (16x128 by 128x16), in ms."""
    rng = random.Random(0)
    p = 11383
    a = random_field_matrix(lib, p, 16, 128, rng)
    b = random_field_matrix(lib, p, 128, 16, rng)
    times = []
    for _ in range(20):
        start = time.perf_counter()
        lib.gf.mat_mul(p, a, b)
        times.append((time.perf_counter() - start) * 1e3)
    return {"min_ms": min(times), "p50_ms": statistics.median(times), "max_ms": max(times)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gasp" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    # Bytecode is cached under bench/out whatever the environment says, and
    # an untimed first import fills the cache, as installing would; the timed
    # set-ups then import from bytecode.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(OUT / "pycache")
    noise = host_noise(import_library())
    lib, state, setup_s = timed_setup(workload)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        **workload.describe(lib, state),
        "host_noise": noise,
    }
    rng = random.Random(args.seed)
    tally = Tally()
    trace_doc = {"record": record}
    if args.trace:
        tracer = Tracer()
        setup_layers = traced_setup(workload, lib, tracer)
        plain, traced, per_op = measure_traced(
            workload, lib, state, rng, args.seconds, tally, tracer
        )
        metrics = per_layer_metrics(per_op, plain, traced, workload.counted_ops)
        metrics.update(setup_layers)
        record.update(traced_ops=len(traced), counted_ops=workload.counted_ops)
        trace_doc.update(spans=tracer.spans, layers={k: v[0] for k, v in metrics.items()})
    else:
        samples = measure_untraced(workload, lib, state, rng, args.seconds, tally)
        seconds = [s for s, _ in samples]
        refs = [r for _, r in samples]
        op, n = workload.op_metric, len(samples)
        print(f"{op}.p50 {statistics.median(seconds):.6f} s (samples={n})")
        if n >= 10:
            print(f"{op}.p90 {statistics.quantiles(seconds, n=10)[-1]:.6f} s (samples={n})")
        print(f"{workload.rate_metric} {n / sum(seconds):.6f} 1/s")
        trace_doc["ops"] = samples
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ref.p50": (statistics.median(refs), "ref"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }

    for key, value in record.items():
        print(f"record {key}={json.dumps(value)}")
    print(f"failed_ratio {tally.failed}/{tally.attempted}")
    if tally.refused:
        print(f"grouped_probe.refused {tally.refused} (PlanSearchError at the default field)")
    for note in tally.notes[:10]:
        print(f"failed: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    trace_path = OUT / f"{'trace' if args.trace else 'run'}-{workload.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps(trace_doc), encoding="utf-8")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
