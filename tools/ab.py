"""Paired in-process A/B timing of two gasp source trees.

Usage:

    python3 tools/ab.py BASE CANDIDATE --out DIR [--rounds 40] [--ops session,multiply]

BASE and CANDIDATE are package directories (``.../src/gasp``).  The
rounds run in two fresh interpreters, one after the other, each started
by ``multiprocessing``'s spawn method.  Each loads both trees under two
package names, so one interpreter, one heap and one host state time
both; the first loads BASE first and the second CANDIDATE first, so an
effect of load order (where each tree's code and objects land in
memory) shows in both directions and cancels in the pooled figure.
Each interpreter runs one untimed warm-up round and then half the
rounds; the first takes the extra round of an odd count.  Each round runs
every operation on both trees, base first in even rounds and candidate
first in odd ones.  The operations:

* ``session``: 20 ``harness.run_sdmm`` sessions at (K,L,T) = (4,4,3) on
  ``BlockShapes(8, 2, 8)``, each with its own seed: plan search, encode,
  N = 33 server products and decode.
* ``multiply``: on an (8,8,2) plan found once per tree, the encode, the
  83 server products and the decode of one 128x64 by 64x128 pair.
* ``reproduce``: 10 passes of ``harness.mds_audit`` on a (4,4,4) big plan
  and the two exhaustive privacy audits at (1,1,2) over F_7, with real
  and with zeroed masks.
* ``tables``: the benchmark's table commands, ``cli.main`` for
  ``rate-sweep --k 20 --l 20 --t-max 40`` and ``grouped-sweep --k 36``
  with ``--out -`` under ``contextlib.redirect_stdout``, and
  ``schemes.optimize_gasp(50, T)`` for T = 1..24.
* ``probe``: 5 ``harness.run_sdmm`` sessions of the grouped code
  (K,L,T) = (4,4,4), G = 2 at the default field and seed 0, the grouped
  probe of the benchmark's ``reproduce`` pass: plan search, encode,
  server products and decode.
* ``fallback``: ``codec.find_evaluation_plan`` for the grouped codes
  (K,L,T) = (5,5,5) with G = 2 and with G = 3.  The default field refuses
  both, so each plan is found by the anchored MDS walk over the code's
  fallback field: the slow path of plan search.

Both trees get the same seeds and matrices.  Their outputs are compared
as plain values (plan fields and generators, product entries, audit
verdicts, CSV text and exit codes, optimizer results); if they differ in
any round, that operation's figure is void.
Per operation the report gives both trees' median seconds, the median
over rounds of candidate time / base time, the rounds the candidate was
faster, and the distribution-free 95% interval of that median from the
sign test (order statistics of the ratios; none below 6 rounds), all
over the rounds of both interpreters pooled.  ``load_orders`` gives each
interpreter's rounds and median ratio apart, keyed ``base_first`` and
``candidate_first``.  An A/A run, two copies of one tree as BASE and
CANDIDATE, shows what interval the host gives when nothing differs.

The report is printed and written to DIR/ab.json; nothing else is
written: each interpreter sets ``sys.dont_write_bytecode`` before it
loads a tree.  Uses the standard library only.
"""

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import math
import multiprocessing
import platform
import random
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

MODULES = ("cli", "codec", "degree_table", "gf", "harness", "schemes")


def load(name: str, directory: Path) -> SimpleNamespace:
    """The package in ``directory`` imported as ``name``, with its modules."""
    spec = importlib.util.spec_from_file_location(
        name, directory / "__init__.py", submodule_search_locations=[str(directory)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


# Each operation: set-up per tree (untimed), then per round a job built
# from the round's seed (untimed), whose call is timed and whose result
# becomes a plain value (untimed).


class Session:
    repeat = 20

    def setup(self, lib):
        return lib.degree_table.SchemeParams(4, 4, 3), lib.codec.BlockShapes(8, 2, 8)

    def job(self, lib, state, rng):
        params, shapes = state
        seeds = [rng.randrange(2**32) for _ in range(self.repeat)]
        return lambda: [lib.harness.run_sdmm(params, shapes=shapes, seed=s) for s in seeds]

    def value(self, transcripts):
        return [(t.plan.field.p, t.plan.generator, t.product.entries) for t in transcripts]


class Multiply:
    shape = (128, 64, 128)

    def setup(self, lib):
        code = lib.schemes.code_for_scheme(lib.degree_table.SchemeParams(8, 8, 2), "auto")
        return code, lib.codec.find_evaluation_plan(code), lib.codec.BlockShapes(*self.shape)

    def job(self, lib, state, rng):
        code, plan, shapes = state
        p, (r, s, t), codec = plan.field.p, self.shape, lib.codec
        a, b = (
            lib.gf.FieldMatrix(rows, cols, tuple(rng.randrange(p) for _ in range(rows * cols)))
            for rows, cols in ((r, s), (s, t))
        )
        seed = rng.randrange(2**32)

        def multiply():
            bundle = codec.encode(a, b, code, plan, shapes, seed=seed)
            responses = tuple(codec.server_evaluate(bundle, n) for n in range(code.n_servers))
            return plan, codec.decode(responses, code, plan, shapes)

        return multiply

    def value(self, result):
        plan, product = result
        return plan.field.p, plan.generator, product.entries


class Reproduce:
    repeat = 10

    def setup(self, lib):
        params = lib.degree_table.SchemeParams
        code = lib.schemes.code_for_scheme(params(4, 4, 4), "big")
        return code, lib.codec.find_evaluation_plan(code), params(1, 1, 2)

    def job(self, lib, state, rng):
        code, plan, tiny = state
        h = lib.harness

        def reproduce():
            return [
                (
                    h.mds_audit(code, plan),
                    h.exhaustive_privacy_audit(tiny, 7),
                    h.exhaustive_privacy_audit(tiny, 7, zero_masks=True),
                )
                for _ in range(self.repeat)
            ]

        return reproduce

    def value(self, passes):
        return [
            ((r.gv_det_nonzero, r.p_mds, r.q_mds), real, zero) for r, real, zero in passes
        ]


class Tables:
    commands = (
        ["rate-sweep", "--k", "20", "--l", "20", "--t-max", "40", "--out", "-"],
        ["grouped-sweep", "--k", "36", "--out", "-"],
    )

    def setup(self, lib):
        return None

    def job(self, lib, state, rng):
        def tables():
            csvs = []
            for argv in self.commands:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    status = lib.cli.main(argv)
                csvs.append((status, out.getvalue()))
            return csvs, [lib.schemes.optimize_gasp(50, t) for t in range(1, 25)]

        return tables

    def value(self, result):
        csvs, best = result
        return csvs, [(b.k, b.l, b.n_used, b.rate) for b in best]


class Probe(Session):  # the same value: each plan's (p, g) and product entries
    repeat = 5

    def setup(self, lib):
        return lib.degree_table.SchemeParams(4, 4, 4)

    def job(self, lib, state, rng):
        return lambda: [
            lib.harness.run_sdmm(state, scheme="grouped", g=2, seed=0) for _ in range(self.repeat)
        ]


class Fallback:
    def setup(self, lib):
        params = lib.degree_table.SchemeParams(5, 5, 5)
        return [lib.schemes.code_for_scheme(params, "grouped", g=g) for g in (2, 3)]

    def job(self, lib, state, rng):
        return lambda: [lib.codec.find_evaluation_plan(code) for code in state]

    def value(self, plans):
        return [(plan.field.p, plan.generator) for plan in plans]


OPS = {
    "session": Session(),
    "multiply": Multiply(),
    "reproduce": Reproduce(),
    "tables": Tables(),
    "probe": Probe(),
    "fallback": Fallback(),
}


def run_rounds(first: str, trees: dict[str, str], ops: list[str], rounds: range):
    """Time ``rounds`` of ``ops`` in this interpreter, with the tree ``first`` loaded first.

    Returns the seconds per (op, side), one per timed round, and per op the
    first round whose outputs differ between the trees (-1 for the warm-up
    round), or None.
    """
    sys.dont_write_bytecode = True  # nothing but DIR/ab.json is written
    second = "candidate" if first == "base" else "base"
    libs = {side: load(f"gasp_ab_{side}", Path(trees[side])) for side in (first, second)}
    states = {(op, side): OPS[op].setup(lib) for op in ops for side, lib in libs.items()}
    times = {(op, side): [] for op in ops for side in libs}
    void = dict.fromkeys(ops)
    for rnd in (-1, *rounds):  # round -1 warms up, untimed
        order = ("base", "candidate") if rnd % 2 == 0 else ("candidate", "base")
        for op in ops:
            values = {}
            for side in order:
                job = OPS[op].job(libs[side], states[op, side], random.Random(f"{op}:{rnd}"))
                gc.collect()
                start = time.perf_counter()
                result = job()
                elapsed = time.perf_counter() - start
                values[side] = OPS[op].value(result)
                if rnd >= 0:
                    times[op, side].append(elapsed)
            if values["base"] != values["candidate"] and void[op] is None:
                void[op] = rnd
    return times, void


def sign_interval(ratios: list[float]) -> list[float] | None:
    """The distribution-free 95% interval of the median: [x_(j), x_(n+1-j)].

    j is the largest rank with P(Binomial(n, 1/2) < j) <= 0.025, so the
    interval holds the median with probability at least 0.95; below 6
    values no rank qualifies.
    """
    n, xs = len(ratios), sorted(ratios)
    below, j = 0, 0
    while below + math.comb(n, j) <= 0.025 * 2**n:
        below += math.comb(n, j)
        j += 1
    return [xs[j - 1], xs[n - j]] if j else None


def summary(runs: dict[str, tuple[list[float], list[float]]], void_round: int | None) -> dict:
    """One operation's figures, pooled over ``runs``: load order -> (base, candidate) seconds."""
    ratios = {first: [c / b for b, c in zip(*times)] for first, times in runs.items()}
    base, candidate = ([t for run in runs.values() for t in run[i]] for i in range(2))
    pooled = [r for rs in ratios.values() for r in rs]
    valid = void_round is None
    return {
        "rounds": len(pooled),
        "base_median_s": statistics.median(base),
        "candidate_median_s": statistics.median(candidate),
        "median_ratio": statistics.median(pooled) if valid else None,
        "candidate_faster": sum(r < 1 for r in pooled),
        "interval_95": sign_interval(pooled) if valid else None,
        "void": not valid,
        "first_differing_round": void_round,
        "load_orders": {
            f"{first}_first": {
                "rounds": len(rs),
                "median_ratio": statistics.median(rs) if valid and rs else None,
            }
            for first, rs in ratios.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, help="base package directory (.../src/gasp)")
    parser.add_argument("candidate", type=Path, help="candidate package directory")
    parser.add_argument("--out", type=Path, required=True, help="directory for ab.json")
    parser.add_argument("--rounds", type=int, default=40, help="timed rounds (default 40)")
    parser.add_argument("--ops", default=",".join(OPS), help="comma-separated operations")
    args = parser.parse_args(argv)
    ops = args.ops.split(",")
    unknown = sorted(set(ops) - set(OPS))
    if unknown or args.rounds < 1:
        parser.error(f"unknown operations {unknown}" if unknown else "--rounds must be >= 1")

    trees = {"base": str(args.base.resolve()), "candidate": str(args.candidate.resolve())}
    half = (args.rounds + 1) // 2
    results = {}
    for first, rounds in (("base", range(half)), ("candidate", range(half, args.rounds))):
        # One fresh interpreter per load order, the second after the first has exited.
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            results[first] = pool.apply(run_rounds, (first, trees, ops, rounds))

    report = {**trees, "python": platform.python_version(), "ops": {}}
    for op in ops:
        runs = {first: (times[op, "base"], times[op, "candidate"])
                for first, (times, _) in results.items()}
        voids = [void[op] for _, void in results.values() if void[op] is not None]
        report["ops"][op] = summary(runs, min(voids, default=None))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "ab.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for op, s in report["ops"].items():
        if s["void"]:
            print(f"{op:10} VOID: outputs differ from round {s['first_differing_round']}")
            continue
        interval = "n/a" if s["interval_95"] is None else "{:.3f}-{:.3f}".format(*s["interval_95"])
        print(
            f"{op:10} ratio {s['median_ratio']:.3f} [{interval}]  candidate faster in "
            f"{s['candidate_faster']}/{s['rounds']}  base {s['base_median_s'] * 1e3:.2f} ms  "
            f"candidate {s['candidate_median_s'] * 1e3:.2f} ms"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
