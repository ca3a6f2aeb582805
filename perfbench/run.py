#!/usr/bin/env python3
"""Benchmark of the selfsim pipeline: build, spectrum and exact mass reads.

    python3 perfbench/run.py --workload gasket --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of one traced round, preceded by one untraced round
of the same work that gives the tracing overhead.  Every output is
checked against ``references.json`` (the fingerprints and tau values of
the seed commit); a failed check, an exception or an exhausted budget
counts as a failed operation.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracer import Patcher

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TOL = 1e-9           # agreement of certified tau values with the references
CERTIFIED = ("kronecker", "scalar", "eigenvector-exact")   # routes with tight bounds
MIN_ROUNDS = 2       # an untraced run has at least this many rounds
MIN_REPS = 3         # and runs spectrum and mass at least this often
IMPORT_REPS = 3      # fresh interpreters that time the import
MIN_DEPTH, MAX_DEPTH = 4, 24
Q_STEP = Fraction(1, 8)
Q_POINTS = 6         # seeded lq_curve points per config
KERNEL_REF_S = 4.5e-3   # calibration kernel time on the reference machine


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple
    own: str                        # the stage the workload measures; the
                                    # build counts as set-up unless it is own
    q_max: int                      # tau at q = 1..q_max; seeded q on (0, q_max]
    pressure_n: dict = field(default_factory=dict)   # word length, if not the config's
    mass_batch: int = 1000          # mass queries per repetition


SMALL = ("golden-bernoulli", "complex-pisot-demo", "commensurable-osc",
         "cantor-1-3", "lebesgue-1-2")

WORKLOADS = {
    w.name: w for w in (
        Workload("gasket", ("golden-gasket-conjugated",), "build", 4, mass_batch=3000),
        Workload("spectrum-small", SMALL, "spectrum", 6,
                 pressure_n={"golden-bernoulli": 22}),
        Workload("mass-queries", ("golden-bernoulli", "complex-pisot-demo"),
                 "mass", 6, mass_batch=4000),
    )
}

END_TO_END = {
    "setup_s": ("s", "lower"),
    "build_s": ("s", "lower"),
    "spectrum_s": ("s", "lower"),
    "tau_width_max": ("1", "lower"),
    "mass_queries_per_s": ("1/s", "higher"),
    "mass_query_p50_us": ("us", "lower"),
    "mass_query_p99_us": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def cap_blas_threads() -> int:
    """Limit BLAS/OpenMP pools to the usable CPUs; must run before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= n:
            os.environ[var] = str(n)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


# the imports of a selfsim command, with scipy.sparse, which the Kronecker
# route loads lazily
IMPORTS = "import scipy.sparse, selfsim, selfsim.cli"


def import_selfsim():
    """Import the program from the checkout's src/."""
    if not (SRC / "selfsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import scipy.sparse  # noqa: F401
    import selfsim
    import selfsim.cli  # noqa: F401
    if Path(selfsim.__file__).resolve().parent != (SRC / "selfsim").resolve():
        raise SystemExit(f"perfbench: selfsim imported from {selfsim.__file__}, not {SRC}")


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy
    import sympy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads}


# ----------------------------------------------------------------------
# the work
# ----------------------------------------------------------------------

def upper_quartile(values):
    """Upper quartile of repeated timings of the same work."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def calibration_kernel() -> float:
    """Time of a fixed pure-Python Fraction sum, the pipeline's kind of work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(1, i)
    return time.perf_counter() - t0


def kernel_s() -> float:
    """The calibration kernel's time now: the median of three runs."""
    return statistics.median(calibration_kernel() for _ in range(3))


def timed(fn, *args):
    """Run fn between two calibration kernels.

    Returns its output and a sample (seconds, scaled seconds): the scaled
    time is the time over the mean of the two kernel times, times
    KERNEL_REF_S, so that it reads as the time at the reference speed.
    """
    before = kernel_s()
    t0 = time.perf_counter()
    out = fn(*args)
    elapsed = time.perf_counter() - t0
    return out, (elapsed, elapsed * 2 * KERNEL_REF_S / (before + kernel_s()))


def import_samples() -> list:
    """Samples of the import time, each taken in a fresh interpreter."""
    code = f"import time; t0 = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t0)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def fresh_import():
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout)

    samples = []
    for _ in range(IMPORT_REPS):
        elapsed, (wall, scaled_wall) = timed(fresh_import)
        samples.append((elapsed, elapsed * scaled_wall / wall))
    return samples


class Run:
    """One workload run: seeded inputs, timed stages, output checks."""

    def __init__(self, wl: Workload, seed: int, refs: dict, out: Path):
        self.wl = wl
        self.out = out
        self.refs = refs
        self.rng = random.Random(seed)
        grid = [k * Q_STEP for k in range(1, int(wl.q_max / Q_STEP) + 1)]
        self.q_points = {name: [float(q) for q in sorted(self.rng.sample(grid, Q_POINTS))]
                         for name in wl.configs}
        self.addresses = None
        self.span = lambda _name, fn, *args: fn(*args)
        # samples (seconds, scaled seconds) of each stage, one per repetition
        self.times = {"setup": [], "build": [], "spectrum": []}
        self.mass_ns: list = []     # per query: (ns, scaled ns) in each repetition
        self.widths: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    # -- bookkeeping -----------------------------------------------------------
    def record(self, what: str, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {problems[0]}")

    def timed(self, stage: str, fn, *args):
        """Run a stage in its span; returns its output and its time sample."""
        gc.collect()  # garbage of earlier stages is not this stage's cost
        return timed(self.span, f"bench.{stage}", fn, *args)

    def n_for(self, pipe) -> int:
        name = pipe.config.name
        return self.wl.pressure_n.get(name, pipe.config.budgets["pressure_n"])

    # -- stages ------------------------------------------------------------------
    def setup(self):
        from selfsim import config
        from selfsim.pipeline import Pipeline
        pipes = []
        for name in self.wl.configs:
            pipe = Pipeline(config.load_bundled(name))
            pipe.ifs
            pipes.append(pipe)
        return pipes

    def build(self, pipes):
        """``selfsim build`` (``cli.cmd_build``) on each set-up pipeline.

        The command's own ``Pipeline(cfg)`` is pointed at the pipeline built
        in set-up, so the command runs its usual path from the automaton to
        the artifacts, and the set-up work is not timed twice.
        """
        from selfsim import cli
        out = []
        for pipe in pipes:
            args = argparse.Namespace(config=f"bundled:{pipe.config.name}",
                                      out=str(self.out), max_states=None, pressure_n=None)
            patch = Patcher()
            patch.replace(cli, "Pipeline", lambda _cfg, pipe=pipe: pipe)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.cmd_build(args)
                out.append((pipe, code, None))
            except Exception as exc:  # counted as a failed build, run goes on
                out.append((pipe, None, exc))
            finally:
                patch.restore()
        return out

    def spectrum(self, pipes):
        from selfsim import spectrum
        out = []
        for pipe in pipes:
            try:
                n = self.n_for(pipe)
                engine = spectrum.PressureEngine(
                    pipe.measure, kron_dim_budget=pipe.config.budgets["kron_dim_budget"],
                    default_n=n)
                r = spectrum.irreducibility_check(engine.ess)
                curve = engine.lq_curve(self.q_points[pipe.config.name], n=n)
                taus = [(q, engine.tau(float(q))) for q in range(1, self.wl.q_max + 1)]
                out.append((pipe, (r, curve, taus), None))
            except Exception as exc:  # counted as a failed spectrum, run goes on
                out.append((pipe, None, exc))
        return out

    def mass(self, queries):
        clock = time.perf_counter_ns
        lat, out = [], []
        for model, gsys, addr in queries:
            t0 = clock()
            try:
                a = model.mass(addr)
                b = gsys.mass_global(addr)
            except Exception as exc:  # counted as a failed query, run goes on
                a, b = exc, None
            lat.append(clock() - t0)
            out.append((a, b))
        return out, lat

    # -- seeded mass-query inputs -----------------------------------------------
    def make_queries(self, pipes):
        """Random walks over MeasureModel.successors from the root state.

        Configs and depths take turns, so only the walks are random: the
        cost of a batch does not ride on how many deep addresses were drawn.
        """
        if self.addresses is None:
            self.addresses = []
            depths = MAX_DEPTH - MIN_DEPTH + 1
            for k in range(self.wl.mass_batch):
                i = k % len(pipes)
                model = pipes[i].measure
                addr = [0]
                for _ in range(MIN_DEPTH + (k // len(pipes)) % depths):
                    addr.append(self.rng.choice(model.successors(addr[-1])).child)
                self.addresses.append((i, tuple(addr)))
        return [(pipes[i].measure, pipes[i].global_system, addr)
                for i, addr in self.addresses]

    # -- checks --------------------------------------------------------------------
    def check_build(self, results):
        for pipe, code, exc in results:
            name = pipe.config.name
            if exc is not None:
                self.record(f"build {name}", [repr(exc)])
                continue
            ref = self.refs[name]
            problems = [] if code == 0 else [f"selfsim build exited with {code}"]
            for fname, want in sorted(ref["artifacts"].items()):
                path = self.out / fname
                if not path.is_file():
                    problems.append(f"{fname} was not written")
                elif hashlib.sha256(path.read_bytes()).hexdigest() != want:
                    problems.append(f"{fname} differs from the reference")
            auto = pipe.automaton
            counts = {"states": len(auto.states),
                      "edges": sum(len(e) for e in auto.edges),
                      "kept": len(pipe.measure.kept),
                      "gamma": len(pipe.decider.gamma_maps())}
            for key, val in counts.items():
                if val != ref[key]:
                    problems.append(f"{key} = {val}, reference {ref[key]}")
            self.record(f"build {name}", problems)

    def check_spectrum(self, results):
        for pipe, out, exc in results:
            name = pipe.config.name
            if exc is not None:
                self.record(f"spectrum {name}", [repr(exc)])
                continue
            r, curve, taus = out
            ref = self.refs[name]
            table = ref["tau"].get(str(self.n_for(pipe)), {})
            problems = []
            if r != ref["irreducibility"]:
                problems.append(f"irreducibility r = {r}, reference {ref['irreducibility']}")
            points = [(curve.q[i], curve.tau[i], curve.tau_lower[i], curve.tau_upper[i],
                       curve.method[i]) for i in range(len(curve.q))]
            points += [(float(q), t[0], t[1], t[2], t[3].method) for q, t in taus]
            for q, val, lo, hi, method in points:
                self.widths.append(hi - lo)
                rt = table.get(repr(float(q)))
                if rt is None:
                    problems.append(f"no reference tau at q = {q}")
                    continue
                rtau, _rlo, _rhi, rmethod = rt
                if not lo - TOL <= rtau <= hi + TOL:
                    problems.append(f"q = {q}: [{lo}, {hi}] misses reference {rtau}")
                if method in CERTIFIED and rmethod in CERTIFIED and abs(val - rtau) > TOL:
                    problems.append(f"q = {q}: {method} tau {val} != reference {rtau}")
            self.record(f"spectrum {name}", problems)

    def check_mass(self, queries, results):
        for (_m, _g, addr), (a, b) in zip(queries, results):
            if isinstance(a, Exception):
                self.record(f"mass {addr}", [repr(a)])
            elif a != b:
                self.record(f"mass {addr}", [f"mass {a} != mass_global {b}"])
            else:
                self.record(f"mass {addr}", [] if a > 0 else [f"mass {a} not positive"])

    def check_total_mass(self, pipes):
        for i, pipe in enumerate(pipes):
            depths = sorted({len(addr) - 1 for j, addr in self.addresses if j == i})
            for d in depths:
                try:
                    total = pipe.measure.total_mass(d)
                    problems = [] if total == 1 else [f"total_mass({d}) = {total}"]
                except Exception as exc:  # counted as a failed check
                    problems = [repr(exc)]
                self.record(f"total_mass {pipe.config.name}", problems)

    # -- one pass ---------------------------------------------------------------------
    def round(self):
        """Set-up, build, spectrum and mass queries on fresh pipelines, each timed.

        Every stage runs in every round, so the repetitions of each one are
        spread over the whole run rather than bunched in one stretch.
        """
        pipes, t_setup = self.timed("setup", self.setup)
        shutil.rmtree(self.out, ignore_errors=True)  # no artifact of an earlier round
        built, t_build = self.timed("build", self.build, pipes)
        self.check_build(built)
        if self.wl.own != "build":
            t_setup = (t_setup[0] + t_build[0], t_setup[1] + t_build[1])
        self.times["setup"].append(t_setup)
        self.times["build"].append(t_build)
        self.spectrum_stage(pipes)
        self.mass_stage(pipes)
        return pipes

    def spectrum_stage(self, pipes):
        out, t = self.timed("spectrum", self.spectrum, pipes)
        self.times["spectrum"].append(t)
        self.check_spectrum(out)

    def mass_stage(self, pipes):
        queries = self.make_queries(pipes)
        (out, lat), (t, scaled_t) = self.timed("mass", self.mass, queries)
        if not self.mass_ns:
            self.mass_ns = [[] for _ in lat]
        for samples, ns in zip(self.mass_ns, lat):
            samples.append((ns, ns * scaled_t / t))
        self.check_mass(queries, out)

    def top_up(self, pipes):
        """Repeat spectrum and mass on the last pipelines up to MIN_REPS."""
        while len(self.times["spectrum"]) < MIN_REPS:
            self.spectrum_stage(pipes)
            self.mass_stage(pipes)

    def end_to_end(self, imports: list, scaled: bool = True) -> dict:
        """The metrics from the scaled or the measured time samples.

        A time is the upper quartile of its samples over the repetitions;
        each query's latency likewise (every repetition queries the same
        addresses).  set-up is the import plus the set-up stage.
        """
        k = 1 if scaled else 0

        def q3(samples):
            return upper_quartile([sample[k] for sample in samples])

        lat_us = [q3(samples) / 1e3 for samples in self.mass_ns]
        pct = statistics.quantiles(lat_us, n=100, method="inclusive")
        return {
            "setup_s": q3(imports) + q3(self.times["setup"]),
            "build_s": q3(self.times["build"]),
            "spectrum_s": q3(self.times["spectrum"]),
            "tau_width_max": max(self.widths),
            "mass_queries_per_s": len(lat_us) / (math.fsum(lat_us) / 1e6),
            "mass_query_p50_us": pct[49],
            "mass_query_p99_us": pct[98],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def measure(wl: Workload, seed: int, seconds: float, refs: dict, out: Path,
            imports: list):
    """Rounds until the next would end past ``seconds``, then a top-up."""
    run = Run(wl, seed, refs, out)
    start = time.perf_counter()
    rounds = 0
    while True:
        pipes = None  # the last round's pipelines go before new ones are built
        pipes = run.round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
            break
    run.top_up(pipes)
    run.check_total_mass(pipes)
    info = {"rounds": rounds, "mass_repetitions": len(run.mass_ns[0]),
            "measured": json.dumps(run.end_to_end(imports, scaled=False))}
    return run, run.end_to_end(imports), info


def measure_traced(wl: Workload, seed: int, refs: dict, out: Path):
    """One untraced round, then the same round traced; per-layer metrics."""
    from layers import LayerCounters, install, layer_metrics
    from tracer import Tracer

    plain = Run(wl, seed, refs, out)
    t0 = time.perf_counter()
    pipes = plain.round()
    plain_s = time.perf_counter() - t0
    plain.check_total_mass(pipes)

    tracer, counters = Tracer(), LayerCounters()
    traced = Run(wl, seed, refs, out)
    traced.span = tracer.call
    patcher = install(tracer, counters)
    try:
        t0 = time.perf_counter()
        pipes = traced.round()
        traced_s = time.perf_counter() - t0
    finally:
        patcher.restore()
    traced.check_total_mass(pipes)
    metrics = layer_metrics(tracer, counters, overhead_ratio=traced_s / plain_s - 1)
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.errors = plain.errors + traced.errors
    info = {"untraced_s": plain_s, "traced_s": traced_s}
    return traced, metrics, info


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, refs: dict,
                 imports: list):
    """Measure one workload; returns (result JSON object, report lines)."""
    from layers import PER_LAYER

    out = Path(tempfile.mkdtemp(prefix=".perfbench_out-", dir=ROOT))
    try:
        if trace:
            run, values, info = measure_traced(wl, seed, refs, out)
            spec = PER_LAYER
        else:
            run, values, info = measure(wl, seed, seconds, refs, out, imports)
            spec = END_TO_END
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = [f"{k} {v}" for k, v in info.items()]
    lines.append(f"checks: {run.attempted} attempted, {run.failed} failed, "
                 f"fail_ratio {run.failed / run.attempted}")
    lines += [f"  FAIL {e}" for e in run.errors]
    for name, (unit, better) in spec.items():
        lines.append(f"{name:40s} {values[name]:>16.6g} {unit:6s} ({better} is better)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _better) in spec.items()},
    }
    return result, lines


def load_references(path: Path = HERE / "references.json") -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["configs"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    blas = cap_blas_threads()
    import_selfsim()
    refs = load_references()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(blas), sort_keys=True))
    result, lines = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), refs, [] if args.trace else import_samples())
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
