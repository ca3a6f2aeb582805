"""Command-line surface: check-ftc, build, mass, spectrum, oracle.

Exit codes: 0 success, 1 invalid config or usage, 2 a budget ran out
(the neighbour closure, a tuple search or the automaton), 3 internal
invariant violation, 141 (128 + SIGPIPE) when the reader of stdout
closes it early, as `| head -1` does; that one prints nothing.  Each
subcommand accepts only the flags it reads.  Every output artifact
embeds the config hash, and runs are deterministic given the config;
`--rng-seed` applies to `oracle estimate-mass` only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .config import ConfigError, IfsConfig, check_budget, load_bundled
from .field import FieldError, check_pisot, format_rational
from .maps import MapError
from .measure import MeasureError
from .neighbors import BudgetExceeded
from .automaton import NotAdmissible
from .oracle import IntervalUnion, estimate_mass, dyadic_lq_sums, tau_dyadic
from .pipeline import Pipeline
from .spectrum import SpectrumError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INCONCLUSIVE = 2
EXIT_INVARIANT = 3
EXIT_BROKEN_PIPE = 128 + 13  # as a shell reports a process ended by SIGPIPE


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit 1), not exit 2."""

    def error(self, message):
        raise ConfigError(message)


_FLAGS = {"--out": dict(default=".", help="output directory"),
          "--max-states": dict(type=int), "--pressure-n": dict(type=int),
          "--rng-seed": dict(type=int, default=0), "--samples": dict(type=int, default=100000),
          "--q": dict(type=float, default=2.0), "--n-min": dict(type=int, default=6),
          "--n-max": dict(type=int, default=12), "--lo": dict(default="0"),
          "--hi": dict(default="1/2")}


def _subcommand(subs, name, handler, help, *flags):
    """A subcommand parser run by handler, with --config and the given flags of _FLAGS."""
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(handler=handler)
    sub.add_argument("--config", required=True, help="path to a config JSON, or bundled:<name>")
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])
    return sub


def _load_config(args) -> IfsConfig:
    if args.config.startswith("bundled:"):
        cfg = load_bundled(args.config.split(":", 1)[1])
    else:
        cfg = IfsConfig.load(args.config)
    for key in ("max_states", "pressure_n"):  # set only where the subcommand has the flag
        value = getattr(args, key, None)
        if value is not None:
            cfg.budgets[key] = check_budget(key, value)
    return cfg


def _parse_grid(spec: str):
    try:
        a, b, step = (Fraction(x) for x in spec.split(":"))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad q-grid {spec!r}; expected a:b:step") from exc
    if step <= 0 or b < a or a < 0:
        raise ConfigError(f"bad q-grid {spec!r}; tau(q) needs 0 <= a <= b and step > 0")
    return [a + i * step for i in range(int((b - a) / step) + 1)]  # exact: a, a + step, ..., <= b


def cmd_check_ftc(args) -> int:
    cfg = _load_config(args)
    pipe = Pipeline(cfg)
    pipe.ifs  # refuses a malformed config before the advisory is printed
    try:
        report = check_pisot(cfg.min_poly, cfg.root_box)
    except FieldError as exc:
        raise ConfigError(f"field: {exc}") from exc
    print(f"pisot advisory: 1/rho is {report.kind} "
          f"(|1/rho| = {report.selected_modulus:.6f}, "
          f"algebraic integer: {report.is_algebraic_integer})")
    try:
        graph = pipe.decider.graph
    except BudgetExceeded as exc:
        print(f"INCONCLUSIVE: {exc} (nodes={exc.node_count}, frontier={exc.frontier_size})")
        return EXIT_INCONCLUSIVE
    gamma = graph.gamma_maps()
    print(f"finite type verified: |Gamma| = {len(gamma)} maps "
          f"({sum(graph.alive)} tagged nodes alive of {len(graph.nodes)} candidates)")
    for m in gamma:
        print(f"  {m}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{cfg.name}-neighbors.dot").write_text(graph.to_dot() + "\n")
    return EXIT_OK


def cmd_build(args) -> int:
    cfg = _load_config(args)
    pipe = Pipeline(cfg)
    auto = pipe.automaton
    model = pipe.measure
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    h = cfg.config_hash()
    data = auto.to_json_dict()
    data["config_hash"] = h
    data["mass_positive_states"] = list(model.kept)
    data["mass_vectors"] = {
        str(sid): [format_rational(x) for x in model.v[sid]]
        for sid in model.kept}
    (out / f"{cfg.name}-automaton.json").write_text(
        json.dumps(data, indent=2) + "\n")
    mdata = pipe.global_system.to_json_dict()
    mdata["config_hash"] = h
    (out / f"{cfg.name}-measure.json").write_text(json.dumps(mdata, indent=2) + "\n")
    (out / f"{cfg.name}-automaton.dot").write_text(auto.to_dot() + "\n")
    (out / f"{cfg.name}-neighbors.dot").write_text(pipe.decider.graph.to_dot() + "\n")
    edges = sum(len(e) for e in auto.edges)
    print(f"automaton: {len(auto.states)} states, {edges} edges; "
          f"{len(model.kept)} mass-positive states")
    if auto.anomalies:
        print(f"  note: {len(auto.anomalies)} candidate states had no children "
              "(pruned as mass-zero)")
    return EXIT_OK


def cmd_mass(args) -> int:
    try:
        address = [int(x) for x in args.address.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad address {args.address!r}; expected state ids") from exc
    model = Pipeline(_load_config(args)).measure
    try:
        val = model.mass(address)
    except NotAdmissible as exc:
        raise ConfigError(f"address not admissible: {exc.args[0]}") from exc
    print(f"mu(atom {args.address}) = {format_rational(val)} "
          f"= {float(val):.12g}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    grid = _parse_grid(args.q_grid)
    cfg = _load_config(args)
    pipe = Pipeline(cfg)
    engine = pipe.engine
    curve = engine.lq_curve([float(q) for q in grid])  # n: the engine's pressure_n
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg.name}-spectrum.csv"
    h = cfg.config_hash()
    fell_back = []  # integer q whose certified row fell back to finite-n
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "tau", "tau_lower", "tau_upper", "method", "n", "config_hash"])
        for i in range(len(curve.q)):
            w.writerow([repr(curve.q[i]), repr(curve.tau[i]),
                        repr(curve.tau_lower[i]), repr(curve.tau_upper[i]),
                        curve.method[i], curve.n[i], h])
        if args.integer_q_exact:
            # extra rows: certified spectral-radius route at integer q > 0
            # (the pressure is defined for q > 0; tau(0) stays a curve row)
            for q in grid:
                if q.denominator != 1 or q == 0:
                    continue
                tau, lo, hi, est = engine.tau(float(q))
                w.writerow([repr(float(q)), repr(tau), repr(lo), repr(hi),
                            est.method, est.n, h])
                if est.method == "finite-n":
                    fell_back.append(q)
    tau1, lo1, hi1, est1 = engine.tau(1.0)
    lumped = engine.ess.quotient
    blocks = len(lumped.dims)
    print(f"essential class: {len(engine.ess.ids)} states, L = {engine.ess.size}, "
          f"lumped to {blocks} block{'s' * (blocks != 1)} (L = {lumped.size}), "
          f"irreducibility exponent r = {engine.ess.r}")
    print(f"tau(1) = {tau1:.3e} via {est1.method}")
    print(f"curve written to {path} "
          f"(max bound width {curve.diagnostics['max_bound_width']:.3g}, "
          f"concavity defect {curve.diagnostics['smoothness_max_jump']:.3g}; "
          "smoothness diagnostic is non-rigorous)")
    if curve.diagnostics["dp_coarsened"]:
        print(f"note: the word DP at n = {max(curve.n)} held too many distinct "
              "vectors and continued in floats, so the finite-n bounds carry "
              "float rounding")
    if "finite-n" in curve.method:
        print("note: the tau column follows the subadditive estimate (exactly "
              "concave); tau_lower/tau_upper give the rigorous range, and "
              "--integer-q-exact appends certified values at integer q")
    if fell_back:
        print(f"note: --integer-q-exact fell back to finite-n at q = "
              f"{', '.join(str(q) for q in fell_back)} (L^q above kron_dim_budget), "
              "so those rows carry finite-n bounds")
    return EXIT_OK


def _levels(args, need: int) -> range:
    """The levels n of --n-min .. --n-max, after checking them and --q."""
    if not 0 < args.q < math.inf:
        raise ConfigError(f"--q must be a finite number > 0, got {args.q!r}")
    if args.n_min < 0 or args.n_max - args.n_min + 1 < need:
        raise ConfigError(f"--n-min {args.n_min} .. --n-max {args.n_max} must list "
                          f"{'two' if need == 2 else 'one'} or more levels n >= 0")
    return range(args.n_min, args.n_max + 1)


def cmd_dyadic(args) -> int:
    ns = _levels(args, 1)
    cfg = _load_config(args)
    sums = dyadic_lq_sums(cfg.build_ifs(), args.q, ns)
    path = Path(args.out) / f"{cfg.name}-dyadic.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    h = cfg.config_hash()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "n", "lq_sum", "config_hash"])
        w.writerows([repr(args.q), n, repr(s), h] for n, s in zip(ns, sums))
    print(f"dyadic sums written to {path}")
    return EXIT_OK


def cmd_tau(args) -> int:
    ns = _levels(args, 2)  # a slope needs two levels n
    td = tau_dyadic(_load_config(args).build_ifs(), args.q, ns)
    print(f"tau_dyadic({args.q}) = {td.estimate:.6f} "
          f"(fit residual {td.residual:.3g}, n = {td.n_range[0]}..{td.n_range[1]})")
    return EXIT_OK


def cmd_estimate_mass(args) -> int:
    try:
        lo, hi = Fraction(args.lo), Fraction(args.hi)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad --lo/--hi {args.lo!r}, {args.hi!r}") from exc
    if lo >= hi:
        raise ConfigError(f"--lo must be below --hi, got {args.lo!r}, {args.hi!r}")
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    cfg = _load_config(args)
    if cfg.dimension != 1 or cfg.backend != "real":
        raise ConfigError(f"estimate-mass measures an interval of the real line; "
                          f"{cfg.name} is a {cfg.dimension}-D {cfg.backend} system")
    est = estimate_mass(cfg.build_ifs(), IntervalUnion([(lo, hi)]), samples=args.samples,
                        seed=args.rng_seed)
    print(f"mu({args.lo},{args.hi}) in [{est.lower:.6f}, {est.upper:.6f}] "
          f"+- {est.stderr:.2g} ({est.mode}, seed {args.rng_seed})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _Parser(
        prog="selfsim",
        description="Neighbor automata, exact atom masses and L^q spectra "
                    "for finite-type self-similar measures")
    subs = parser.add_subparsers(dest="command", required=True)

    _subcommand(subs, "check-ftc", cmd_check_ftc, "verify the finite type condition", "--out")
    _subcommand(subs, "build", cmd_build, "build the atom automaton and mass vectors",
                "--out", "--max-states")
    s = _subcommand(subs, "mass", cmd_mass, "exact mass of one atom", "--max-states")
    s.add_argument("--address", required=True,
                   help="comma-separated state ids starting at the root, e.g. 0,2,5")

    s = _subcommand(subs, "spectrum", cmd_spectrum, "sample tau(q) on a grid",
                    "--out", "--max-states", "--pressure-n")
    s.add_argument("--q-grid", default="0.3:4.0:0.1")
    s.add_argument("--integer-q-exact", action="store_true",
                   help="append rows for positive integer q via the certified "
                        "spectral-radius route")

    oracle = subs.add_parser("oracle", help="brute-force reference computations")
    osubs = oracle.add_subparsers(dest="oracle_command", required=True)
    _subcommand(osubs, "dyadic", cmd_dyadic, "write the dyadic moment sums",
                "--out", "--q", "--n-min", "--n-max")
    _subcommand(osubs, "tau", cmd_tau, "fit tau(q) to the dyadic moment sums",
                "--q", "--n-min", "--n-max")
    _subcommand(osubs, "estimate-mass", cmd_estimate_mass,
                "Monte-Carlo mass of an interval of the real line",
                "--lo", "--hi", "--samples", "--rng-seed")

    try:
        args = parser.parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # the reader has gone: quiet the last flush, and leave stderr empty
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (SpectrumError, MeasureError, MapError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
