"""Command-line surface: check-ftc, build, mass, spectrum, oracle.

Exit codes: 0 success, 1 invalid config, 2 finite type not verified
within budget, 3 internal invariant violation.  Every output artifact
embeds the config hash; runs are deterministic given config and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from .config import ConfigError, IfsConfig, load_bundled
from .field import check_pisot, RootBox
from .intervals import RatInterval
from .maps import MapError
from .measure import MeasureError
from .neighbors import BudgetExceeded
from .automaton import NotAdmissible
from .oracle import IntervalUnion, estimate_mass, dyadic_lq_sum, tau_dyadic
from .pipeline import Pipeline
from .spectrum import SpectrumError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INCONCLUSIVE = 2
EXIT_INVARIANT = 3


def _common(sub):
    sub.add_argument("--config", required=True,
                     help="path to a config JSON, or bundled:<name>")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--max-states", type=int, default=None)
    sub.add_argument("--pressure-n", type=int, default=None)
    sub.add_argument("--rng-seed", type=int, default=0)


def _load_config(args) -> IfsConfig:
    if args.config.startswith("bundled:"):
        cfg = load_bundled(args.config.split(":", 1)[1])
    else:
        cfg = IfsConfig.load(args.config)
    if args.max_states is not None:
        cfg.budgets["max_states"] = args.max_states
    if getattr(args, "pressure_n", None) is not None:
        cfg.budgets["pressure_n"] = args.pressure_n
    return cfg


def _parse_grid(spec: str):
    try:
        a, b, step = (Fraction(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad q-grid {spec!r}; expected a:b:step") from exc
    if step <= 0 or b < a:
        raise ConfigError(f"bad q-grid {spec!r}")
    out = []
    q = a
    while q <= b:
        out.append(q)
        q += step
    return out


def cmd_check_ftc(args) -> int:
    cfg = _load_config(args)
    pipe = Pipeline(cfg)
    box = cfg.root_box
    report = check_pisot(cfg.min_poly,
                         RootBox(RatInterval(*box["real"]),
                                 RatInterval(*box["imag"]) if "imag" in box else None))
    print(f"pisot advisory: 1/rho is {report.kind} "
          f"(|1/rho| = {report.selected_modulus:.6f}, "
          f"algebraic integer: {report.is_algebraic_integer})")
    try:
        graph = pipe.decider.graph
    except BudgetExceeded as exc:
        print(f"INCONCLUSIVE: {exc} (nodes={exc.node_count}, frontier={exc.frontier_size})")
        return EXIT_INCONCLUSIVE
    gamma = graph.gamma_maps()
    alive = sum(1 for n in graph.nodes.values() if n.alive)
    print(f"finite type verified: |Gamma| = {len(gamma)} maps "
          f"({alive} tagged nodes alive of {len(graph.nodes)} candidates)")
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
    data = auto.to_json_dict()
    data["config_hash"] = cfg.config_hash()
    data["mass_positive_states"] = list(model.kept)
    data["mass_vectors"] = {
        str(sid): [f"{x.numerator}/{x.denominator}" for x in model.v[sid]]
        for sid in model.kept}
    (out / f"{cfg.name}-automaton.json").write_text(
        json.dumps(data, indent=2) + "\n")
    mdata = pipe.global_system.to_json_dict()
    mdata["config_hash"] = cfg.config_hash()
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
    cfg = _load_config(args)
    pipe = Pipeline(cfg)
    model = pipe.measure
    address = [int(x) for x in args.address.split(",")]
    try:
        val = model.mass(address)
    except NotAdmissible as exc:
        print(f"address not admissible: {exc}")
        return EXIT_INVARIANT
    print(f"mu(atom {args.address}) = {val.numerator}/{val.denominator} "
          f"= {float(val):.12g}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    pipe = Pipeline(cfg)
    engine = pipe.engine
    r, _delta = engine.irreducibility()
    grid = _parse_grid(args.q_grid)
    curve = engine.lq_curve([float(q) for q in grid],
                            n=cfg.budgets["pressure_n"])
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
            # extra rows: certified spectral-radius route at integer q
            for q in grid:
                if q.denominator != 1:
                    continue
                tau, lo, hi, est = engine.tau(float(q))
                w.writerow([repr(float(q)), repr(tau), repr(lo), repr(hi),
                            est.method, est.n, h])
                if est.method == "finite-n":
                    fell_back.append(q)
    tau1, lo1, hi1, est1 = engine.tau(1.0)
    print(f"essential class: {len(engine.ess.ids)} states, L = {engine.ess.size}, "
          f"irreducibility exponent r = {r}")
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
    ncomp = engine.ess.diagnostics["terminal_components"]
    if ncomp > 1:
        print(f"note: the pruned automaton has {ncomp} terminal components; "
              "the essential class is the one with the smallest state id")
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    ifs = cfg.build_ifs()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    h = cfg.config_hash()
    if args.oracle_cmd == "dyadic":
        path = out / f"{cfg.name}-dyadic.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["q", "n", "lq_sum", "config_hash", "rng_seed"])
            for n in range(args.n_min, args.n_max + 1):
                s = dyadic_lq_sum(ifs, args.q, n)
                w.writerow([repr(args.q), n, repr(s), h, args.rng_seed])
        print(f"dyadic sums written to {path}")
        return EXIT_OK
    if args.oracle_cmd == "tau":
        td = tau_dyadic(ifs, args.q, range(args.n_min, args.n_max + 1))
        print(f"tau_dyadic({args.q}) = {td.estimate:.6f} "
              f"(fit residual {td.residual:.3g}, n = {td.n_range[0]}..{td.n_range[1]})")
        return EXIT_OK
    if args.oracle_cmd == "estimate-mass":
        region = IntervalUnion([(Fraction(args.lo), Fraction(args.hi))])
        est = estimate_mass(ifs, region, samples=args.samples, seed=args.rng_seed)
        print(f"mu({args.lo},{args.hi}) in [{est.lower:.6f}, {est.upper:.6f}] "
              f"+- {est.stderr:.2g} ({est.mode}, seed {args.rng_seed})")
        return EXIT_OK
    raise ConfigError(f"unknown oracle subcommand {args.oracle_cmd!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Neighbor automata, exact atom masses and L^q spectra "
                    "for finite-type self-similar measures")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("check-ftc", help="verify the finite type condition")
    _common(s)

    s = subs.add_parser("build", help="build the atom automaton and mass vectors")
    _common(s)

    s = subs.add_parser("mass", help="exact mass of one atom")
    _common(s)
    s.add_argument("--address", required=True,
                   help="comma-separated state ids starting at the root, e.g. 0,2,5")

    s = subs.add_parser("spectrum", help="sample tau(q) on a grid")
    _common(s)
    s.add_argument("--q-grid", default="0.3:4.0:0.1")
    s.add_argument("--integer-q-exact", action="store_true",
                   help="append rows for integer q via the certified "
                        "spectral-radius route")

    s = subs.add_parser("oracle", help="brute-force reference computations")
    _common(s)
    s.add_argument("oracle_cmd", choices=["dyadic", "tau", "estimate-mass"])
    s.add_argument("--q", type=float, default=2.0)
    s.add_argument("--n-min", type=int, default=6)
    s.add_argument("--n-max", type=int, default=12)
    s.add_argument("--lo", default="0")
    s.add_argument("--hi", default="1/2")
    s.add_argument("--samples", type=int, default=100000)

    args = parser.parse_args(argv)
    handlers = {"check-ftc": cmd_check_ftc, "build": cmd_build, "mass": cmd_mass,
                "spectrum": cmd_spectrum, "oracle": cmd_oracle}
    try:
        return handlers[args.command](args)
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
