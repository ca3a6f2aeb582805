"""Spans and counters around the public entry points of each selfsim layer.

Every wrapper is installed where the program looks the name up: module
globals for free functions (``selfsim.pipeline.build``,
``selfsim.automaton.children``, ``selfsim.spectrum.spectral_radius_bounds``
and so on) and the class for methods.  Nothing under ``src/`` changes;
``Patcher.restore`` puts every original back.

Span names are ``<layer>.<what>``; a layer's self time is the self time
of its spans, so field arithmetic done inside ``Similitude.compose``
counts as ``maps`` time.  Counters that a span cannot give (states,
routes, fallbacks, terminal components) are read from the values the
wrapped calls return.
"""

from __future__ import annotations

from tracer import Patcher, Tracer


class LayerCounters:
    def __init__(self):
        self.closure_nodes = 0
        self.gamma_maps = 0
        self.tuple_true = 0
        self.states = 0
        self.edges = 0
        self.anomalies = 0
        self.kept_states = 0
        self.extra_terminal_components = 0
        self.kron_dim_max = 0
        self.matvecs = 0
        self.cw_gap_max = 0.0
        self.routes = {"kronecker": 0, "scalar": 0, "finite-n": 0,
                       "eigenvector-exact": 0}
        self.kron_fallbacks = 0
        self.discarded_finite_n = 0
        self.pressure_calls = 0
        self.route_computations = 0
        # state of the innermost open PressureEngine.pressure call
        self._pressure_depth = 0
        self._fallback_seen = False


def install(tracer: Tracer, counters: LayerCounters) -> Patcher:
    """Wrap the selfsim entry points; returns the patcher that undoes it."""
    from selfsim import automaton, cli, config, maps, measure, neighbors, pipeline, spectrum

    c = counters
    p = Patcher()
    wrap = tracer.wrap

    # -- config and field --------------------------------------------------
    p.replace(config, "load_bundled", wrap(config.load_bundled, "config.load"))
    p.replace(config.IfsConfig, "build_field",
              wrap(config.IfsConfig.build_field, "field.build"))

    # -- maps ------------------------------------------------------------------
    sim = maps.Similitude
    p.replace(sim, "compose", wrap(sim.compose, "maps.compose"))
    p.replace(sim, "inverse", wrap(sim.inverse, "maps.inverse"))

    # -- neighbors ----------------------------------------------------------------
    def on_closure(graph, _args):
        c.closure_nodes += len(graph.nodes)

    def on_prune(graph, _args):
        c.gamma_maps += len(graph.gamma_maps())

    def on_tuple(out, _args):
        if out:
            c.tuple_true += 1

    p.replace(neighbors, "candidate_closure",
              wrap(neighbors.candidate_closure, "neighbors.closure", on_closure))
    p.replace(neighbors, "prune", wrap(neighbors.prune, "neighbors.prune", on_prune))
    dec = neighbors.NeighborDecider
    p.replace(dec, "tuple_intersects",
              wrap(dec.tuple_intersects, "neighbors.tuple", on_tuple))
    p.replace(dec, "pair_of", wrap(dec.pair_of, "neighbors.pair"))

    # -- automaton -------------------------------------------------------------------
    def on_build(auto, _args):
        c.states += len(auto.states)
        c.edges += sum(len(e) for e in auto.edges)
        c.anomalies += len(auto.anomalies)

    p.replace(pipeline, "build", wrap(pipeline.build, "automaton.build", on_build))
    p.replace(automaton, "children", wrap(automaton.children, "automaton.children"))

    # -- measure -------------------------------------------------------------------
    def on_solve(model, _args):
        c.kept_states += len(model.kept)

    p.replace(pipeline, "compute_mass_vectors",
              wrap(pipeline.compute_mass_vectors, "measure.solve", on_solve))
    p.replace(measure.MeasureModel, "mass",
              wrap(measure.MeasureModel.mass, "measure.mass"))
    p.replace(measure.GlobalSystem, "mass_global",
              wrap(measure.GlobalSystem.mass_global, "measure.mass_global"))

    # -- spectrum -------------------------------------------------------------------
    def on_essential(ess, _args):
        c.extra_terminal_components += ess.diagnostics.get("terminal_components", 1) - 1

    p.replace(spectrum, "essential_class",
              wrap(spectrum.essential_class, "spectrum.essential", on_essential))
    p.replace(spectrum, "irreducibility_check",
              wrap(spectrum.irreducibility_check, "spectrum.irreducibility"))

    srb = spectrum.spectral_radius_bounds

    def power_iter(matvec, dim, *args, **kwargs):
        def counted(x):
            c.matvecs += 1
            return matvec(x)
        return srb(counted, dim, *args, **kwargs)

    def on_power_iter(bounds, _args):
        lo, hi = bounds
        if hi > 0:
            c.cw_gap_max = max(c.cw_gap_max, (hi - lo) / hi)

    p.replace(spectrum, "spectral_radius_bounds",
              wrap(power_iter, "spectrum.power_iter", on_power_iter))

    eng = spectrum.PressureEngine

    def integer_q_route(est, _args):
        return {"kronecker": "spectrum.kronecker",
                "eigenvector-exact": "spectrum.eigenvector_exact"}.get(
                    est.method, "spectrum.kron_fallback")

    def on_integer_q(est, args):
        if est.method == "kronecker":
            c.kron_dim_max = max(c.kron_dim_max, args[0].ess.size ** int(args[1]))
        if c._pressure_depth:
            if est.method == "finite-n":
                c.kron_fallbacks += 1
                c._fallback_seen = True
            else:
                c.route_computations += 1

    def on_route(_est, _args):
        if c._pressure_depth:
            c.route_computations += 1

    p.replace(eng, "pressure_integer_q",
              wrap(eng.pressure_integer_q, "spectrum.integer_q", on_integer_q,
                   rename=integer_q_route))
    p.replace(eng, "pressure_scalar", wrap(eng.pressure_scalar, "spectrum.scalar", on_route))
    p.replace(eng, "pressure_finite_n",
              wrap(eng.pressure_finite_n, "spectrum.finite_n", on_route))

    pressure = eng.pressure

    def pressure_counted(self, *args, **kwargs):
        outer = c._fallback_seen
        c._pressure_depth += 1
        c._fallback_seen = False
        try:
            est = pressure(self, *args, **kwargs)
        finally:
            c._pressure_depth -= 1
        if c._fallback_seen and est.method != "finite-n":
            c.discarded_finite_n += 1
        c._fallback_seen = outer
        c.pressure_calls += 1
        c.routes[est.method] = c.routes.get(est.method, 0) + 1
        return est

    def on_curve(curve, _args):
        for m in curve.method:
            c.routes[m] = c.routes.get(m, 0) + 1

    p.replace(eng, "pressure", wrap(pressure_counted, "spectrum.pressure"))
    p.replace(eng, "lq_curve", wrap(eng.lq_curve, "spectrum.lq_curve", on_curve))

    # -- cli --------------------------------------------------------------------------
    p.replace(cli, "cmd_build", wrap(cli.cmd_build, "cli.build"))
    return p


# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "config.load_s": ("s", "lower"),
    "field.build_s": ("s", "lower"),
    "maps.compose_calls": ("count", "lower"),
    "maps.compose_s": ("s", "lower"),
    "maps.inverse_calls": ("count", "lower"),
    "maps.inverse_s": ("s", "lower"),
    "neighbors.closure_s": ("s", "lower"),
    "neighbors.closure_nodes": ("count", "lower"),
    "neighbors.gamma_maps": ("count", "lower"),
    "neighbors.tuple_calls": ("count", "lower"),
    "neighbors.tuple_s": ("s", "lower"),
    "neighbors.tuple_true_ratio": ("ratio", "higher"),
    "neighbors.pair_calls": ("count", "lower"),
    "neighbors.pair_s": ("s", "lower"),
    "automaton.build_self_s": ("s", "lower"),
    "automaton.children_calls": ("count", "lower"),
    "automaton.children_s": ("s", "lower"),
    "automaton.states": ("count", "lower"),
    "automaton.edges": ("count", "lower"),
    "automaton.anomalies": ("count", "lower"),
    "automaton.tuple_tests_per_edge": ("ratio", "lower"),
    "measure.solve_s": ("s", "lower"),
    "measure.kept_states": ("count", "lower"),
    "measure.mass_calls": ("count", "higher"),
    "measure.mass_s": ("s", "lower"),
    "measure.mass_global_calls": ("count", "higher"),
    "measure.mass_global_s": ("s", "lower"),
    "spectrum.essential_s": ("s", "lower"),
    "spectrum.extra_terminal_components": ("count", "lower"),
    "spectrum.irreducibility_s": ("s", "lower"),
    "spectrum.kronecker_calls": ("count", "lower"),
    "spectrum.kronecker_s": ("s", "lower"),
    "spectrum.kronecker_dim_max": ("count", "lower"),
    "spectrum.scalar_calls": ("count", "lower"),
    "spectrum.scalar_s": ("s", "lower"),
    "spectrum.finite_n_calls": ("count", "lower"),
    "spectrum.finite_n_s": ("s", "lower"),
    "spectrum.power_iter_calls": ("count", "lower"),
    "spectrum.power_iter_s": ("s", "lower"),
    "spectrum.matvecs": ("count", "lower"),
    "spectrum.cw_gap_max": ("ratio", "lower"),
    "spectrum.route.kronecker": ("count", "higher"),
    "spectrum.route.scalar": ("count", "higher"),
    "spectrum.route.finite-n": ("count", "lower"),
    "spectrum.route.eigenvector-exact": ("count", "higher"),
    "spectrum.kron_fallbacks": ("count", "lower"),
    "spectrum.discarded_finite_n": ("count", "lower"),
    "spectrum.route_useful_ratio": ("ratio", "higher"),
    "cli.artifacts_s": ("s", "lower"),
    "trace.build_layer_share": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# layers whose self time the build of the automaton should consist of
BUILD_LAYERS = ("automaton.", "maps.", "neighbors.")


def layer_metrics(t: Tracer, c: LayerCounters, *, overhead_ratio: float) -> dict:
    """Per-layer values of one traced pass, keyed as in PER_LAYER."""
    kron = t.calls("spectrum.kronecker")
    tuples = t.calls("neighbors.tuple")
    build_layers_s = sum(t.layer_self_s(pre, root="bench.build") for pre in BUILD_LAYERS)
    build_s = t.select("bench.build")[1] / 1e9
    v = {
        "config.load_s": t.self_s("config.load"),
        "field.build_s": t.self_s("field.build"),
        "maps.compose_calls": t.calls("maps.compose"),
        "maps.compose_s": t.self_s("maps.compose"),
        "maps.inverse_calls": t.calls("maps.inverse"),
        "maps.inverse_s": t.self_s("maps.inverse"),
        "neighbors.closure_s": t.self_s("neighbors.closure") + t.self_s("neighbors.prune"),
        "neighbors.closure_nodes": c.closure_nodes,
        "neighbors.gamma_maps": c.gamma_maps,
        "neighbors.tuple_calls": tuples,
        "neighbors.tuple_s": t.self_s("neighbors.tuple"),
        "neighbors.tuple_true_ratio": c.tuple_true / tuples if tuples else 0.0,
        "neighbors.pair_calls": t.calls("neighbors.pair"),
        "neighbors.pair_s": t.self_s("neighbors.pair"),
        "automaton.build_self_s": t.self_s("automaton.build"),
        "automaton.children_calls": t.calls("automaton.children"),
        "automaton.children_s": t.self_s("automaton.children"),
        "automaton.states": c.states,
        "automaton.edges": c.edges,
        "automaton.anomalies": c.anomalies,
        "automaton.tuple_tests_per_edge": (
            t.calls("neighbors.tuple", parent="automaton.children") / c.edges
            if c.edges else 0.0),
        "measure.solve_s": t.self_s("measure.solve"),
        "measure.kept_states": c.kept_states,
        "measure.mass_calls": t.calls("measure.mass"),
        "measure.mass_s": t.self_s("measure.mass"),
        "measure.mass_global_calls": t.calls("measure.mass_global"),
        "measure.mass_global_s": t.self_s("measure.mass_global"),
        "spectrum.essential_s": t.self_s("spectrum.essential"),
        "spectrum.extra_terminal_components": c.extra_terminal_components,
        "spectrum.irreducibility_s": t.self_s("spectrum.irreducibility"),
        "spectrum.kronecker_calls": kron,
        "spectrum.kronecker_s": t.self_s("spectrum.kronecker"),
        "spectrum.kronecker_dim_max": c.kron_dim_max,
        "spectrum.scalar_calls": t.calls("spectrum.scalar"),
        "spectrum.scalar_s": t.self_s("spectrum.scalar"),
        "spectrum.finite_n_calls": t.calls("spectrum.finite_n"),
        "spectrum.finite_n_s": t.self_s("spectrum.finite_n"),
        "spectrum.power_iter_calls": t.calls("spectrum.power_iter"),
        "spectrum.power_iter_s": t.self_s("spectrum.power_iter"),
        "spectrum.matvecs": c.matvecs,
        "spectrum.cw_gap_max": c.cw_gap_max,
        "spectrum.kron_fallbacks": c.kron_fallbacks,
        "spectrum.discarded_finite_n": c.discarded_finite_n,
        "spectrum.route_useful_ratio": (c.pressure_calls / c.route_computations
                                        if c.route_computations else 0.0),
        "cli.artifacts_s": t.self_s("cli.build"),
        "trace.build_layer_share": build_layers_s / build_s if build_s else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    for route in ("kronecker", "scalar", "finite-n", "eigenvector-exact"):
        v[f"spectrum.route.{route}"] = c.routes.get(route, 0)
    return {name: v[name] for name in PER_LAYER}
