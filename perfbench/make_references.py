#!/usr/bin/env python3
"""Regenerate references.json from the program as it stands.

    python3 perfbench/make_references.py

Run it only at a commit whose outputs are the accepted ones (it was run
at the seed commit); the benchmark then reports any later difference as
a failed operation.  Artifacts come from ``selfsim build`` itself (the
CLI), counts from the Pipeline, and tau from ``PressureEngine.tau`` on
the q grid the benchmark draws from, at every word length a workload
uses.  A reference tau is the certified value where the route is tight
(Kronecker, scalar, eigenvector-exact) and the finite-n point estimate
otherwise.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def word_lengths(name: str, budget_n: int) -> set:
    return {wl.pressure_n.get(name, budget_n)
            for wl in run.WORKLOADS.values() if name in wl.configs}


def q_max(name: str) -> int:
    return max(wl.q_max for wl in run.WORKLOADS.values() if name in wl.configs)


def references_for(name: str, scratch: Path) -> dict:
    from selfsim import config, spectrum
    from selfsim.pipeline import Pipeline

    subprocess.run([sys.executable, "-m", "selfsim.cli", "build", "--config",
                    f"bundled:{name}", "--out", str(scratch)],
                   check=True, stdout=subprocess.DEVNULL, cwd=run.ROOT,
                   env={"PYTHONPATH": str(run.SRC), "PATH": ""})
    artifacts = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(scratch.glob(f"{name}-*"))}
    pipe = Pipeline(config.load_bundled(name))
    auto, model = pipe.automaton, pipe.measure
    out = {
        "states": len(auto.states),
        "edges": sum(len(e) for e in auto.edges),
        "kept": len(model.kept),
        "gamma": len(pipe.decider.gamma_maps()),
        "artifacts": artifacts,
        "tau": {},
    }
    budgets = pipe.config.budgets
    top = q_max(name)
    grid = [k * run.Q_STEP for k in range(1, int(top / run.Q_STEP) + 1)]
    for n in sorted(word_lengths(name, budgets["pressure_n"])):
        engine = spectrum.PressureEngine(model, kron_dim_budget=budgets["kron_dim_budget"],
                                         default_n=n)
        out["irreducibility"] = spectrum.irreducibility_check(engine.ess)
        table = {}
        for q in grid:
            tau, lo, hi, est = engine.tau(float(q))
            table[repr(float(q))] = [tau, lo, hi, est.method]
        out["tau"][str(n)] = table
    return out


def main() -> int:
    run.cap_blas_threads()
    run.import_selfsim()
    names = sorted({n for wl in run.WORKLOADS.values() for n in wl.configs})
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    refs = {"commit": commit, "configs": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench_refs-", dir=run.ROOT) as tmp:
        for name in names:
            print(f"references for {name}", flush=True)
            refs["configs"][name] = references_for(name, Path(tmp))
    path = run.HERE / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
