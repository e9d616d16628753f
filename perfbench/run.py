"""Benchmark of the autoconv library and CLI, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload series_critical --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats untraced passes of the workload for ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes (library and CLI in process) and reports the per-layer
metrics.  ``--quick`` runs one pass of each kind on tiny grids.  Every
output is checked outside the timed region.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details, spans and the environment go to ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("AUTOCONV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
POOL_VARS = THREAD_VARS[1:]  # AUTOCONV_THREADS is echoed into reports, so it is left as found

SETUP_PROBES = 5
# On a shared host the speed of the cores drifts by a quarter and more
# within minutes, and raw wall times carry that drift into every
# comparison.  A fixed kernel that never touches autoconv is timed before
# each operation, and each pass time is rescaled to the speed at which that
# kernel takes REF_NOMINAL_S, so drift common to both cancels.  The raw
# times are printed and recorded next to the rescaled ones.
REF_NOMINAL_S = 0.05
# Per-layer figures in these units are timings; all others must repeat
# exactly from one traced pass to the next.
TIME_UNITS = ("s", "ms", "Mdraws/s")


def cap_thread_pools(nproc: int) -> None:
    """Limit native thread pools, here and in children, to the core count."""
    for var in POOL_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= nproc:
            os.environ[var] = str(nproc)


def environment(nproc: int, found: dict) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine: the source digest still identifies the code
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "autoconv").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "threads_found": found,
        "threads_used": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def reference_seconds() -> float:
    """Time of the reference kernel: an interpreter loop and complex FFTs."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 1 << 15) + 0j
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(15):
        x = np.fft.ifft(np.fft.fft(x))
    return time.perf_counter() - start


def run_setup(workload, env: dict, probes: int) -> tuple[list[float], list[float]]:
    """Fresh-process set-up: wall time of each probe and its import time."""
    walls, imports = [], []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", workload.setup_code()],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        walls.append(time.perf_counter() - start)
        imports.append(float(proc.stdout.split()[-1]))
    return walls, imports


def run_pass(ops, tracer=None, reference=False) -> dict:
    """One closed-loop pass: each operation timed, then checked."""
    times, failures, failed, refs = {}, [], 0, []
    for op_id, op in enumerate(ops):
        op.before()
        if reference:
            refs.append(reference_seconds())
        start = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.operation(op_id, op.name):
                    out = op.run()
        except Exception as exc:  # noqa: BLE001  (a failed operation is a result)
            times[op.name] = time.perf_counter() - start
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            failed += 1
            continue
        times[op.name] = time.perf_counter() - start
        try:
            fails = op.check(out)
        except Exception as exc:  # noqa: BLE001
            fails = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
        failures += fails
        failed += bool(fails)
    groups = {}
    for op in ops:
        if op.group:
            groups[op.group] = groups.get(op.group, 0.0) + times[op.name]
    return {
        "wall_s": sum(times.values()),
        "ref_s": refs,
        "ops_s": times,
        "groups_s": groups,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_figures(workload, tracer, spans_mod, import_s: float) -> dict:
    figures = spans_mod.layer_metrics(tracer)
    per_command = {}
    for command, size in getattr(workload, "artifact_bytes", {}).values():
        per_command[command] = per_command.get(command, 0) + size
    for command in spans_mod.CLI_COMMANDS:
        figures[f"cli.{command}.artifact_mb"] = per_command.get(command, 0) / 1e6
    for name, _ in spans_mod.per_layer_names():
        if name.startswith("construct.bound_miss_"):
            figures[name] = workload.extra.get(name, 0.0)
    figures["proc.import_s"] = import_s
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("series_critical", "cli_session", "clt_escape"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one pass on tiny grids")
    args = parser.parse_args(argv)

    if not (SRC / "autoconv" / "__init__.py").is_file():
        print(f"error: no autoconv sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    found = {var: os.environ.get(var) for var in THREAD_VARS}
    cap_thread_pools(nproc)
    sys.path[:0] = [str(SRC), str(HERE)]
    import autoconv.cli  # noqa: F401  (binds every library module)

    import spans as spans_mod
    import workloads

    out = HERE / "out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ctx = workloads.Context(root=ROOT, out=out, env=env, seed=args.seed, quick=args.quick)
    workload = workloads.WORKLOADS[args.workload](ctx)

    setup_walls, import_times = run_setup(workload, env, 1 if args.quick else SETUP_PROBES)
    deadline = time.perf_counter() + args.seconds
    plain, traced, layers, tracers = [], [], [], []
    if args.trace == 0:
        ops = workload.ops("child")
        while True:
            plain.append(run_pass(ops, reference=True))
            if args.quick or time.perf_counter() >= deadline:
                break
    else:
        ops = workload.ops("inproc")
        while True:
            plain.append(run_pass(ops))
            tracer = spans_mod.Tracer()
            with tracer.installed():
                traced.append(run_pass(ops, tracer))
            layers.append(layer_figures(workload, tracer, spans_mod, median(import_times)))
            tracers.append(tracer)
            if args.quick or time.perf_counter() >= deadline:
                break

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [msg for p in passes for msg in p["failures"]]
    if args.trace == 0:
        metrics = {
            "norm_wall_s": (
                median([p["wall_s"] for p in plain]) * REF_NOMINAL_S
                / median([r for p in plain for r in p["ref_s"]]),
                "s",
            ),
            "setup_s": (median(setup_walls), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_share": (1.0 - failed / attempted, "share"),
        }
    else:
        overhead = median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in plain])
        metrics = {}
        for name, unit in spans_mod.per_layer_names():
            if name == "trace.overhead_s":
                metrics[name] = (overhead, unit)
            elif name.startswith("op."):
                metrics[name] = (median([p["groups_s"].get(name[3:], 0.0) for p in plain]), unit)
            elif unit in TIME_UNITS:
                metrics[name] = (median([layer[name] for layer in layers]), unit)
            else:
                values = [layer[name] for layer in layers]
                if any(v != values[0] for v in values):
                    failures.append(f"{name} differs between traced passes: {values}")
                metrics[name] = (values[0], unit)
    ops_summary = {
        group: median([p["groups_s"][group] for p in plain]) for group in plain[0]["groups_s"]
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "environment": environment(nproc, found),
        "setup_walls_s": setup_walls,
        "import_s": import_times,
        "passes": passes,
        "op_medians_s": ops_summary,
        "failures": failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (out / f"result_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    if tracers:
        spans_mod.dump(tracers, out / f"spans_seed{args.seed}.json")

    print("# environment " + json.dumps(record["environment"]))
    print(f"# {len(plain)} untraced and {len(traced)} traced passes; raw median pass "
          f"{median([p['wall_s'] for p in plain]):.4f} s; median seconds per operation group: "
          + json.dumps(ops_summary))
    for msg in failures:
        print(f"# FAILED {msg}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
