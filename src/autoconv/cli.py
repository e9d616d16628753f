"""Command-line surface: machine-readable reports over the library.

Every subcommand writes <out-dir>/<command>_report.json holding a
deterministic "report" object (command, version, resolved config,
results) next to a "timestamp" field that is kept outside the report so
identical configs reproduce it byte for byte.  CSV artifacts carry the
plot-ready series.  Exit codes: 0 success or verdict solution, 2
inequality violation, 1 usage or numeric error (with a single-line
{"error": ...} on stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import analyze, clt, coeffs, construct, families, grids


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _grid_spec(cfg) -> grids.GridSpec:
    return grids.GridSpec(
        dim=int(cfg["d"]), extent=float(cfg["L"]), points_per_axis=int(cfg["N"])
    )


def _load_function(path: str) -> grids.GridFunction:
    if path.endswith(".json"):
        return grids.from_json(path)
    return grids.from_csv(path)


def _family_evaluator(cfg):
    name = cfg["family"]
    if name == "poisson":
        return families.poisson(
            families.PoissonParams(a=cfg["a"], t=cfg["t"], d=int(cfg["d"]))
        )
    if name == "poisson_margin":
        return families.poisson_inequality_margin(cfg["a"], cfg["t"], int(cfg["d"]))
    if name == "sinc":
        return families.sinc_counterexample(families.SincParams(a=cfg["a"]))
    if name == "heavy_tail":
        return families.heavy_tail_density()
    if name == "gaussian":
        return families.gaussian_density(sigma=cfg["sigma"])
    raise CliError(f"unknown family {name!r}")


def _input_function(cfg) -> grids.GridFunction:
    """A grid function from --input, --family, or a named residual."""
    if cfg.get("input"):
        return _load_function(cfg["input"])
    spec = _grid_spec(cfg)
    if cfg.get("family") == "reverse":
        return families.reverse_example(spec, a=cfg["a"], delta=cfg["delta"])
    if cfg.get("family"):
        return grids.sample(spec, _family_evaluator(cfg))
    raise CliError("provide either --input or --family")


def _residual_function(cfg) -> grids.GridFunction:
    if cfg.get("input"):
        return _load_function(cfg["input"])
    spec = _grid_spec(cfg)
    name = cfg.get("residual")
    if name == "gaussian":
        raw = grids.sample(spec, families.gaussian_density(sigma=cfg["sigma"]))
        scale = cfg["mass"] / grids.integrate(raw)
        return grids.GridFunction(spec=spec, values=raw.values * scale)
    if name == "bump":
        return construct.bump_residual(spec, cfg["mass"], cfg["profile"])
    if name == "poisson_margin":
        return grids.sample(
            spec, families.poisson_inequality_margin(cfg["a"], cfg["t"], int(cfg["d"]))
        )
    raise CliError("provide either --input or --residual {gaussian,bump,poisson_margin}")


# ----------------------------------------------------------------------
# subcommand runners: cfg -> (results dict, exit code)
# ----------------------------------------------------------------------


def _run_coeffs(cfg, out_dir: Path):
    table = coeffs.build_coeffs(int(cfg["n"]))
    coeffs.dump_csv(table, out_dir / "coeffs.csv")
    results = {
        "n_max": table.n_max,
        "first_values": [float(v) for v in table.values[:10]],
        "final_partial_sum": float(table.partial_sums[-1]),
        "tail_remainder": float(1.0 - table.partial_sums[-1]),
    }
    return results, 0


def _run_family(cfg, out_dir: Path):
    g = _input_function(cfg)
    grids.to_csv(g, out_dir / "family.csv")
    grids.to_json(g, out_dir / "family.json")
    results = {
        "family": cfg.get("family"),
        "mass": grids.integrate(g),
        "min_value": float(g.values.min()),
        "max_value": float(g.values.max()),
    }
    return results, 0


def _run_construct(cfg, out_dir: Path):
    u = _residual_function(cfg)
    method = cfg["method"]
    results: dict = {"residual_mass": grids.integrate(u)}
    series_build = None
    if method in ("series", "both"):
        series_build = construct.build_series(
            u, epsilon=cfg["epsilon"], term_cap=int(cfg["term_cap"])
        )
        grids.to_csv(series_build.solution, out_dir / "construct_series.csv")
        results.update(
            ratio=series_build.ratio,
            n_terms=series_build.n_terms,
            tail_l1=series_build.tail_l1,
            tail_sup=series_build.tail_sup,
            series_mass=grids.integrate(series_build.solution),
        )
    if method in ("spectral", "both"):
        spectral = construct.build_spectral(u)
        grids.to_csv(spectral, out_dir / "construct_spectral.csv")
        results["spectral_mass"] = grids.integrate(spectral)
        if series_build is not None:
            results["crosscheck_l1"] = construct.crosscheck(series_build, spectral)
    return results, 0


def _run_verify(cfg, out_dir: Path):
    f = _input_function(cfg)
    residual = analyze.recovered_residual(f)
    report = analyze.scan_residual(f, residual, tolerance=cfg["tolerance"])
    grids.write_csv(
        out_dir / "verify_residual.csv",
        [f"x{i + 1}" for i in range(f.spec.dim)] + ["f", "residual"],
        [f.values, residual.values],
        spec=f.spec,
    )
    return _jsonable(report), 0 if report.verdict == "solution" else 2


def _run_moments(cfg, out_dir: Path):
    f = _input_function(cfg)
    orders = cfg["p"] or [1.0]
    reports = [analyze.moment_scan(f, p, levels=int(cfg["levels"])) for p in orders]
    rows = []
    for rep in reports:
        for radius, value in zip(rep.radii, rep.values):
            rows.append((rep.order, radius, value))
    grids.write_csv(out_dir / "moments.csv", ["p", "radius", "truncated_moment"], zip(*rows))
    return {"reports": [_jsonable(r) for r in reports]}, 0


def _run_clt(cfg, out_dir: Path):
    radii = [1.0] if cfg["R"] is None else cfg["R"]
    n_list = tuple(int(n) for n in (cfg["n"] or (4, 16, 64, 256)))
    outcomes = clt.run_experiments(
        cfg["kind"],
        tuple(float(radius) for radius in radii),
        n_list=n_list,
        mc_samples=int(cfg["samples"]),
        seed=cfg["seed"],
    )
    rows = []
    for res in outcomes:
        for i, n in enumerate(res.n_list):
            rows.append(
                (
                    res.ball_radius,
                    n,
                    res.p_values[i],
                    res.phi_values[i],
                    res.mc_values[i] if res.mc_values else "",
                    res.mc_stderr[i] if res.mc_stderr else "",
                )
            )
    grids.write_csv(
        out_dir / "clt.csv", ["R", "n", "p_grid", "phi", "p_mc", "mc_stderr"], zip(*rows)
    )
    return {"experiments": [_jsonable(r) for r in outcomes]}, 0


_RUNNERS = {
    "coeffs": _run_coeffs,
    "family": _run_family,
    "construct": _run_construct,
    "verify": _run_verify,
    "moments": _run_moments,
    "clt": _run_clt,
}

# Per-command option names and defaults; None means "must come from the
# command line or the config file if used at all".
_GRID = {"d": 1, "L": 100.0, "N": 16384}
_DEFAULTS: dict[str, dict] = {
    "coeffs": {"n": 100},
    "family": {
        **_GRID,
        "family": None,
        "input": None,
        "a": 0.5,
        "t": 1.0,
        "sigma": 1.0,
        "delta": 0.0,
    },
    "construct": {
        **_GRID,
        "input": None,
        "residual": None,
        "mass": 0.1875,
        "sigma": 1.0,
        "profile": "indicator",
        "a": 0.5,
        "t": 1.0,
        "epsilon": None,
        "term_cap": construct.DEFAULT_TERM_CAP,
        "method": "both",
    },
    "verify": {
        **_GRID,
        "family": None,
        "input": None,
        "a": 0.5,
        "t": 1.0,
        "sigma": 1.0,
        "delta": 0.0,
        "tolerance": None,
    },
    "moments": {
        **_GRID,
        "family": None,
        "input": None,
        "a": 0.5,
        "t": 1.0,
        "sigma": 1.0,
        "delta": 0.0,
        "p": None,
        "levels": 4,
    },
    "clt": {
        "kind": None,
        "R": None,
        "n": None,
        "samples": 100000,
        "seed": 0,
    },
}


# List-valued keys per command; a config file may leave them out (null) but
# must not give a scalar or an empty list.
_LIST_KEYS = {
    "moments": {"p": "the moment orders"},
    "clt": {"R": "the ball radii", "n": "the summand counts"},
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="autoconv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(cmd, *flags):
        p = sub.add_parser(cmd)
        p.add_argument("--config", default=None, help="JSON file mirroring the flags")
        p.add_argument("--out-dir", default=None, help="artifact directory (default .)")
        for flag, kind in flags:
            if kind == "append":
                p.add_argument(f"--{flag}", action="append", type=float, default=None)
            elif kind == "append_int":
                p.add_argument(f"--{flag}", action="append", type=int, default=None)
            else:
                p.add_argument(f"--{flag.replace('_', '-')}", dest=flag, type=kind, default=None)
        return p

    add("coeffs", ("n", int))
    add(
        "family",
        ("family", str), ("input", str), ("d", int), ("L", float), ("N", int),
        ("a", float), ("t", float), ("sigma", float), ("delta", float),
    )
    add(
        "construct",
        ("input", str), ("residual", str), ("d", int), ("L", float), ("N", int),
        ("mass", float), ("sigma", float), ("profile", str), ("a", float), ("t", float),
        ("epsilon", float), ("term_cap", int), ("method", str),
    )
    add(
        "verify",
        ("family", str), ("input", str), ("d", int), ("L", float), ("N", int),
        ("a", float), ("t", float), ("sigma", float), ("delta", float),
        ("tolerance", float),
    )
    add(
        "moments",
        ("family", str), ("input", str), ("d", int), ("L", float), ("N", int),
        ("a", float), ("t", float), ("sigma", float), ("delta", float),
        ("p", "append"), ("levels", int),
    )
    add(
        "clt",
        ("kind", str), ("R", "append"), ("n", "append_int"),
        ("samples", int), ("seed", int),
    )
    return parser


def _resolve_config(args) -> dict:
    command = args.command
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(_DEFAULTS[command]) - {"out_dir"}
        if unknown:
            raise CliError(f"unknown config keys for {command}: {sorted(unknown)}")
    cfg = {}
    for key, default in _DEFAULTS[command].items():
        cli_value = getattr(args, key, None)
        cfg[key] = cli_value if cli_value is not None else file_cfg.get(key, default)
    cfg["out_dir"] = args.out_dir or file_cfg.get("out_dir", ".")
    for key, meaning in _LIST_KEYS.get(command, {}).items():
        value = cfg[key]
        if value is not None and not (
            isinstance(value, list)
            and value
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        ):
            raise CliError(
                f"config key {key!r} ({meaning}) must be a non-empty list of numbers, "
                f"got {json.dumps(value)}"
            )
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        out_dir = Path(cfg["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        results, code = _RUNNERS[args.command](cfg, out_dir)
        report = {
            "command": args.command,
            "version": __version__,
            "config": _jsonable(cfg),
            "results": results,
        }
        doc = {"report": report, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
        text = json.dumps(doc, indent=2)
        (out_dir / f"{args.command}_report.json").write_text(text + "\n")
        print(text)
        return code
    except CliError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    except Exception as exc:  # noqa: BLE001  (single-line machine-parsable contract)
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
