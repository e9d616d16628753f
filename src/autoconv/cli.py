"""Command-line surface: machine-readable reports over the library.

Every subcommand writes <out-dir>/<command>_report.json holding a
deterministic "report" object (command, version, resolved config,
results) next to a "timestamp" field that is kept outside the report so
identical configs reproduce it byte for byte; its config holds only
the keys the run read.  CSV artifacts carry the plot-ready series.  A
--config file holds a JSON object that may supply any flag; each value
must have the flag's type, and null means the key is absent.  Exit
codes: 0 success or verdict solution, 2 inequality violation, 1 usage
or numeric error (with a single-line {"error": ...} on stdout).
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


def _sampled(evaluator):
    """builder(cfg, spec) that samples evaluator(cfg) on the grid."""
    return lambda cfg, spec: grids.sample(spec, evaluator(cfg))


_margin = _sampled(lambda c: families.poisson_inequality_margin(c["a"], c["t"], c["d"]))

# name -> (the parameter keys it reads, builder(cfg, spec))
_FAMILIES = {
    "poisson": (
        ("a", "t"),
        _sampled(lambda c: families.poisson(families.PoissonParams(c["a"], c["t"], c["d"]))),
    ),
    "poisson_margin": (("a", "t"), _margin),
    "sinc": (("a",), _sampled(lambda c: families.sinc_counterexample(families.SincParams(c["a"])))),
    "heavy_tail": ((), _sampled(lambda c: families.heavy_tail_density())),
    "gaussian": (("sigma",), _sampled(lambda c: families.gaussian_density(sigma=c["sigma"]))),
    "reverse": (("a", "delta"), lambda c, spec: families.reverse_example(spec, c["a"], c["delta"])),
}
_RESIDUALS = {
    "gaussian": (
        ("mass", "sigma"),
        lambda c, spec: grids.sample_with_mass(
            spec, families.gaussian_density(sigma=c["sigma"]), c["mass"]
        ),
    ),
    "bump": (
        ("mass", "profile"),
        lambda c, spec: construct.bump_residual(spec, c["mass"], c["profile"]),
    ),
    "poisson_margin": (("a", "t"), _margin),
}


def _grid_function(cfg) -> grids.GridFunction:
    """The grid file given by --input, else the named family or residual.

    A named function is built on the config's grid.  A file sets the
    config's d, L and N to its own grid, so the report echoes what ran;
    naming a family or residual beside it is an error.  The config keeps
    only the parameter keys the function read: the named one's, none for
    a file.
    """
    source = "family" if "family" in cfg else "residual"
    table = _FAMILIES if source == "family" else _RESIDUALS
    path, name = cfg["input"], cfg[source]
    if path and name:
        raise CliError(f"--input and --{source} both name the function: give one of them")
    if path:
        g = grids.from_json(path) if path.endswith(".json") else grids.from_csv(path)
        cfg.update(d=int(g.spec.dim), L=float(g.spec.extent), N=int(g.spec.points_per_axis))
        read = ()
    else:
        if name not in table:
            if source == "family" and name:
                raise CliError(f"unknown family {name!r}")
            choices = " {" + ",".join(_RESIDUALS) + "}" if source == "residual" else ""
            raise CliError(f"provide either --input or --{source}{choices}")
        read, build = table[name]
        g = build(cfg, grids.GridSpec(dim=cfg["d"], extent=cfg["L"], points_per_axis=cfg["N"]))
    for key in {key for keys, _ in table.values() for key in keys}.difference(read):
        del cfg[key]
    return g


# ----------------------------------------------------------------------
# subcommand runners: cfg -> (results dict, exit code)
# ----------------------------------------------------------------------


def _run_coeffs(cfg, out_dir: Path):
    table = coeffs.build_coeffs(cfg["n"])
    coeffs.dump_csv(table, out_dir / "coeffs.csv")
    results = {
        "n_max": table.n_max,
        "first_values": [float(v) for v in table.values[:10]],
        "final_partial_sum": float(table.partial_sums[-1]),
        "tail_remainder": float(1.0 - table.partial_sums[-1]),
    }
    return results, 0


def _run_family(cfg, out_dir: Path):
    g = _grid_function(cfg)
    grids.to_csv(g, out_dir / "family.csv")
    grids.to_json(g, out_dir / "family.json")
    results = {
        "family": cfg["family"],
        "mass": grids.integrate(g),
        "min_value": float(g.values.min()),
        "max_value": float(g.values.max()),
    }
    return results, 0


def _run_construct(cfg, out_dir: Path):
    method = cfg["method"]
    if method not in ("series", "spectral", "both"):
        raise CliError(f"unknown method {method!r}: use series, spectral or both")
    u = _grid_function(cfg)
    if method == "spectral":
        del cfg["epsilon"]  # read by the series route alone, so not echoed
    results: dict = {"residual_mass": grids.integrate(u)}
    series_build = None
    if method in ("series", "both"):
        series_build = construct.build_series(u, epsilon=cfg["epsilon"])
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
    f = _grid_function(cfg)
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
    f = _grid_function(cfg)
    reports = [analyze.moment_scan(f, p, levels=cfg["levels"]) for p in cfg["p"]]
    rows = []
    for rep in reports:
        for radius, value in zip(rep.radii, rep.values):
            rows.append((rep.order, radius, value))
    grids.write_csv(out_dir / "moments.csv", ["p", "radius", "truncated_moment"], zip(*rows))
    return {"reports": [_jsonable(r) for r in reports]}, 0


def _run_clt(cfg, out_dir: Path):
    outcomes = clt.run_experiments(
        cfg["kind"],
        cfg["R"],
        n_list=cfg["n"],
        mc_samples=cfg["samples"],
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


# Every command and option once: {command: (runner, {key: (type, default,
# meaning)})}.  A list type marks a repeatable flag, whose tuple default
# the given values replace (argparse never sees a default: "append" would
# extend it); a None default means the option is unset unless given.  The
# table drives the subcommands, flags, config-file keys and type checks.
_GRID = {
    "d": (int, 1, "dimension: 1, 2 or 3"),
    "L": (float, 100.0, "grid window [-L, L) per axis"),
    "N": (int, 16384, "grid points per axis, a power of two"),
}
_FAMILY = {
    **_GRID,
    "family": (str, None, "poisson, poisson_margin, sinc, heavy_tail, gaussian or reverse"),
    "input": (str, None, "grid file (.csv or .json) in place of a family"),
    "a": (float, 0.5, "family parameter a"),
    "t": (float, 1.0, "Poisson scale t"),
    "sigma": (float, 1.0, "Gaussian width"),
    "delta": (float, 0.0, "reverse-example parameter delta"),
}
_OUT = {"out_dir": (str, ".", "artifact directory")}
_CONSTRUCT = {
    **_GRID,
    "input": (str, None, "residual grid file (.csv or .json)"),
    "residual": (str, None, "gaussian, bump or poisson_margin"),
    "mass": (float, 0.1875, "residual mass, at most 1/4"),
    "sigma": (float, 1.0, "Gaussian residual width"),
    "profile": (str, "indicator", "bump profile: indicator or cosine"),
    "a": (float, 0.5, "Poisson margin parameter a"),
    "t": (float, 1.0, "Poisson margin scale t"),
    "epsilon": (float, None, "L1 truncation target of the series"),
    "method": (str, "both", "series, spectral or both"),
    **_OUT,
}
_MOMENTS = {
    **_FAMILY,
    "p": ([float], (1.0,), "the moment orders"),
    "levels": (int, 4, "radius levels of the scan"),
    **_OUT,
}
_CLT = {
    "kind": (str, None, "finite_variance or infinite_variance"),
    "R": ([float], (1.0,), "the ball radii"),
    "n": ([int], (4, 16, 64, 256), "the summand counts"),
    "samples": (int, 100000, "Monte Carlo draws per n; 0 skips"),
    "seed": (int, 0, "Monte Carlo seed"),
    **_OUT,
}
_COMMANDS: dict[str, tuple] = {
    "coeffs": (_run_coeffs, {"n": (int, 100, "number of coefficients"), **_OUT}),
    "family": (_run_family, {**_FAMILY, **_OUT}),
    "construct": (_run_construct, _CONSTRUCT),
    "verify": (_run_verify, {**_FAMILY, "tolerance": (float, None, "violation tolerance"), **_OUT}),
    "moments": (_run_moments, _MOMENTS),
    "clt": (_run_clt, _CLT),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="autoconv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, options) in _COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="JSON file mirroring the flags")
        for key, (kind, _, meaning) in options.items():
            repeat = isinstance(kind, list)
            p.add_argument(
                f"--{key.replace('_', '-')}",
                dest=key,
                type=kind[0] if repeat else kind,
                action="append" if repeat else "store",
                help=meaning,
            )
    return parser


_TYPE_NAMES = {
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
}


def _typed(kind, value):
    """value as a flag of type kind would give it; ValueError if it would not.

    An int is taken for a float and an integral number for an int; bools
    are never numbers.
    """
    if kind is str and isinstance(value, str):
        return value
    if kind in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is float or isinstance(value, int) or value.is_integer():
            return kind(value)
    raise ValueError


def _config_value(key, kind, meaning, value):
    """A config file's value for key, with the type its flag would give it."""
    try:
        if not isinstance(kind, list):
            return _typed(kind, value)
        if isinstance(value, list) and value:
            return [_typed(kind[0], v) for v in value]
    except ValueError:
        pass
    want = (
        f"a non-empty list of {_TYPE_NAMES[kind[0]][1]}"
        if isinstance(kind, list)
        else _TYPE_NAMES[kind][0]
    )
    raise CliError(f"config key {key!r} ({meaning}) must be {want}, got {json.dumps(value)}")


def _resolve_config(args) -> dict:
    """Flags over config-file values over defaults; a null value is absent."""
    _, options = _COMMANDS[args.command]
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CliError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise CliError(
                f"config file {args.config} must hold a JSON object, "
                f"got {type(file_cfg).__name__}"
            )
        unknown = set(file_cfg) - set(options)
        if unknown:
            raise CliError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    cfg = {}
    for key, (kind, default, meaning) in options.items():
        value = file_cfg.get(key)
        value = default if value is None else _config_value(key, kind, meaning, value)
        flag = getattr(args, key)
        cfg[key] = value if flag is None else flag
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        out_dir = Path(cfg["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        run, _ = _COMMANDS[args.command]
        results, code = run(cfg, out_dir)
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
