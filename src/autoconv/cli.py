"""Command-line surface: machine-readable reports over the library.

Every subcommand writes <out-dir>/<command>_report.json holding a
deterministic "report" object (command, version, resolved config,
results), "diagnostics" (its "warnings" list the run's warnings as its
filters show them; none goes to stderr) and "timestamp", outside it so
identical configs reproduce it byte for byte; its config holds only
the keys the run read.  CSV artifacts carry the plot-ready series.  A
--config file holds a JSON object that may supply any flag; each value
must have the flag's type, and null means the key is absent.  Exit
codes: 0 success or verdict solution, 2 inequality violation, 1 usage
or numeric error (with a single-line {"error": ...} on stdout).  The
report is strict JSON: a non-finite number in it is such an error.  A
run that exits 1 writes no report and no artifact: runners only compute;
main writes their files once the report encodes and unlinks them if one
fails.  An unusable out-dir fails first: it is created before any work.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import itertools
import json
import sys
import time
import warnings
from pathlib import Path

from . import __version__
from . import analyze, clt, coeffs, construct, families, grids


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# name -> build(spec, **params): the parameter names after the grid spec
# are the config keys the function reads, and the only ones it echoes.
_FAMILIES = {
    "poisson": lambda spec, a, t: grids.sample(
        spec, families.poisson(families.PoissonParams(a, t))
    ),
    "poisson_margin": lambda spec, a, t: grids.sample(
        spec, families.poisson_inequality_margin(a, t)
    ),
    "sinc": lambda spec, a: grids.sample(
        spec, families.sinc_counterexample(families.SincParams(a))
    ),
    "heavy_tail": lambda spec: grids.sample(spec, families.heavy_tail_density()),
    "gaussian": lambda spec, sigma: grids.sample(spec, families.gaussian_density(sigma)),
    "reverse": families.reverse_example,
}
_RESIDUALS = {
    "gaussian": lambda spec, mass, sigma: grids.sample_with_mass(
        spec, families.gaussian_density(sigma), mass
    ),
    "bump": construct.bump_residual,
    "poisson_margin": _FAMILIES["poisson_margin"],
}


def _params(build) -> list[str]:
    """The config keys a builder reads: its parameters after the grid spec."""
    return list(inspect.signature(build).parameters)[1:]


def _grid_function(cfg) -> grids.GridFunction:
    """The grid file given by --input, else the named family or residual.

    A named function is built on the config's grid from the config keys
    its builder names as parameters.  A file sets the config's d, L and N
    to its own grid, so the report echoes what ran; naming a family or
    residual beside it is an error.  The config keeps only the parameter
    keys the function read: the builder's, none for a file.
    """
    source = "family" if "family" in cfg else "residual"
    table = _FAMILIES if source == "family" else _RESIDUALS
    path, name = cfg["input"], cfg[source]
    if path and name:
        raise CliError(f"--input and --{source} both name the function: give one of them")
    read = []
    if path:
        g = grids.from_json(path) if path.endswith(".json") else grids.from_csv(path)
        cfg.update(d=int(g.spec.dim), L=float(g.spec.extent), N=int(g.spec.points_per_axis))
    elif name in table:
        build = table[name]
        read = _params(build)
        for key, default in _DEFAULT_GRID.get(cfg["d"], {}).items():
            if cfg[key] is None:
                cfg[key] = default
        spec = grids.GridSpec(dim=cfg["d"], extent=cfg["L"], points_per_axis=cfg["N"])
        g = build(spec, **{key: cfg[key] for key in read})
    elif name:
        raise CliError(f"unknown {source} {name!r}")
    else:
        choices = " {" + ",".join(_RESIDUALS) + "}" if source == "residual" else ""
        raise CliError(f"provide either --input or --{source}{choices}")
    for key in {key for build in table.values() for key in _params(build)}.difference(read):
        del cfg[key]
    return g


# ----------------------------------------------------------------------
# subcommand runners: cfg -> (results dict, exit code, {file name: writer})
# main calls each writer(path) only once the report encodes, so a refused
# run leaves no artifact behind
# ----------------------------------------------------------------------


def _run_coeffs(cfg):
    table = coeffs.build_coeffs(cfg["n"])
    results = {
        "n_max": table.n_max,
        "first_values": [float(v) for v in table.values[:10]],
        "final_partial_sum": float(table.partial_sums[-1]),
        "tail_remainder": coeffs.remainder(table.n_max),
    }
    return results, 0, {"coeffs.csv": lambda path: coeffs.dump_csv(table, path)}


def _run_family(cfg):
    g = _grid_function(cfg)
    results = {
        "family": cfg["family"],
        "mass": grids.integrate(g),
        "min_value": float(g.values.min()),
        "max_value": float(g.values.max()),
    }
    return results, 0, {
        "family.csv": lambda path: grids.to_csv(g, path),
        "family.json": lambda path: grids.to_json(g, path),
    }


def _run_construct(cfg):
    method = cfg["method"]
    if method not in ("series", "spectral", "both"):
        raise CliError(f"unknown method {method!r}: use series, spectral or both")
    u = _grid_function(cfg)
    if method == "spectral":
        del cfg["epsilon"]  # read by the series route alone, so not echoed
    results: dict = {"residual_mass": grids.integrate(u)}
    writers = {}
    series_build = None
    if method in ("series", "both"):
        series_build = construct.build_series(u, epsilon=cfg["epsilon"])
        cfg["epsilon"] = series_build.epsilon  # the target that ran, default or given
        writers["construct_series.csv"] = lambda path: grids.to_csv(series_build.solution, path)
        results.update(
            ratio=series_build.ratio,
            n_terms=series_build.n_terms,
            tail_l1=series_build.tail_l1,
            clamped_l1=series_build.clamped_l1,
            escaped_l1=series_build.escaped_l1,
            tail_sup=series_build.tail_sup,
            series_mass=grids.integrate(series_build.solution),
        )
    if method in ("spectral", "both"):
        spectral = construct.build_spectral(u)
        writers["construct_spectral.csv"] = lambda path: grids.to_csv(spectral, path)
        results["spectral_mass"] = grids.integrate(spectral)
        if series_build is not None:
            results["crosscheck_l1"] = construct.crosscheck(series_build, spectral)
    return results, 0, writers


def _run_verify(cfg):
    f = _grid_function(cfg)
    residual = analyze.recovered_residual(f)
    report = analyze.scan_residual(f, residual, tolerance=cfg["tolerance"])
    header = [f"x{i + 1}" for i in range(f.spec.dim)] + ["f", "residual"]
    columns = [f.values, residual.values]
    writers = {
        "verify_residual.csv": lambda path: grids.write_csv(path, header, columns, spec=f.spec)
    }
    return dataclasses.asdict(report), 0 if report.verdict == "solution" else 2, writers


def _run_moments(cfg):
    f = _grid_function(cfg)
    reports = [analyze.moment_scan(f, p, levels=cfg["levels"]) for p in cfg["p"]]
    rows = [(rep.order, r, v) for rep in reports for r, v in zip(rep.radii, rep.values)]
    header = ["p", "radius", "truncated_moment"]
    writers = {"moments.csv": lambda path: grids.write_csv(path, header, zip(*rows))}
    return {"reports": [dataclasses.asdict(r) for r in reports]}, 0, writers


def _run_clt(cfg):
    outcomes = clt.run_experiments(
        cfg["kind"], cfg["R"], n_list=cfg["n"], mc_samples=cfg["samples"], seed=cfg["seed"]
    )
    rows = []
    for res in outcomes:  # without Monte Carlo draws, p_mc and mc_stderr are empty
        cells = (res.n_list, res.p_values, res.phi_values, res.mc_values, res.mc_stderr)
        rows += [(res.ball_radius, *row) for row in itertools.zip_longest(*cells, fillvalue="")]
    header = ["R", "n", "p_grid", "phi", "p_mc", "mc_stderr"]
    writers = {"clt.csv": lambda path: grids.write_csv(path, header, zip(*rows))}
    return {"experiments": [dataclasses.asdict(r) for r in outcomes]}, 0, writers


# Every command and option once: {command: (runner, {key: (type, default,
# meaning)})}.  A list type marks a repeatable flag, whose tuple default
# the given values replace (argparse never sees a default: "append" would
# extend it); a None default means the option is unset unless given.  The
# table drives the subcommands, flags, config-file keys and type checks.
_GRID = {
    "d": (int, 1, "dimension: 1, 2 or 3"),
    "L": (float, None, "grid window [-L, L) per axis (default 100, 40, 20 in d = 1, 2, 3)"),
    "N": (int, None, "points per axis, a power of two (default 16384, 256, 64 in d = 1, 2, 3)"),
}
# 16384 points per axis are 2 GiB an array in d = 2, and L = 100 in d = 3 would space
# the nodes 3.125 apart, wider than every family's scale.
_DEFAULT_GRID = {1: {"L": 100.0, "N": 16384}, 2: {"L": 40.0, "N": 256}, 3: {"L": 20.0, "N": 64}}
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


# flag type -> (name, plural, whether a config value has that type): an
# int is taken for a number and an integral number for an integer, an int
# without float(), so a huge one reaches the library's own check.
_CONFIG_TYPES = {
    float: ("a number", "numbers", grids.is_number),
    int: (
        "an integer",
        "integers",
        lambda v: grids.is_number(v) and (type(v) is int or v.is_integer()),
    ),
    str: ("a string", "strings", lambda v: isinstance(v, str)),
}


def _config_value(key, kind, meaning, value):
    """A config file's value for key, with the type its flag would give it."""
    repeat = isinstance(kind, list)
    each = kind[0] if repeat else kind
    name, plural, typed = _CONFIG_TYPES[each]
    want = f"a non-empty list of {plural}" if repeat else name
    try:
        if not repeat and typed(value):
            return each(value)
        if repeat and isinstance(value, list) and value and all(map(typed, value)):
            return [each(v) for v in value]
    except OverflowError:  # a JSON integer beyond the float range
        want += " within the float range"
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
        # The run's filters decide, so "error" still raises.  The context is process-wide
        # before Python 3.14; the only other threads, clt's Monte Carlo workers, warn of nothing.
        with warnings.catch_warnings(record=True) as caught:
            results, code, writers = run(cfg)
        report = {
            "command": args.command,
            "version": __version__,
            "config": cfg,
            "results": results,
        }
        warned = [str(w.message) for w in caught]
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        doc = {"report": report, "diagnostics": {"warnings": warned}, "timestamp": stamp}
        text = json.dumps(doc, indent=2, allow_nan=False)
        writers[f"{args.command}_report.json"] = lambda path: path.write_text(text + "\n")
        written = []  # this run's files, the last one perhaps partial
        try:
            for name, write in writers.items():
                written.append(out_dir / name)
                write(written[-1])
        except BaseException:
            for path in written:
                if path.is_file():  # not a directory in a file's place
                    path.unlink()
            raise
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
