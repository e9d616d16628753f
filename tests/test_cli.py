import functools
import inspect
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import autoconv
from autoconv import analyze, cli, clt, coeffs, construct, families, grids
from autoconv.cli import main
from oracles import write_rows_per_cell


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def strict_loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_no_constant)


def read_report(out_dir, command):
    return strict_loads((out_dir / f"{command}_report.json").read_text())


def test_verify_poisson_solution(tmp_path, capsys):
    code = main(
        [
            "verify", "--family", "poisson", "--a", "0.5", "--t", "1",
            "--L", "100", "--N", "16384", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    doc = read_report(tmp_path, "verify")
    results = doc["report"]["results"]
    assert results["verdict"] == "solution"
    assert abs(results["solution_mass"] - 0.5) <= 0.01
    assert (tmp_path / "verify_residual.csv").exists()
    # stdout carries the same document
    printed = strict_loads(capsys.readouterr().out)
    assert printed["report"] == doc["report"]


def test_verify_poisson_violation_exit_code(tmp_path):
    code = main(
        [
            "verify", "--family", "poisson", "--a", "0.6", "--t", "1",
            "--L", "100", "--N", "16384", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 2


def test_coeffs_csv(tmp_path):
    assert main(["coeffs", "--n", "4", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "coeffs.csv").read_text().strip().splitlines()
    assert len(lines) == 5
    assert float(lines[-1].split(",")[1]) == 5.0 / 128.0


def test_coeffs_tail_remainder_is_exact(tmp_path):
    # 1 - S_1000 = C(2000, 1000) / 4^1000; 1 - partial_sums[-1] read ...429
    assert main(["coeffs", "--n", "1000", "--out-dir", str(tmp_path)]) == 0
    results = read_report(tmp_path, "coeffs")["report"]["results"]
    assert results["tail_remainder"] == float(Fraction(math.comb(2000, 1000), 4**1000))
    assert results["tail_remainder"] == 0.01783901114585432


def test_construct_both_methods(tmp_path):
    code = main(
        [
            "construct", "--residual", "gaussian", "--mass", "0.1875",
            "--L", "40", "--N", "4096", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    results = read_report(tmp_path, "construct")["report"]["results"]
    assert abs(results["series_mass"] - 0.25) <= 1e-3
    assert abs(results["spectral_mass"] - 0.25) <= 1e-3
    assert results["crosscheck_l1"] <= results["tail_l1"] + 1e-3
    assert (tmp_path / "construct_series.csv").exists()
    assert (tmp_path / "construct_spectral.csv").exists()


def test_construct_echoes_the_epsilon_that_ran_and_the_clamped_mass(tmp_path):
    argv = [
        "construct", "--residual", "gaussian", "--mass", "0.25", "--sigma", "1.5",
        "--L", "40", "--N", "1024", "--method", "series", "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    report = read_report(tmp_path, "construct")["report"]
    # no --epsilon given: the critical default, default_epsilon(1.0)
    assert report["config"]["epsilon"] == 0.01
    assert 0.0 <= report["results"]["clamped_l1"] < 1e-12


def test_construct_from_file_round_trip(tmp_path):
    assert (
        main(
            [
                "family", "--family", "poisson", "--a", "0.4", "--t", "1",
                "--L", "100", "--N", "8192", "--out-dir", str(tmp_path),
            ]
        )
        == 0
    )
    for source in ("family.csv", "family.json"):
        code = main(
            [
                "verify", "--input", str(tmp_path / source),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        results = read_report(tmp_path, "verify")["report"]["results"]
        assert results["verdict"] == "solution"


def test_construct_input_inside_mass_tolerance_builds_both_routes(tmp_path, capsys):
    spec = grids.GridSpec(dim=1, extent=40.0, points_per_axis=1024)
    u = grids.sample_with_mass(spec, families.gaussian_density(), 0.25 * (1.0 + 1e-7))
    grids.to_csv(u, tmp_path / "u.csv")
    code = main(
        [
            "construct", "--input", str(tmp_path / "u.csv"), "--method", "both",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0, capsys.readouterr().out
    results = read_report(tmp_path, "construct")["report"]["results"]
    assert abs(results["spectral_mass"] - 0.5) <= 1e-8
    assert (tmp_path / "construct_series.csv").exists()
    assert (tmp_path / "construct_spectral.csv").exists()


def _poisson_file(tmp_path):
    argv = [
        "family", "--family", "poisson", "--L", "100", "--N", "1024",
        "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    return str(tmp_path / "family.csv")


def test_input_sets_the_echoed_grid(tmp_path):
    path = _poisson_file(tmp_path)
    argv = ["verify", "--input", path, "--N", "64", "--L", "3", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    cfg = read_report(tmp_path, "verify")["report"]["config"]
    assert (cfg["d"], cfg["L"], cfg["N"]) == (1, 100.0, 1024)


@pytest.mark.parametrize("dim,n", [(2, 256), (3, 64)])
def test_default_points_per_axis_follow_the_dimension(tmp_path, dim, n):
    # at the line's 16384 points per axis one d = 2 array would take 2 GiB
    argv = ["family", "--family", "poisson", "--d", str(dim), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert read_report(tmp_path, "family")["report"]["config"]["N"] == n


@pytest.mark.parametrize(
    "command,flag,name",
    [
        ("family", "--family", "sinc"),
        ("verify", "--family", "sinc"),
        ("moments", "--family", "sinc"),
        ("construct", "--residual", "bump"),
    ],
)
def test_input_with_family_rejected(tmp_path, capsys, command, flag, name):
    path = _poisson_file(tmp_path)
    capsys.readouterr()
    argv = [command, "--input", path, flag, name, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert flag in strict_loads(out)["error"]
    assert not list((tmp_path / "out").glob("*.csv"))


def test_moments_growing(tmp_path):
    code = main(
        [
            "moments", "--family", "poisson", "--a", "0.5", "--t", "1",
            "--L", "640", "--N", "65536", "--p", "1.0", "--p", "0.5",
            "--levels", "5", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    results = read_report(tmp_path, "moments")["report"]["results"]
    by_order = {r["order"]: r["classification"] for r in results["reports"]}
    assert by_order == {1.0: "growing", 0.5: "saturating"}
    assert (tmp_path / "moments.csv").exists()


def test_clt_experiment(tmp_path):
    code = main(
        [
            "clt", "--kind", "finite_variance", "--n", "4", "--n", "16",
            "--samples", "2000", "--seed", "3", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    results = read_report(tmp_path, "clt")["report"]["results"]
    assert len(results["experiments"]) == 1
    rows = (tmp_path / "clt.csv").read_text().strip().splitlines()
    assert rows[0] == "R,n,p_grid,phi,p_mc,mc_stderr"
    assert len(rows) == 3


def test_clt_non_square_n_at_default_grid(tmp_path):
    code = main(
        [
            "clt", "--kind", "finite_variance", "--n", "5", "--n", "10",
            "--samples", "2000", "--seed", "0", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    header, *rows = (tmp_path / "clt.csv").read_text().strip().splitlines()
    assert header == "R,n,p_grid,phi,p_mc,mc_stderr"
    assert [row.split(",")[1] for row in rows] == ["5", "10"]
    for row in rows:
        _, _, p_grid, _, p_mc, stderr = (float(v) for v in row.split(","))
        assert abs(p_grid - p_mc) <= 5.0 * stderr


def test_clt_negative_samples_rejected(tmp_path, capsys):
    code = main(
        ["clt", "--kind", "finite_variance", "--samples", "-3", "--out-dir", str(tmp_path)]
    )
    assert code == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert "mc_samples" in strict_loads(out)["error"]
    assert not (tmp_path / "clt.csv").exists()


@pytest.mark.parametrize(
    "argv, seed", [(["--seed=-1"], -1), (["--seed", "-5", "--samples", "0"], -5)]
)
def test_clt_negative_seed_rejected(tmp_path, capsys, argv, seed):
    code = main(["clt", "--kind", "finite_variance", *argv, "--out-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert strict_loads(out)["error"] == (
        f"ValueError: seed must be None or a nonnegative integer, got {seed}"
    )
    assert list(tmp_path.iterdir()) == []


def test_clt_density_once_per_n(tmp_path, monkeypatch):
    seen = []
    original = clt.rescaled_density

    def counting(w, n):
        seen.append(n)
        return original(w, n)

    monkeypatch.setattr(clt, "rescaled_density", counting)
    code = main(
        [
            "clt", "--kind", "infinite_variance", "--R", "1", "--R", "2", "--n", "4",
            "--n", "16", "--samples", "0", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    assert seen == [4, 16]
    _, *rows = (tmp_path / "clt.csv").read_text().strip().splitlines()
    assert [tuple(row.split(",")[:2]) for row in rows] == [
        ("1", "4"), ("1", "16"), ("2", "4"), ("2", "16")
    ]


@pytest.mark.parametrize("radius", ["-1", "0", "nan", "inf"])
def test_clt_bad_radius_rejected(tmp_path, capsys, radius):
    code = main(
        [
            "clt", "--kind", "finite_variance", "--R", "1", "--R", radius,
            "--samples", "0", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert "radii" in strict_loads(out)["error"]
    assert not (tmp_path / "clt.csv").exists()


def test_clt_empty_radius_list_in_config_rejected(tmp_path, capsys):
    config = tmp_path / "clt.json"
    config.write_text(json.dumps({"kind": "finite_variance", "R": [], "samples": 0}))
    code = main(["clt", "--config", str(config), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "radii" in strict_loads(capsys.readouterr().out)["error"]


def test_json_grid_file_count_mismatch_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"dim": 1, "extent": 4.0, "points_per_axis": 8, "values": [0.1, 0.2, 0.3]})
    )
    code = main(["verify", "--input", str(bad), "--out-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert "needs 8 values, the file holds 3" in strict_loads(out)["error"]


@pytest.mark.parametrize(
    "name,text,problem",
    [
        (
            "bad.csv",
            "x1,value\n" + "".join(f"{x},0.05\n" for x in (-4, -3, -2, -1, 0, 2, 1, 3)),
            "data row 6",
        ),
        ("bad.csv", "x1,value\n", "no data rows"),
        ("bad.csv", "value\n0.1\n0.2\n", "no coordinate column"),
        ("bad.csv", "x1,x2,value\n" + "0,0,0.1\n" * 10, "row count 10 is not a 2-dim grid"),
        ("bad.json", "[0.1, 0.2]", "holds a JSON list, not a grid object"),
        ("bad.json", '{"dim": 1, "extent": 4.0, "values": [0.1]}', "lacks points_per_axis"),
    ],
    ids=[
        "scrambled_rows",
        "header_only",
        "value_column_only",
        "row_count",
        "json_list",
        "json_missing_key",
    ],
)
@pytest.mark.filterwarnings("error")
def test_malformed_grid_file_rejected(tmp_path, capsys, name, text, problem):
    bad = tmp_path / name
    bad.write_text(text)
    code = main(["verify", "--input", str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert problem in strict_loads(out)["error"]
    assert not list((tmp_path / "out").glob("*.csv"))


def test_determinism_and_config_echo(tmp_path):
    argv = [
        "construct", "--residual", "bump", "--mass", "0.125",
        "--L", "24", "--N", "2048", "--out-dir", str(tmp_path),
    ]
    docs = []
    for _ in range(2):
        assert main(argv) == 0
        docs.append(read_report(tmp_path, "construct"))
    # identical config reproduces the report byte for byte; only the
    # timestamp field outside it may differ
    assert json.dumps(docs[0]["report"]) == json.dumps(docs[1]["report"])
    cfg = docs[0]["report"]["config"]
    assert cfg["mass"] == 0.125
    assert cfg["L"] == 24.0
    assert docs[0]["report"]["version"]


def test_list_defaults_are_echoed(tmp_path):
    argv = ["clt", "--kind", "finite_variance", "--samples", "0", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    report = read_report(tmp_path, "clt")["report"]
    assert (report["config"]["R"], report["config"]["n"]) == ([1.0], [4, 16, 64, 256])
    ran = report["results"]["experiments"]
    assert [(r["ball_radius"], r["n_list"]) for r in ran] == [(1.0, [4, 16, 64, 256])]
    # a given value replaces the default list instead of joining it
    assert main([*argv, "--R", "2", "--n", "4"]) == 0
    config = read_report(tmp_path, "clt")["report"]["config"]
    assert (config["R"], config["n"]) == ([2.0], [4])
    argv = ["moments", "--family", "poisson", "--N", "1024", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    report = read_report(tmp_path, "moments")["report"]
    assert report["config"]["p"] == [1.0]
    assert [r["order"] for r in report["results"]["reports"]] == [1.0]


_FAMILY_KEYS = {"a", "t", "sigma", "delta"}
_RESIDUAL_KEYS = {"mass", "sigma", "profile", "a", "t"}


@pytest.mark.parametrize(
    "table,commands",
    [(cli._FAMILIES, ("family", "verify", "moments")), (cli._RESIDUALS, ("construct",))],
)
def test_builders_name_option_keys(table, commands):
    # _grid_function passes each builder the grid spec and, by name, the
    # config keys after it: a key no command offers would fail at run time
    for name, build in table.items():
        spec, *params = inspect.signature(build).parameters.values()
        assert spec.name == "spec", name
        for param in params:
            assert param.kind is param.POSITIONAL_OR_KEYWORD, (name, param.name)
            assert param.name not in {*cli._GRID, "input", "family", "residual"}, name
            for command in commands:
                _, options = cli._COMMANDS[command]
                assert param.name in options, (name, param.name, command)


@pytest.mark.parametrize(
    "argv,read",
    [
        (["family", "--family", "sinc"], {"a"}),
        (["family", "--family", "reverse", "--a", "2"], {"a", "delta"}),
        (["verify", "--family", "poisson"], {"a", "t"}),
        (["moments", "--family", "heavy_tail"], set()),
        (["moments", "--family", "gaussian", "--sigma", "2"], {"sigma"}),
        (["construct", "--residual", "gaussian", "--method", "both"], {"mass", "sigma", "epsilon"}),
        (["construct", "--residual", "bump", "--method", "series"], {"mass", "profile", "epsilon"}),
        (["construct", "--residual", "poisson_margin", "--method", "spectral"], {"a", "t"}),
    ],
)
def test_config_echoes_only_the_parameters_read(tmp_path, argv, read):
    assert main([*argv, "--L", "40", "--N", "1024", "--out-dir", str(tmp_path)]) == 0
    config = read_report(tmp_path, argv[0])["report"]["config"]
    parameters = (_RESIDUAL_KEYS | {"epsilon"}) if argv[0] == "construct" else _FAMILY_KEYS
    assert parameters & set(config) == read


def test_input_echoes_no_function_parameters(tmp_path):
    path = _poisson_file(tmp_path)
    assert main(["verify", "--input", path, "--out-dir", str(tmp_path)]) == 0
    assert not _FAMILY_KEYS & set(read_report(tmp_path, "verify")["report"]["config"])
    argv = ["family", "--family", "poisson_margin", "--N", "1024", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    path = str(tmp_path / "family.csv")
    for method, echoed in (("series", {"epsilon"}), ("spectral", set())):
        argv = ["construct", "--input", path, "--method", method, "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        config = read_report(tmp_path, "construct")["report"]["config"]
        assert (_RESIDUAL_KEYS | {"epsilon"}) & set(config) == echoed


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 10}))
    assert (
        main(["coeffs", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    )
    assert read_report(tmp_path, "coeffs")["report"]["config"]["n"] == 10
    assert (
        main(
            [
                "coeffs", "--config", str(config), "--n", "6",
                "--out-dir", str(tmp_path),
            ]
        )
        == 0
    )
    assert read_report(tmp_path, "coeffs")["report"]["config"]["n"] == 6


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"frequency": 2}))
    code = main(["coeffs", "--config", str(config), "--out-dir", str(tmp_path)])
    assert code == 1
    err = strict_loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "frequency" in err["error"]


@pytest.mark.parametrize(
    "text,message",
    [
        ("[]", "must hold a JSON object"),
        ("5", "must hold a JSON object"),
        ('"abc"', "must hold a JSON object"),
        ("{bad", "is not valid JSON"),
    ],
)
def test_config_file_must_hold_a_json_object(tmp_path, capsys, text, message):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    code = main(["coeffs", "--config", str(config), "--out-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    error = strict_loads(out)["error"]
    assert f"config file {config} {message}" in error
    assert not list(tmp_path.glob("*.csv"))


def test_numeric_error_is_single_line_json(tmp_path, capsys):
    code = main(
        [
            "construct", "--residual", "gaussian", "--mass", "0.3",
            "--L", "40", "--N", "1024", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert "1/4" in strict_loads(out)["error"]


# a critical-mass series whose window drops more than epsilon of its L1 mass
_WINDOW_WARNING = [
    "construct", "--residual", "gaussian", "--mass", "0.25", "--sigma", "1.5",
    "--L", "20", "--N", "1024", "--method", "series", "--epsilon", "1e-3",
]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["clt", "--kind", "finite_variance", "--n", "1", "--n", "2", "--n", "3",
             "--samples", "0"],
            "negative values down to",
        ),
        (_WINDOW_WARNING, "widen the window"),
        (["coeffs", "--n", "10"], None),
    ],
)
def test_run_warnings_are_recorded_outside_the_report(tmp_path, recwarn, argv, message):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    doc = read_report(tmp_path, argv[0])
    assert list(doc) == ["report", "diagnostics", "timestamp"]
    caught = doc["diagnostics"]["warnings"]
    assert [message in w for w in caught] == ([] if message is None else [True])
    assert not recwarn.list  # none escapes main, so none reaches stderr
    for experiment in doc["report"]["results"].get("experiments", []):
        assert "notes" not in experiment


@pytest.mark.filterwarnings("error")
def test_warning_filters_of_the_run_still_apply(tmp_path, capsys):
    assert main([*_WINDOW_WARNING, "--out-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert "widen the window" in strict_loads(out)["error"]
    assert list(tmp_path.iterdir()) == []


def test_non_finite_result_is_an_error_not_infinity(tmp_path, capsys):
    # the Riemann sum of a 1e308-scaled kernel overflows to inf
    argv = ["family", "--family", "poisson", "--a", "1e308", "--N", "1024"]
    assert main([*argv, "--out-dir", str(tmp_path / "a")]) == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert "error" in strict_loads(out)
    # the out-dir is made before any work, and a refused run leaves it empty
    assert not list((tmp_path / "a").iterdir())
    # with numpy's overflow warning silenced the encoder itself refuses inf
    with np.errstate(over="ignore"):
        assert main([*argv, "--out-dir", str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert "not JSON compliant" in strict_loads(out)["error"]
    assert not list((tmp_path / "b").iterdir())


def test_construct_failing_spectral_route_writes_no_series_csv(tmp_path, capsys, monkeypatch):
    def broken(u):
        raise RuntimeError("spectral route failed")

    monkeypatch.setattr(construct, "build_spectral", broken)
    out_dir = tmp_path / "out"
    argv = [
        "construct", "--residual", "gaussian", "--L", "40", "--N", "512",
        "--method", "both", "--out-dir", str(out_dir),
    ]
    assert main(argv) == 1
    assert "spectral route failed" in strict_loads(capsys.readouterr().out)["error"]
    assert not list(out_dir.iterdir())


def test_writer_failure_unlinks_the_tables_already_written(tmp_path, capsys):
    # construct writes construct_series.csv, then fails to open a directory in
    # construct_spectral.csv's place, which it leaves alone
    out_dir = tmp_path / "out"
    (out_dir / "construct_spectral.csv").mkdir(parents=True)
    argv = ["construct", "--residual", "gaussian", "--L", "40", "--N", "1024"]
    assert main([*argv, "--out-dir", str(out_dir)]) == 1
    assert "IsADirectoryError" in strict_loads(capsys.readouterr().out)["error"]
    assert [path.name for path in out_dir.iterdir()] == ["construct_spectral.csv"]
    assert not list((out_dir / "construct_spectral.csv").iterdir())


def test_block_error_unlinks_the_partial_table(tmp_path, capsys, monkeypatch):
    # 100,000 rows are 7 blocks; the third fails after the first two reach the file
    real = grids._format_block

    def failing(cols, axes, bounds):
        if bounds[0] == 2 * grids.CSV_CHUNK_ROWS:
            raise ArithmeticError("block 3 failed")
        return real(cols, axes, bounds)

    monkeypatch.setattr(grids, "_format_block", failing)
    out_dir = tmp_path / "out"
    assert main(["coeffs", "--n", "100000", "--out-dir", str(out_dir)]) == 1
    assert "block 3 failed" in strict_loads(capsys.readouterr().out)["error"]
    assert not list(out_dir.iterdir())


@pytest.mark.parametrize(
    "table,name,argv",
    [
        (cli._FAMILIES, "poisson", ["family", "--family", "poisson"]),
        (cli._RESIDUALS, "gaussian", ["construct", "--residual", "gaussian"]),
    ],
)
def test_out_dir_that_is_a_file_fails_before_any_builder(
    tmp_path, capsys, monkeypatch, table, name, argv
):
    calls = []
    build = table[name]

    @functools.wraps(build)  # keeps the signature the config keys are read from
    def spy(spec, **params):
        calls.append(spec)
        return build(spec, **params)

    monkeypatch.setitem(table, name, spy)
    argv = [*argv, "--L", "40", "--N", "512", "--out-dir"]
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([*argv, str(taken)]) == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert str(taken) in strict_loads(out)["error"]
    assert calls == []
    assert taken.read_text() == ""
    # the same run into a directory does reach the builder
    assert main([*argv, str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_missing_input_errors(tmp_path):
    assert main(["verify", "--input", "/nonexistent.csv", "--out-dir", str(tmp_path)]) == 1


def test_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in strict_loads(capsys.readouterr().out)


@pytest.mark.parametrize("chunk", [7, grids.CSV_CHUNK_ROWS])
def test_writer_matches_per_cell_writer_on_mixed_columns(tmp_path, monkeypatch, chunk):
    # signed zero, the smallest subnormal, huge values, both sides of
    # %.17g's switches between fixed and exponent form, a 17-digit half-even
    # tie, the largest and smallest normal doubles, inf and NaN
    awkward = [-0.0, 5e-324, 1e300, 1e-5, 1e-4, 1e16, 1e17, 0.1, -2.5, 1.0, 0.0, 2**-25,
               float(np.nextafter(1e17, 0)), 1.7976931348623157e308, 2.2250738585072014e-308,
               math.inf, -math.inf, math.nan]
    monkeypatch.setattr(grids, "CSV_CHUNK_ROWS", chunk)
    rows = 2 * len(awkward)
    columns = [
        np.arange(rows) + 2**53 - 3,  # int64 past float64's exact integers
        [2**70 + i for i in range(rows)],  # Python ints past int64
        np.resize(np.array(awkward), rows),
        [""] * rows,
        [float(v) for v in np.resize(np.array(awkward[::-1]), rows)],
        np.resize(np.array([-(2**63), 2**63 - 1, -1], dtype=np.int64), rows),
        np.resize(np.array([2**64 - 1, 0], dtype=np.uint64), rows),
        np.arange(rows) % 3 == 0,
    ]
    header = ["i", "big", "x", "blank", "y", "extreme", "unsigned", "flag"]
    grids.write_csv(tmp_path / "new.csv", header, columns)
    write_rows_per_cell(tmp_path / "old.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("d,L,N", [(1, "100", "1024"), (3, "5", "16")])
def test_verify_csv_matches_per_cell_writer(tmp_path, d, L, N):
    code = main(
        [
            "verify", "--family", "poisson", "--a", "0.5", "--t", "0.9", "--d", str(d),
            "--L", L, "--N", N, "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    spec = grids.GridSpec(dim=d, extent=float(L), points_per_axis=int(N))
    f = grids.sample(spec, families.poisson(families.PoissonParams(a=0.5, t=0.9)))
    residual = analyze.recovered_residual(f)
    rows = zip(
        *([grid.ravel() for grid in spec.node_grids()] + [f.values.ravel(), residual.values.ravel()])
    )
    header = [f"x{i + 1}" for i in range(d)] + ["f", "residual"]
    write_rows_per_cell(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "verify_residual.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_moments_csv_matches_per_cell_writer(tmp_path):
    code = main(
        [
            "moments", "--family", "poisson", "--a", "0.5", "--t", "1", "--L", "640",
            "--N", "4096", "--p", "1", "--p", "0.5", "--levels", "4", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    spec = grids.GridSpec(dim=1, extent=640.0, points_per_axis=4096)
    f = grids.sample(spec, families.poisson(families.PoissonParams(a=0.5, t=1.0)))
    rows = []
    for p in (1.0, 0.5):
        rep = analyze.moment_scan(f, p, levels=4)
        rows += [(rep.order, r, v) for r, v in zip(rep.radii, rep.values)]
    write_rows_per_cell(tmp_path / "old.csv", ["p", "radius", "truncated_moment"], rows)
    assert (tmp_path / "moments.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_clt_csv_without_samples_matches_per_cell_writer(tmp_path, monkeypatch):
    outcomes = []
    original = clt.run_experiments

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        outcomes.extend(result)
        return result

    monkeypatch.setattr(clt, "run_experiments", recording)
    code = main(
        [
            "clt", "--kind", "infinite_variance", "--R", "1", "--R", "2", "--n", "4",
            "--n", "16", "--samples", "0", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    rows = [
        (res.ball_radius, n, res.p_values[i], res.phi_values[i], "", "")
        for res in outcomes
        for i, n in enumerate(res.n_list)
    ]
    header = ["R", "n", "p_grid", "phi", "p_mc", "mc_stderr"]
    write_rows_per_cell(tmp_path / "old.csv", header, rows)
    new = (tmp_path / "clt.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.splitlines()[1].endswith(b",,")


@pytest.mark.parametrize(
    "command,config,key",
    [
        ("clt", {"kind": "finite_variance", "n": [], "samples": 0}, "n"),
        ("clt", {"kind": "finite_variance", "n": 4, "samples": 0}, "n"),
        ("clt", {"kind": "finite_variance", "n": ["4"], "samples": 0}, "n"),
        ("clt", {"kind": "finite_variance", "R": 2, "samples": 0}, "R"),
        ("clt", {"kind": "finite_variance", "R": [1, True], "samples": 0}, "R"),
        ("moments", {"family": "poisson", "L": 640, "N": 4096, "p": []}, "p"),
        ("moments", {"family": "poisson", "L": 640, "N": 4096, "p": 2}, "p"),
        ("verify", {"family": "poisson", "N": 64.5}, "N"),
        ("clt", {"kind": "finite_variance", "n": [4.5], "samples": 0}, "n"),
        ("clt", {"kind": "finite_variance", "n": [4], "samples": 10.7}, "samples"),
        ("coeffs", {"n": 12.9}, "n"),
        ("moments", {"family": "poisson", "L": 640, "N": 4096, "levels": 4.9}, "levels"),
        ("construct", {"residual": "gaussian", "L": "40", "N": 512}, "L"),
        ("clt", {"kind": "finite_variance", "n": [4], "samples": 0, "seed": 1.5}, "seed"),
        ("clt", {"kind": "finite_variance", "n": [4], "samples": True}, "samples"),
        ("verify", {"family": "poisson", "L": 10**400}, "L"),
        ("clt", {"kind": "finite_variance", "R": [10**400], "samples": 0}, "R"),
    ],
)
def test_list_keys_in_config_must_be_non_empty_number_lists(
    tmp_path, capsys, command, config, key
):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert f"config key {key!r}" in strict_loads(out)["error"]
    assert not list(tmp_path.glob("*.csv"))


def test_null_seed_in_config_runs_at_seed_zero(tmp_path):
    config = tmp_path / "clt.json"
    config.write_text(
        json.dumps({"kind": "finite_variance", "n": [4], "samples": 500, "seed": None})
    )
    flags = ["--kind", "finite_variance", "--n", "4", "--samples", "500", "--seed", "0"]
    reports = []
    for argv in (["--config", str(config)], ["--config", str(config)], flags):
        assert main(["clt", *argv, "--out-dir", str(tmp_path)]) == 0
        reports.append(json.dumps(read_report(tmp_path, "clt")["report"]))
    assert json.loads(reports[0])["config"]["seed"] == 0
    assert reports[0] == reports[1] == reports[2]


def test_config_value_and_flag_give_the_same_report(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"residual": "bump", "mass": 0.125, "L": 24, "N": 2048}))
    outputs = []
    for argv in (
        ["--config", str(config)],
        ["--residual", "bump", "--mass", "0.125", "--L", "24", "--N", "2048"],
    ):
        assert main(["construct", *argv, "--out-dir", str(tmp_path)]) == 0
        outputs.append(
            (
                json.dumps(read_report(tmp_path, "construct")["report"]),
                (tmp_path / "construct_series.csv").read_bytes(),
                (tmp_path / "construct_spectral.csv").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0])["config"]["L"] == 24.0


def test_integral_config_number_runs_as_an_integer_flag(tmp_path, capsys):
    """A config "N": 64.0 runs as --N 64; an integer too big for a float reaches the library."""
    config = tmp_path / "cfg.json"
    argv = ["verify", "--family", "poisson", "--a", "0.5", "--L", "20"]
    runs = []
    for extra in (["--config", str(config)], ["--N", "64"]):
        config.write_text(json.dumps({"N": 64.0}))
        code = main([*argv, *extra, "--out-dir", str(tmp_path)])
        report = read_report(tmp_path, "verify")["report"]
        del report["config"]["out_dir"]
        runs.append((code, json.dumps(report)))
    assert runs[0] == runs[1]
    capsys.readouterr()
    config.write_text(json.dumps({"N": 10**400}))
    assert main([*argv, "--config", str(config), "--out-dir", str(tmp_path / "big")]) == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert "points_per_axis" in strict_loads(out)["error"]


def test_unknown_construct_method_rejected(tmp_path, capsys):
    code = main(
        [
            "construct", "--residual", "gaussian", "--L", "40", "--N", "512",
            "--method", "bogus", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert "bogus" in strict_loads(out)["error"]
    assert not list(tmp_path.glob("*"))


_SPEC = grids.GridSpec(dim=1, extent=16.0, points_per_axis=256)


def _residual(mass):
    return grids.sample_with_mass(_SPEC, families.gaussian_density(), mass)


def _grid_header_file(tmp_path, **header):
    doc = {"dim": 1, "extent": 4.0, "points_per_axis": 8, "values": [0.1] * 8, **header}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "argv,name",
    [
        (["moments", "--family", "poisson", "--p", "nan", "--N", "1024"], "order"),
        (["moments", "--family", "poisson", "--p", "inf", "--N", "1024"], "order"),
        (
            ["verify", "--family", "poisson", "--a", "0.6", "--N", "1024", "--tolerance", "inf"],
            "tolerance",
        ),
        (["family", "--family", "gaussian", "--sigma", "inf"], "sigma"),
        (["family", "--family", "reverse", "--a", "2", "--delta", "nan"], "delta"),
        (["verify", "--family", "poisson", "--L", "inf", "--N", "1024"], "extent"),
        (["verify", "--input", {"points_per_axis": 16.0}], "points_per_axis"),
        (["verify", "--input", {"dim": True}], "dim"),
        (
            ["construct", "--residual", "gaussian", "--L", "40", "--N", "512",
             "--epsilon", "inf", "--method", "series"],
            "epsilon must be finite",
        ),
        (["construct", "--residual", "gaussian", "--mass", "nan"], "mass must be finite"),
        (["construct", "--residual", "bump", "--mass", "inf"], "mass must be finite"),
        (["verify", "--family", "poisson", "--a", "inf", "--N", "1024"], "a must be finite"),
        (["verify", "--family", "poisson", "--t", "nan", "--N", "1024"], "t must be finite"),
        (["family", "--family", "sinc", "--a", "inf"], "a must be finite"),
        (["family", "--family", "bogus"], "unknown family 'bogus'"),
        (["verify"], "provide either --input or --family"),
        (["construct"], "provide either --input or --residual {gaussian,bump,poisson_margin}"),
        (["family", "--input", {"values": [0.1] * 7 + [True]}], "values[7] must be a number"),
        (["family", "--input", {"values": ["0.1"] * 8}], "values[0] must be a number"),
        (["family", "--input", {"values": [[0.1] * 4] * 2}], "values[0] must be a number"),
        (["family", "--input", {"values": "0.1"}], "values must be a list of numbers"),
        (["family", "--input", {"extent": "4.0"}], "extent must be finite"),
    ],
)
def test_non_finite_or_mistyped_parameter_rejected(tmp_path, capsys, argv, name):
    argv = [_grid_header_file(tmp_path, **a) if isinstance(a, dict) else a for a in argv]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert name in strict_loads(out)["error"]
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: construct.build_series(_residual(0.1), epsilon=math.inf), "epsilon"),
        (lambda: construct.build_series(_residual(0.1), epsilon=math.nan), "epsilon"),
        (lambda: construct.bump_residual(_SPEC, math.nan), "mass"),
        (lambda: construct.bump_residual(_SPEC, math.inf), "mass"),
        (lambda: families.PoissonParams(a=math.inf, t=1.0), "a"),
        (lambda: families.PoissonParams(a=0.5, t=math.nan), "t"),
        (lambda: families.SincParams(a=math.inf), "a"),
        (lambda: families.SincParams(a=math.nan), "a"),
        (lambda: clt.ball_mass(_residual(1.0), -1.0), "radius"),
    ],
)
def test_non_finite_parameter_rejected_by_library(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


_NOT_NUMBERS = (True, "1.0", math.nan, math.inf)
_NOT_COUNTS = (True, "4", 2.5)
_COEFFS = coeffs.build_coeffs(20)
# (entry point, parameter name, call with the parameter set to a value, bad values)
_CHECKED_PARAMETERS = [
    ("GridSpec", "dim", lambda v: grids.GridSpec(v, 1.0, 8), _NOT_COUNTS),
    ("GridSpec", "extent", lambda v: grids.GridSpec(1, v, 8), _NOT_NUMBERS),
    ("GridSpec", "points_per_axis", lambda v: grids.GridSpec(1, 1.0, v), _NOT_COUNTS),
    ("restrict", "extent", lambda v: grids.restrict(_residual(0.1), v), _NOT_NUMBERS),
    (
        "sample_with_mass",
        "mass",
        lambda v: grids.sample_with_mass(_SPEC, families.gaussian_density(), v),
        _NOT_NUMBERS,
    ),
    ("moment", "order", lambda v: grids.moment(_residual(0.1), v), _NOT_NUMBERS),
    ("PoissonParams", "a", lambda v: families.PoissonParams(a=v, t=1.0), _NOT_NUMBERS),
    ("PoissonParams", "t", lambda v: families.PoissonParams(a=0.5, t=v), _NOT_NUMBERS),
    ("SincParams", "a", lambda v: families.SincParams(a=v), _NOT_NUMBERS),
    ("gaussian_density", "sigma", families.gaussian_density, _NOT_NUMBERS),
    ("reverse_example", "a", lambda v: families.reverse_example(_SPEC, v, 0.0), _NOT_NUMBERS),
    ("reverse_example", "delta", lambda v: families.reverse_example(_SPEC, 2.0, v), _NOT_NUMBERS),
    ("build_coeffs", "n_max", coeffs.build_coeffs, _NOT_COUNTS),
    ("remainder", "n", coeffs.remainder, _NOT_COUNTS),
    ("tail_bound", "n_terms", lambda v: coeffs.tail_bound(_COEFFS, v, 0.5), _NOT_COUNTS),
    ("tail_bound", "ratio", lambda v: coeffs.tail_bound(_COEFFS, 10, v), _NOT_NUMBERS),
    ("build_series", "epsilon", lambda v: construct.build_series(_residual(0.1), v), _NOT_NUMBERS),
    (
        "build_exponential_example",
        "mass",
        lambda v: construct.build_exponential_example(_SPEC, v),
        _NOT_NUMBERS,
    ),
    ("scan_residual", "tolerance", lambda v: analyze.verify(_residual(0.1), v), _NOT_NUMBERS),
    ("moment_scan", "order", lambda v: analyze.moment_scan(_residual(0.1), v), _NOT_NUMBERS),
    ("moment_scan", "levels", lambda v: analyze.moment_scan(_residual(0.1), 1.0, v), _NOT_COUNTS),
    ("exp_tail_fit", "inner", lambda v: analyze.exp_tail_fit(_residual(0.1), v), _NOT_NUMBERS),
    ("rescaled_density", "n", lambda v: clt.rescaled_density(_residual(1.0), v), _NOT_COUNTS),
    ("ball_mass", "radius", lambda v: clt.ball_mass(_residual(1.0), v), _NOT_NUMBERS),
    (
        "run_experiments",
        "ball radii",
        lambda v: clt.run_experiments("finite_variance", (v,), n_list=(4,), mc_samples=0),
        _NOT_NUMBERS,
    ),
    (
        "run_experiments",
        "n_list entries",
        lambda v: clt.run_experiments("finite_variance", (1.0,), n_list=(v,), mc_samples=0),
        _NOT_COUNTS,
    ),
]


@pytest.mark.parametrize(
    "name,call,value",
    [
        pytest.param(name, call, value, id=f"{site}-{name}={value!r}")
        for site, name, call, values in _CHECKED_PARAMETERS
        for value in values
    ],
)
def test_mistyped_parameter_rejected_by_library(name, call, value):
    """Every checked parameter refuses bools and strings, a number NaN and inf, a count 2.5."""
    message = f"^{re.escape(name)} must be .*, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize(
    "name,evaluator",
    [
        ("poisson", families.poisson(families.PoissonParams(a=0.4, t=0.5))),
        ("poisson_margin", families.poisson_inequality_margin(0.4, 0.5)),
        ("sinc", families.sinc_counterexample(families.SincParams(a=0.4))),
        ("heavy_tail", families.heavy_tail_density()),
        ("gaussian", families.gaussian_density(sigma=1.5)),
        ("reverse", None),
    ],
)
def test_family_writes_the_library_function(tmp_path, name, evaluator):
    argv = [
        "family", "--family", name, "--a", "0.4", "--t", "0.5", "--sigma", "1.5",
        "--delta", "0.5", "--L", "8", "--N", "256", "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    spec = grids.GridSpec(dim=1, extent=8.0, points_per_axis=256)
    if evaluator is None:
        want = families.reverse_example(spec, a=0.4, delta=0.5)
    else:
        want = grids.sample(spec, evaluator)
    got = grids.from_json(str(tmp_path / "family.json"))
    assert got.spec == spec
    np.testing.assert_array_equal(got.values, want.values)
    results = read_report(tmp_path, "family")["report"]["results"]
    assert results["family"] == name
    assert results["mass"] == grids.integrate(want)


@pytest.mark.parametrize(
    "command,name,dim",
    [
        ("family", "sinc", "2"),
        ("family", "heavy_tail", "2"),
        ("family", "reverse", "2"),
        ("verify", "heavy_tail", "3"),
    ],
)
def test_one_dimensional_family_on_higher_d_grid(tmp_path, capsys, command, name, dim):
    argv = [command, "--family", name, "--d", dim, "--N", "16", "--L", "4"]
    argv += ["--out-dir", str(tmp_path)]
    assert main(argv) == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert strict_loads(out)["error"].endswith("is one-dimensional")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("residual", ["gaussian", "bump", "poisson_margin"])
def test_construct_spectral_only(tmp_path, residual):
    argv = [
        "construct", "--residual", residual, "--method", "spectral", "--mass", "0.2",
        "--a", "0.4", "--L", "16", "--N", "512", "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    results = read_report(tmp_path, "construct")["report"]["results"]
    assert set(results) == {"residual_mass", "spectral_mass"}
    # the masses a of f and b of u obey (a - 1/2)^2 = 1/4 - b
    b = results["residual_mass"]
    assert results["spectral_mass"] == pytest.approx(0.5 - math.sqrt(0.25 - b), abs=1e-12)
    if residual != "poisson_margin":
        assert b == pytest.approx(0.2, abs=1e-12)
    assert (tmp_path / "construct_spectral.csv").exists()
    assert not (tmp_path / "construct_series.csv").exists()


def test_importing_the_cli_stays_cheap():
    # the thread and process pools, queue, decimal and fractions load only when a command needs them
    heavy = ("concurrent.futures", "multiprocessing", "queue", "decimal", "fractions")
    paths = (os.path.dirname(os.path.dirname(autoconv.__file__)), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = f"import sys, autoconv.cli; print([m for m in {heavy!r} if m in sys.modules])"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
