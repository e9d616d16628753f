import json

import pytest

from autoconv import clt
from autoconv.cli import main


def read_report(out_dir, command):
    with open(out_dir / f"{command}_report.json") as fh:
        return json.load(fh)


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
    printed = json.loads(capsys.readouterr().out)
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
    assert "mc_samples" in json.loads(out)["error"]
    assert not (tmp_path / "clt.csv").exists()


def test_clt_density_once_per_n(tmp_path, monkeypatch):
    seen = []
    original = clt.rescaled_density

    def counting(w, n, out_spec):
        seen.append(n)
        return original(w, n, out_spec)

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
    assert "radii" in json.loads(out)["error"]
    assert not (tmp_path / "clt.csv").exists()


def test_clt_empty_radius_list_in_config_rejected(tmp_path, capsys):
    config = tmp_path / "clt.json"
    config.write_text(json.dumps({"kind": "finite_variance", "R": [], "samples": 0}))
    code = main(["clt", "--config", str(config), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "radii" in json.loads(capsys.readouterr().out)["error"]


def test_json_grid_file_count_mismatch_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"dim": 1, "extent": 4.0, "points_per_axis": 8, "values": [0.1, 0.2, 0.3]})
    )
    code = main(["verify", "--input", str(bad), "--out-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert "needs 8 values, the file holds 3" in json.loads(out)["error"]


def test_malformed_grid_file_rejected(tmp_path, capsys):
    rows = ["x1,value"] + [f"{x},0.05" for x in (-4, -3, -2, -1, 0, 2, 1, 3)]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    code = main(["verify", "--input", str(bad), "--out-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert "data row 6" in json.loads(out)["error"]


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
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "frequency" in err["error"]


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
    assert "1/4" in json.loads(out)["error"]


def test_missing_input_errors(tmp_path):
    assert main(["verify", "--input", "/nonexistent.csv", "--out-dir", str(tmp_path)]) == 1


def test_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in json.loads(capsys.readouterr().out)
