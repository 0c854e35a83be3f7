import json
import math

from arsurvival.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_integrated_walk(capsys):
    code, out, _ = run_cli(capsys, "classify", "--a1", "2", "--a2", "-1")
    assert code == 0
    obj = json.loads(out)
    assert obj["region"] == "P" and obj["sub"] is None
    assert obj["predicted"] == "polynomial" and obj["theta"] == 0.25
    assert obj["coeff_limit"]["kind"] == "diverges"


def test_classify_positive_limit_and_e2(capsys):
    code, out, _ = run_cli(capsys, "classify", "--a1", "1", "--a2", "1")
    assert code == 0 and json.loads(out)["predicted"] == "positive_limit"

    code, out, _ = run_cli(capsys, "classify", "--a1", "-0.4", "--a2", "-0.4")
    obj = json.loads(out)
    assert code == 0 and obj["region"] == "E" and obj["sub"] == "E2"
    assert obj["predicted"] == "exponential"


def test_classify_rejects_non_finite(capsys):
    code, _, err = run_cli(capsys, "classify", "--a1", "nan", "--a2", "0")
    assert code == 2 and "finite" in err


def test_classify_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "classify", "--a1", "0.5", "--a2", "0.25")
    _, out2, _ = run_cli(capsys, "classify", "--a1", "0.5", "--a2", "0.25")
    assert out1 == out2


def _write_config(path, **overrides):
    cfg = {
        "a": [1.0],
        "innovation": {"kind": "rademacher", "params": {}},
        "x": 0.0,
        "grid": [1, 2, 4, 8],
        "paths": 2000,
        "seed": 7,
        "out": str(path / "curve"),
    }
    cfg.update(overrides)
    cfg_path = path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


def test_simulate_writes_deterministic_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code, out, _ = run_cli(capsys, "simulate", str(cfg))
    assert code == 0 and "curve.json" in out
    json_text = (tmp_path / "curve.json").read_text()
    csv_text = (tmp_path / "curve.csv").read_text()
    obj = json.loads(json_text)
    assert obj["schema_version"] == 2
    assert obj["survivors"][0] >= obj["survivors"][-1]
    assert csv_text.splitlines()[0] == "N,survivors,paths,p_hat,stderr,zero_flag"
    # byte-identical on rerun
    code, _, _ = run_cli(capsys, "simulate", str(cfg))
    assert code == 0
    assert (tmp_path / "curve.json").read_text() == json_text
    assert (tmp_path / "curve.csv").read_text() == csv_text


def test_simulate_workers_flag_does_not_change_files(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    run_cli(capsys, "simulate", str(cfg))
    base = (tmp_path / "curve.json").read_text()
    run_cli(capsys, "simulate", str(cfg), "--workers", "3")
    assert (tmp_path / "curve.json").read_text() == base


def test_simulate_gnuplot_script(tmp_path, capsys):
    cfg = _write_config(tmp_path, gnuplot=True)
    code, _, _ = run_cli(capsys, "simulate", str(cfg))
    assert code == 0
    script = (tmp_path / "curve.gp").read_text()
    assert "logscale" in script and "curve.csv" in script


def test_simulate_rejects_unknown_keys(tmp_path, capsys):
    cfg = _write_config(tmp_path, typo_key=1)
    code, _, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 3 and "unknown config keys" in err


def test_simulate_rejects_missing_keys(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"a": [1.0]}))
    code, _, err = run_cli(capsys, "simulate", str(cfg_path))
    assert code == 3 and "missing config keys" in err


def test_simulate_invalid_estimate_exit_code(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, a=[-1.0, -2.0], x=math.inf, grid=[2200], paths=50,
        innovation={"kind": "gaussian", "params": {"mu": 0.0, "sigma": 1.0}})
    code, _, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 4 and "non-finite" in err
    assert json.loads((tmp_path / "curve.json").read_text())["invalid"] is True


def _synthetic_curve(schema_version):
    """Curve file of exact 2^-N survival, as the given schema version."""
    paths = 10 ** 9
    grid = list(range(1, 31))
    return {
        "schema_version": schema_version, "type": "survival_curve",
        "params": {"a": [1.0]},
        "innovation": {"kind": "rademacher", "params": {}},
        "x": 0.0, "grid": grid,
        "survivors": [round(paths * 0.5 ** n) for n in grid],
        "paths": paths,
        "p_hat": [0.5 ** n for n in grid],
        "stderr": [0.0 for _ in grid],
        "zero_flag": [False for _ in grid],
        "zero_upper_bound": 3.0 / paths,
        "seed": 0, "nonfinite_paths": 0, "invalid": False, "rng": "",
    }


def test_fit_roundtrip_on_synthetic_curve(tmp_path, capsys):
    path = tmp_path / "synthetic.json"
    path.write_text(json.dumps(_synthetic_curve(1)))
    code, out, _ = run_cli(capsys, "fit", str(path))
    assert code == 0
    fit = json.loads(out)
    assert fit["class"] == "exponential"
    assert abs(fit["lambda"] - math.log(2.0)) < 0.05 * math.log(2.0)


def test_fit_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for bad in ({"type": "something_else"}, _synthetic_curve(3)):
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, "fit", str(path))
        assert code == 3 and "invalid curve file" in err


def test_bounds_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--a", "0.3,-0.2",
                           "--innovation", "gaussian")
    assert code == 0
    obj = json.loads(out)
    res = obj["exp_lower_bound"]
    assert res["method"] == "gaussian_closed_form"
    expect = -math.sqrt(math.log((0.7 / 0.2) ** 2) / (0.7 ** 2 - 0.2 ** 2))
    assert abs(res["alpha_star"] - expect) < 1e-12
    assert obj["region"] == "E/E3"


def test_bounds_reports_region_extras(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--a", "0.5,-0.4")
    obj = json.loads(out)
    assert code == 0
    assert obj["region"] == "E/E3"
    # c = 1, 0.5, 0.25 - 0.4 < 0: first sign change at k = 2
    assert obj["e3_sign_change_index"] == 2
    assert "error" not in obj["exp_lower_bound"]


def test_bounds_precondition_reported(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--a", "0.8,0.7")
    assert code == 0
    assert "error" in json.loads(out)["exp_lower_bound"]


def test_bounds_rejects_bad_coefficients(capsys):
    code, _, err = run_cli(capsys, "bounds", "--a", "0.3,oops")
    assert code == 2


def test_verify_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "full", "--only", "R1",
                           "--verbose")
    assert code == 0
    assert "R1   PASS" in out
    assert "1/1 criteria passed" in out


def test_verify_unknown_suite_or_criterion(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "full", "--only", "ZZ")
    assert code == 2 and "unknown criteria" in err
