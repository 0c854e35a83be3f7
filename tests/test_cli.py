import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arsurvival
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


def test_classify_rejects_nan_barrier(capsys):
    code, out, err = run_cli(capsys, "classify", "--a1", "0.5", "--a2", "0.25",
                             "--x", "nan")
    assert code == 2 and "NaN" in err and out == ""
    # infinite barriers stay valid, as in estimate_survival
    for x in ("inf", "-inf"):
        code, out, _ = run_cli(capsys, "classify", "--a1", "0.5", "--a2", "0.25",
                               f"--x={x}")
        assert code == 0 and json.loads(out)["region"] == "E"


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
    assert obj["schema_version"] == 3
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


def test_simulate_without_gnuplot_ignores_a_gp_directory(tmp_path, capsys):
    (tmp_path / "curve.gp").mkdir()
    code, _, _ = run_cli(capsys, "simulate", str(_write_config(tmp_path)))
    assert code == 0 and (tmp_path / "curve.json").is_file()


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


@pytest.mark.parametrize("bad, made", [(bad, ()) for bad in [
    {"grid": [16, 4]}, {"grid": [0, 4]},
    {"paths": 0}, {"paths": -5},
    {"x": math.nan}, {"x": "nan"},
    {"innovation": {"kind": "gaussian", "params": {"mu": math.nan, "sigma": 1.0}}},
    {"innovation": {"kind": "uniform", "params": {"lo": 0.0, "hi": math.inf}}},
    {"innovation": {"kind": "uniform", "params": {"lo": -1e308, "hi": 1e308}}},
    {"innovation": {"kind": "gaussian", "params": 1}},
    {"innovation": {"kind": "gaussian", "params": ["mu", "sigma"]}},
    {"innovation": {"kind": "gaussian", "params": {"mu": None, "sigma": 1.0}}},
    {"paths": 10.7}, {"paths": True}, {"paths": "2000"}, {"seed": 1.9},
    {"grid": [1.5, 4]}, {"grid": [1, 2 ** 63]}, {"grid": [1, 2 ** 63 - 1]},
    {"paths": 2 ** 63},
    {"a": "12"}, {"a": [1, True]}, {"x": "0.5"}, {"x": True}, {"x": 10 ** 400},
    {"innovation": {"kind": "gaussian", "params": {"mu": "0", "sigma": True}}},
    {"seed": -1}, {"seed": 2 ** 64},
    {"out": None}, {"out": ""}, {"out": "./"}, {"out": "nodir/x"}, {"gnuplot": "no"},
]] + [
    # an output file that would replace a directory
    ({"out": "x"}, ("x.json",)), ({"out": "x"}, ("x.csv",)),
    ({"out": "x", "gnuplot": True}, ("x.gp",)),
], ids=["grid-decreasing", "grid-zero", "paths-zero", "paths-negative", "x-nan",
        "x-nan-text", "innovation-nan", "innovation-inf", "innovation-wide-uniform",
        "innovation-params-number", "innovation-params-list", "innovation-params-null",
        "paths-fraction", "paths-bool", "paths-text", "seed-fraction", "grid-fraction",
        "grid-beyond-int64", "grid-at-int64-max", "paths-beyond-int64",
        "a-text", "a-bool", "x-text", "x-bool", "x-beyond-float",
        "innovation-params-text-bool", "seed-negative", "seed-beyond-uint64",
        "out-null", "out-empty", "out-no-name", "out-missing-dir", "gnuplot-text",
        "out-json-is-dir", "out-csv-is-dir", "out-gp-is-dir"])
def test_simulate_invalid_config_values_exit_3(tmp_path, monkeypatch, capsys, bad, made):
    # relative outputs would land in the working directory
    monkeypatch.chdir(tmp_path)
    for name in made:
        (tmp_path / name).mkdir()
    cfg = _write_config(tmp_path, **bad)
    code, _, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 3 and "invalid config" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["config.json", *made])
    assert not any(any((tmp_path / name).iterdir()) for name in made)


def test_simulate_config_not_an_object_exit_3(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps([1.0]))
    code, _, err = run_cli(capsys, "simulate", str(cfg_path))
    assert code == 3 and "JSON object" in err


def test_simulate_bad_workers_is_malformed_input(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code, _, err = run_cli(capsys, "simulate", str(cfg), "--workers", "0")
    assert code == 2 and "workers" in err
    assert not list(tmp_path.glob("curve.*"))


@pytest.mark.parametrize("seed", [1.5, -1], ids=["type-fault", "range-fault"])
def test_simulate_bad_workers_comes_before_the_config(tmp_path, capsys, seed):
    # a bad --workers is malformed input whatever fault the config also has
    cfg = _write_config(tmp_path, seed=seed)
    code, _, err = run_cli(capsys, "simulate", str(cfg), "--workers", "0")
    assert code == 2 and "workers" in err


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


def test_fit_of_an_invalid_curve_is_inconclusive(tmp_path, capsys):
    # (2.5, -0.5) lies in C, but a2 < 0 leaves it outside the survival
    # certificate: paths that never cross run off to -inf and turn NaN, and
    # without the check the curve's fast fall fits an exponential
    cfg = tmp_path / "c.cfg.json"
    cfg.write_text(json.dumps({
        "a": [2.5, -0.5], "innovation": {"kind": "gaussian", "params": {"mu": 0, "sigma": 1}},
        "x": 0.0, "grid": list(range(1, 33)) + [64, 128, 256, 512, 1024],
        "paths": 20_000, "seed": 1, "out": str(tmp_path / "c")}))
    code, _, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 4 and "8232 of 20000 paths were non-finite" in err
    code, out, _ = run_cli(capsys, "fit", str(tmp_path / "c.json"))
    assert code == 0
    fit = json.loads(out)
    assert fit["class"] == "inconclusive" and fit["lambda"] is None


def _impossible_curves():
    """Version-2 curve files that no simulation can produce."""
    for key, edit in [("paths", lambda p: 0),
                      ("survivors", lambda s: [10 ** 9 + 1] + s[1:]),
                      ("survivors", lambda s: s[:-1] + [-1]),
                      ("survivors", lambda s: [s[1], s[0]] + s[2:]),
                      ("grid", lambda g: [0] + g[1:]),
                      ("grid", lambda g: g[::-1]),
                      ("survivors", lambda s: s[:-1]),
                      ("nonfinite_paths", lambda n: -5),
                      ("nonfinite_paths", lambda n: 10 ** 9 + 1),
                      # survivors[0] = paths / 2, so half the paths are left
                      ("nonfinite_paths", lambda n: 10 ** 9 // 2 + 1),
                      # integer fields are integral numbers, never truncated
                      ("paths", lambda p: p + 0.5),
                      ("paths", lambda p: True),
                      ("grid", lambda g: [1.5] + g[1:]),
                      ("survivors", lambda s: [s[0] + 0.5] + s[1:]),
                      ("nonfinite_paths", lambda n: 0.5),
                      ("seed", lambda s: "0"),
                      # seeds outside [0, 2^64) and values that are not numbers
                      ("seed", lambda s: -1),
                      ("seed", lambda s: 2 ** 64),
                      ("params", lambda p: {"a": "5"}),
                      ("x", lambda x: True),
                      ("x", lambda x: math.nan),
                      # counts that int64 cannot hold
                      ("grid", lambda g: g[:-1] + [2 ** 63]),
                      ("survivors", lambda s: [2 ** 63] + s[1:])]:
        curve = _synthetic_curve(2)
        curve[key] = edit(curve[key])
        yield curve


def test_fit_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # a top level that is not an object: a list, a string, null
    for bad in ({"type": "something_else"}, [1, 2], "x", None, _synthetic_curve(4),
                *_impossible_curves()):
        path.write_text(json.dumps(bad))
        code, out, err = run_cli(capsys, "fit", str(path))
        assert code == 3 and "invalid curve file" in err and out == ""


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


def test_tiny_negative_coefficient_gives_finite_bound(capsys):
    # |a_-|^2 underflows to 0 here; the closed form must not take log(0)
    code, out, _ = run_cli(capsys, "bounds", "--a=-1e-300,1e-300")
    assert code == 0
    res = json.loads(out)["exp_lower_bound"]
    assert res["method"] == "gaussian_closed_form"
    assert 0.0 < res["c"] <= 1.0 and math.isfinite(res["alpha_star"])
    code, out, _ = run_cli(capsys, "classify", "--a1=-1e-300", "--a2=1e-300")
    assert code == 0
    # the prediction's upper rate is -log c
    assert math.isfinite(json.loads(out)["rate_upper_bound"])


@pytest.mark.parametrize("command", [
    ["bounds", "--a=0.3,-0.2", "--innovation", "two_point",
     "--innovation-params", '{"y": 1e-320}'],
    ["bounds", "--a=0.3,-0.2", "--innovation", "uniform",
     "--innovation-params", '{"lo": -1e-320, "hi": 1e-320}'],
    ["classify", "--a1=-0.4", "--a2=-0.4", "--innovation", "two_point",
     "--innovation-params", '{"y": 1e-320}'],
], ids=["bounds-two_point", "bounds-uniform", "classify-two_point"])
def test_law_of_subnormal_scale_returns(command):
    # the scan's grid spacing underflows to 0 at this scale; run in a child
    # with a timeout, so a scan that never ends fails instead of hanging
    src = str(Path(arsurvival.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-W", "error", "-m", "arsurvival.cli", *command],
                         env=env, check=True, capture_output=True, text=True, timeout=10)
    obj = json.loads(out.stdout)
    if command[0] == "bounds":
        # both laws put mass 1/2 at or below 0
        assert 0.0 < obj["exp_lower_bound"]["c"] <= 0.5
    else:
        assert 0.0 < obj["rate_lower_bound"] <= obj["rate_upper_bound"] < math.inf


# run in a fresh interpreter: this session has imported scipy already
_COLD_START = """\
import json, sys
loaded = {}
import arsurvival
loaded["import"] = "scipy" in sys.modules
from arsurvival import cli
cli.build_parser()
loaded["build_parser"] = "scipy" in sys.modules
assert cli.main(["classify", "--a1", "1", "--a2", "0"]) == 0
loaded["classify"] = "scipy" in sys.modules
for kind, params in [("rademacher", {}), ("gaussian", {"mu": 0, "sigma": 1})]:
    with open(kind + ".cfg.json", "w") as handle:
        json.dump({"a": [1.0], "innovation": {"kind": kind, "params": params},
                   "x": 0.0, "grid": [1, 2, 4, 8, 16, 32], "paths": 2000,
                   "seed": 7, "out": kind}, handle)
    assert cli.main(["simulate", kind + ".cfg.json"]) == 0
    loaded["simulate " + kind] = "scipy" in sys.modules
    if kind == "rademacher":
        # one worker forks nothing, so it needs neither module of the fork path
        loaded["fork path"] = sorted({"signal", "traceback"} & set(sys.modules))
        assert cli.main(["fit", "rademacher.json"]) == 0
        loaded["fit"] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_scipy_loaded_only_for_gaussian_laws(tmp_path):
    src = str(Path(arsurvival.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _COLD_START], cwd=tmp_path, env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert loaded == {"import": False, "build_parser": False, "classify": False,
                      "simulate rademacher": False, "fork path": [], "fit": False,
                      "simulate gaussian": True}


def test_bounds_reports_region_extras(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--a", "0.5,-0.4")
    obj = json.loads(out)
    assert code == 0
    assert obj["region"] == "E/E3"
    # c = 1, 0.5, 0.25 - 0.4 < 0: first sign change at k = 2
    assert obj["e3_sign_change_index"] == 2
    assert "error" not in obj["exp_lower_bound"]
    code, out, _ = run_cli(capsys, "bounds", "--a=-1,2")
    obj = json.loads(out)
    assert code == 0
    assert obj["region"] == "E/E1"
    assert obj["e1_rate_bound"] == math.log(2.0)


@pytest.mark.parametrize("a, index", [("1,-0.25000001", 15707),
                                      ("2.5,-1.5625001", 12418),
                                      ("2,-1.0000000000000002", 210828714)])
def test_bounds_e3_index_near_real_roots(capsys, a, index):
    # a float walk of c_k underflows, overflows or runs 2.1e8 steps on these
    code, out, _ = run_cli(capsys, "bounds", f"--a={a}")
    assert code == 0
    assert json.loads(out)["e3_sign_change_index"] == index


def test_bounds_precondition_reported(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--a", "0.8,0.7")
    assert code == 0
    assert "error" in json.loads(out)["exp_lower_bound"]


def test_bounds_rejects_bad_coefficients(capsys):
    # an empty field is no coefficient, not a skipped one
    for a in ("0.3,oops", "0.5,,0.2", "0.3,", ",0.3"):
        code, out, err = run_cli(capsys, "bounds", f"--a={a}")
        assert code == 2 and err.startswith("error: ") and out == ""


@pytest.mark.parametrize("command", [["classify", "--a1", "0.5", "--a2", "0.25"],
                                     ["bounds", "--a", "0.3,0.2"]])
@pytest.mark.parametrize("params", ["1", '["mu", "sigma"]', '{"mu": null, "sigma": 1}',
                                    '{"mu": "0", "sigma": true}'])
def test_malformed_innovation_params_exit_2(capsys, command, params):
    code, out, err = run_cli(capsys, *command, "--innovation-params", params)
    assert code == 2 and err.startswith("error: ") and out == ""


@pytest.mark.parametrize("params", ['{"mu": NaN, "sigma": 1}',
                                    '{"mu": 0, "sigma": Infinity}'])
def test_bounds_rejects_nonfinite_innovation(capsys, params):
    code, out, err = run_cli(capsys, "bounds", "--a", "0.3,0.2",
                             "--innovation-params", params)
    assert code == 2 and "finite" in err and out == ""


@pytest.mark.parametrize("command", [["classify", "--a1", "0.5", "--a2", "0.25"],
                                     ["bounds", "--a", "0.3,0.2"]])
def test_uniform_with_infinite_width_exit_2(capsys, command):
    # both ends are finite, but hi - lo overflows to inf
    code, out, err = run_cli(capsys, *command, "--innovation", "uniform",
                             "--innovation-params", '{"lo": -1e308, "hi": 1e308}')
    assert code == 2 and "finite" in err and out == ""


def test_verify_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "R1", "--verbose")
    assert code == 0
    assert "R1   PASS" in out
    assert "1/1 criteria passed" in out


def test_verify_only_picks_from_every_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "F1")
    assert code == 0
    assert "F1   PASS" in out
    assert "1/1 criteria passed" in out


def test_verify_unknown_criterion(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "ZZ")
    assert code == 2 and "unknown criteria" in err
    # an empty list names the empty criterion, it does not mean all of them
    code, out, err = run_cli(capsys, "verify", "--only", "")
    assert code == 2 and "unknown criteria: ['']" in err and out == ""


def test_verify_workers_do_not_change_the_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "C1,R1", "--verbose")
    assert code == 0
    assert run_cli(capsys, "verify", "--only", "C1,R1", "--verbose",
                   "--workers", "2") == (0, out, "")
    code, out, err = run_cli(capsys, "verify", "--only", "F1", "--workers", "0")
    assert code == 2 and "workers" in err and out == ""


def test_verify_failed_criterion_exit_4(monkeypatch, capsys):
    from arsurvival import acceptance

    stubs = {cid: (lambda workers, cid=cid, ok=ok: acceptance.CriterionResult(cid, "stub", ok))
             for cid, ok in [("P1", True), ("E1", False), ("C1", False)]}
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 4
    assert out.splitlines()[-2:] == ["1/3 criteria passed", "failed: E1, C1"]
