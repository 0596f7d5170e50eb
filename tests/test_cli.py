import json
from fractions import Fraction
from pathlib import Path

import pytest

from cantorforge.cli import _build_geometry, emit_geometry, main, run_scenario
from cantorforge.nested_rd import RotationMatrix

# Older versions read the precision from this variable; it must change nothing.
PRECISION_ENV = "CANTOR_FORGE_PRECISION_BITS"
SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "demos" / "scenarios").glob("*.json"))


def run_to(tmp_path, config_path, name, extra=()):
    out = tmp_path / name
    code = main(["run", str(config_path), "--out", str(out), *extra])
    return code, out.read_bytes()


@pytest.mark.parametrize("config", SCENARIOS, ids=lambda p: p.stem)
def test_scenarios_succeed_and_are_deterministic(tmp_path, config):
    code_a, blob_a = run_to(tmp_path, config, "a.json")
    code_b, blob_b = run_to(tmp_path, config, "b.json")
    assert code_a == code_b == 0
    assert blob_a == blob_b
    report = json.loads(blob_a)
    assert report["status"] == "ok"
    assert report["timing_seconds"] is None
    assert report["config"] == json.loads(config.read_text())


def test_thread_count_is_invisible_in_output(tmp_path):
    config = next(p for p in SCENARIOS if p.stem == "robustness_sweep")
    _, single = run_to(tmp_path, config, "t1.json")
    _, pooled = run_to(tmp_path, config, "t4.json", extra=("--threads", "4"))
    assert single == pooled


def test_timing_flag_adds_wall_time(tmp_path):
    config = next(p for p in SCENARIOS if p.stem == "companion_thirds")
    code, blob = run_to(tmp_path, config, "timed.json", extra=("--timing",))
    assert code == 0
    assert isinstance(json.loads(blob)["timing_seconds"], float)


def test_precision_flag_lands_in_report(tmp_path):
    config = next(p for p in SCENARIOS if p.stem == "companion_thirds")
    code, blob = run_to(tmp_path, config, "bits.json", extra=("--precision-bits", "96"))
    assert code == 0
    assert json.loads(blob)["precision_bits"] == 96


@pytest.mark.parametrize("spec", ["axis-mixing", {"kind": "quasi-random", "seed": 3}])
def test_matrix_precision_is_passed_not_read_from_the_environment(monkeypatch, spec):
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    geometry = {"factors": [{"kind": "middle-thirds", "depth": 4}] * 2, "matrix": spec}
    rows = _build_geometry(geometry, 0, 128).matrix.rows
    if spec == "axis-mixing":
        expected = RotationMatrix.axis_mixing(2, 128)
        # entries are +-sqrt(1/2) enclosed at 128 + 16 bits
        assert {(e.hi - e.lo) for row in rows for e in row} == {Fraction(1, 1 << 144)}
    else:
        expected = RotationMatrix.quasi_random(2, 3, 128)
    assert rows == expected.rows
    assert rows != _build_geometry(geometry, 0, 64).matrix.rows


def _distance_config(tmp_path, name, **fields):
    cfg = tmp_path / name
    cfg.write_text(json.dumps({
        "pipeline": "distance-demo",
        **fields,
        "params": {"alpha": "3/2", "dimension": 2, "depth": 8, "grid": 2},
    }))
    return cfg


@pytest.mark.parametrize(
    "flag, field, expected",
    [(None, None, 64), ("32", None, 32), (None, 80, 80)],
    ids=["env-alone", "flag-beats-env", "config-beats-env"],
)
def test_precision_precedence_through_main(tmp_path, monkeypatch, flag, field, expected):
    # the order is flag, then config field, then 64; a set variable is ignored
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    plain = _distance_config(tmp_path, "plain.json")
    _, direct = run_to(tmp_path, plain, "direct.json", extra=("--precision-bits", str(expected)))
    _, at_env = run_to(tmp_path, plain, "at_env.json", extra=("--precision-bits", "96"))

    monkeypatch.setenv(PRECISION_ENV, "96")
    cfg = plain if field is None else _distance_config(tmp_path, "field.json", precision_bits=field)
    code, blob = run_to(tmp_path, cfg, "out.json", extra=() if flag is None else ("--precision-bits", flag))
    assert code == 0
    report = json.loads(blob)
    assert report["precision_bits"] == expected
    # the resolved precision is the one the pipeline computed with
    assert report["results"] == json.loads(direct)["results"]
    assert report["results"] != json.loads(at_env)["results"]


def test_precision_below_one_bit_in_the_environment_is_ignored(tmp_path, monkeypatch):
    cfg = _distance_config(tmp_path, "d.json")
    _, plain = run_to(tmp_path, cfg, "plain.json")
    monkeypatch.setenv(PRECISION_ENV, "0")
    code, blob = run_to(tmp_path, cfg, "rep.json")
    assert code == 0
    assert json.loads(blob)["precision_bits"] == 64
    assert blob == plain


def test_only_the_cli_reads_the_environment():
    # no module reads the environment, the CLI included
    src = Path(__file__).resolve().parents[1] / "src" / "cantorforge"
    readers = sorted(p.name for p in src.glob("*.py") if "os.environ" in p.read_text())
    assert readers == []


@pytest.mark.parametrize("bits", ["0", "-1"])
@pytest.mark.parametrize("config", SCENARIOS, ids=lambda p: p.stem)
def test_precision_below_one_bit_is_a_config_error(tmp_path, capsys, config, bits):
    out = tmp_path / "rep.json"
    assert main(["run", str(config), "--out", str(out), "--precision-bits", bits]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "precision_bits" in err
    assert not out.exists()


def test_precision_below_one_bit_in_the_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({
        "pipeline": "companion-1d",
        "precision_bits": 0,
        "params": {"set": {"kind": "middle-thirds", "depth": 6}, "levels": 6},
    }))
    assert main(["run", str(cfg)]) == 1
    assert "precision_bits" in capsys.readouterr().err


@pytest.mark.parametrize("bits", [128, 256])
def test_cube_root_distance_demo_at_high_precision(tmp_path, bits):
    cfg = tmp_path / "cube.json"
    cfg.write_text(json.dumps({
        "pipeline": "distance-demo",
        "params": {"alpha": "3/2", "dimension": 2, "depth": 12, "grid": 2, "tol": "1/100000000"},
    }))
    code, blob = run_to(tmp_path, cfg, "cube.out.json", extra=("--precision-bits", str(bits)))
    assert code == 0
    report = json.loads(blob)
    assert report["precision_bits"] == bits
    assert report["status"] == "ok"


def test_degenerate_geometry_exits_two(tmp_path):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({
        "pipeline": "nondegeneracy",
        "params": {
            "geometry": {"factors": [
                {"kind": "middle-thirds", "depth": 8},
                {"kind": "point", "value": 0},
            ]},
            "max_level": 10,
            "max_k": 8,
            "depth": 1,
        },
    }))
    out = tmp_path / "flat.out.json"
    code = main(["run", str(cfg), "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["status"] == "failed"
    assert report["results"]["error"]["type"] == "CertificateNotFound"


def test_config_problems_exit_one(tmp_path, capsys):
    bad_pipe = tmp_path / "p.json"
    bad_pipe.write_text(json.dumps({"pipeline": "nope", "params": {}}))
    assert main(["run", str(bad_pipe)]) == 1

    bad_json = tmp_path / "j.json"
    bad_json.write_text("{oops")
    assert main(["run", str(bad_json)]) == 1

    assert main(["run", str(tmp_path / "missing.json")]) == 1

    bad_rat = tmp_path / "r.json"
    bad_rat.write_text(json.dumps({
        "pipeline": "companion-1d",
        "params": {"set": {"kind": "middle-thirds"}, "margin": "zebra"},
    }))
    assert main(["run", str(bad_rat)]) == 1
    err = capsys.readouterr().err
    assert "params.margin" in err


def test_symmetric_set_kind_builds_the_tree_it_names(tmp_path):
    # middle thirds to depth 6, written out gap by gap
    sets = {
        "thirds": {"kind": "middle-thirds", "depth": 6},
        "gaps": {"kind": "symmetric", "hull": [0, 1], "gaps": [f"1/{3 ** (n + 1)}" for n in range(6)]},
    }
    reports = {}
    for name, spec in sets.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"pipeline": "companion-1d", "params": {"set": spec, "levels": 6}}))
        code, blob = run_to(tmp_path, cfg, f"{name}.out.json")
        assert code == 0
        reports[name] = json.loads(blob)
    assert reports["gaps"]["results"] == reports["thirds"]["results"]
    assert reports["gaps"]["geometry"] == reports["thirds"]["geometry"]


def test_dump_intervals_csv(tmp_path):
    config = next(p for p in SCENARIOS if p.stem == "companion_thirds")
    _, blob = run_to(tmp_path, config, "rep.json")
    report_path = tmp_path / "rep.json"
    csv_path = tmp_path / "g.csv"
    code = main([
        "dump", str(report_path), "--format", "csv-intervals",
        "--level", "3", "--out", str(csv_path),
    ])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "addr,lo_num,lo_den,hi_num,hi_den"
    assert len(lines) == 9  # 2**3 intervals behind the header


def test_dump_boxes_csv(tmp_path):
    config = next(p for p in SCENARIOS if p.stem == "nondegeneracy_square")
    _, blob = run_to(tmp_path, config, "rep.json")
    csv_path = tmp_path / "b.csv"
    code = main([
        "dump", str(tmp_path / "rep.json"), "--format", "csv-boxes",
        "--out", str(csv_path),
    ])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "path,level,axis,lo_num,lo_den,hi_num,hi_den"
    # 13 certificate nodes hold 3 components each, 2 axes per box
    assert len(lines) == 1 + 13 * 3 * 2


def test_dump_rejects_mismatched_geometry(tmp_path, capsys):
    config = next(p for p in SCENARIOS if p.stem == "nondegeneracy_square")
    run_to(tmp_path, config, "rep.json")
    code = main(["dump", str(tmp_path / "rep.json"), "--format", "csv-intervals"])
    assert code == 1
    assert "gap-tree" in capsys.readouterr().err
    # the two CSV formats are the only ones; json is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["dump", str(tmp_path / "rep.json"), "--format", "json"])
    assert exc.value.code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_run_scenario_is_importable(tmp_path):
    config = next(p for p in SCENARIOS if p.stem == "erdos_translates")
    report, code = run_scenario(str(config), out_path=str(tmp_path / "r.json"))
    assert code == 0
    assert report["results"]["obstruction"]["hits"] == 100


def test_emit_geometry_accepts_bare_trees(tmp_path, thirds20):
    import io

    buf = io.StringIO()
    rows = emit_geometry(thirds20.to_json_obj(), "csv-intervals", buf, level=2)
    assert rows == 4


@pytest.mark.parametrize("name", ["nondegeneracy_square", "rotate_fix_line"])
def test_verify_accepts_golden_certificates_and_rejects_tampered_ones(tmp_path, capsys, name):
    config = next(p for p in SCENARIOS if p.stem == name)
    run_to(tmp_path, config, "rep.json")
    report_path = tmp_path / "rep.json"
    assert main(["verify", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    report["results"]["certificate"]["root"]["children"] = []
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 2
    assert "root: expected 3 children at level 1" in capsys.readouterr().err


def test_verify_rejects_a_duplicated_component(tmp_path, capsys):
    config = next(p for p in SCENARIOS if p.stem == "nondegeneracy_square")
    run_to(tmp_path, config, "rep.json")
    report = json.loads((tmp_path / "rep.json").read_text())
    cert = report["results"]["certificate"]
    cert["depth"] = 1
    root = cert["root"]
    root["children"] = []
    root["components"][1] = root["components"][0]
    for claims in (root["dmin"], root["ratios"]):
        for key in [k for k in claims if "1" in k.split(",")]:
            del claims[key]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 2
    assert "root: dmin keys are not the component pairs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "node_path, level, message",
    [
        ((), 77, "root: components sit at levels"),
        ((0,), 1, "root.0: level 1 is not above the parent level"),
    ],
    ids=["mixed-levels", "not-below-parent"],
)
def test_verify_rejects_a_tampered_level(tmp_path, capsys, node_path, level, message):
    config = next(p for p in SCENARIOS if p.stem == "nondegeneracy_square")
    run_to(tmp_path, config, "rep.json")
    report = json.loads((tmp_path / "rep.json").read_text())
    node = report["results"]["certificate"]["root"]
    for idx in node_path:
        node = node["children"][idx]
    node["components"][1]["level"] = level
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 2
    assert message in capsys.readouterr().err


def test_verify_needs_a_certificate_in_valid_json(tmp_path, capsys):
    config = next(p for p in SCENARIOS if p.stem == "companion_thirds")
    run_to(tmp_path, config, "rep.json")
    assert main(["verify", str(tmp_path / "rep.json")]) == 1
    assert "no certificate" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["verify", str(bad)]) == 1
    assert "bad JSON" in capsys.readouterr().err


def test_kappa_on_one_axis_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "line.json"
    cfg.write_text(json.dumps({
        "pipeline": "nondegeneracy",
        "params": {
            "geometry": {"factors": [{"kind": "middle-thirds", "depth": 8}]},
            "max_level": 10,
            "kappa": 9,
        },
    }))
    out = tmp_path / "line.out.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "kappa needs at least two axes" in err
    assert not out.exists()


@pytest.mark.parametrize("bits", [1, 2, 4096])
@pytest.mark.parametrize("config", SCENARIOS, ids=lambda p: p.stem)
def test_every_scenario_ends_cleanly_at_extreme_precision(tmp_path, capsys, config, bits):
    out = tmp_path / "rep.json"
    code = main(["run", str(config), "--out", str(out), "--precision-bits", str(bits)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert code in (0, 1, 2)
    if code != 1:
        report = json.loads(out.read_text())
        assert report["precision_bits"] == bits
        assert report["status"] == ("ok" if code == 0 else "failed")
