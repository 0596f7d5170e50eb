import gc
import json
from fractions import Fraction
from pathlib import Path

import pytest

from cantorforge.cantor1d import ExplicitGapTree, addresses, middle_thirds
from cantorforge.cli import _build_geometry, emit_geometry, main, run_scenario
from cantorforge.dyadic import MAX_PRECISION_BITS
from cantorforge.nested_rd import RotationMatrix

# Older versions read the precision from this variable; it must change nothing.
PRECISION_ENV = "CANTOR_FORGE_PRECISION_BITS"
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))


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


def _explicit_thirds(**edits):
    """Explicit depth-3 middle-thirds tree JSON, with ``hull`` or the root
    gap's ``lo`` replaced by the given values."""
    thirds = middle_thirds(3)
    gaps = {a: thirds.gap(a) for n in range(3) for a in addresses(n)}
    obj = ExplicitGapTree(thirds.hull, 3, gaps).to_json_obj()
    if "hull" in edits:
        obj["hull"] = edits["hull"]
    if "lo" in edits:
        obj["gaps"][0]["lo"] = edits["lo"]
    return {"kind": "explicit", "tree": obj}


@pytest.mark.parametrize(
    "params, message",
    [
        ({"set": _explicit_thirds(lo=[1.9, 3])}, "needs two integers"),
        ({"set": {"kind": "middle-thirds", "depth": 3}, "margin": [0.5, 5]}, "params.margin"),
        ({"set": _explicit_thirds(lo=[1, 0])}, "zero denominator"),
        ({"set": _explicit_thirds(hull=[0, 0, 1, 1])}, "zero denominator"),
    ],
    ids=["float-gap", "float-margin", "zero-gap-denominator", "zero-hull-denominator"],
)
def test_bad_rational_pairs_are_config_errors(tmp_path, capsys, params, message):
    # a float entry is not truncated and a zero denominator is not a traceback
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps({"pipeline": "companion-1d", "params": {"levels": 3, **params}}))
    out = tmp_path / "pair.out.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert not out.exists()


THIRDS3 = {"kind": "middle-thirds", "depth": 3}


@pytest.mark.parametrize(
    "config, message",
    [
        ({"pipeline": "companion-1d", "params": {"set": THIRDS3, "levels": 2.9}}, "'params.levels'"),
        ({"pipeline": "companion-1d", "params": {"set": {**THIRDS3, "depth": True}}}, "'params.set.depth'"),
        ({"pipeline": "interior-1d", "params": {"set": THIRDS3, "levels": 2, "grid": "5"}}, "'params.grid'"),
        (
            {"pipeline": "companion-1d", "params": {"set": {**_explicit_thirds(), "tree": {
                **_explicit_thirds()["tree"], "depth": 3.0}}, "levels": 2}},
            "tree depth must be an integer",
        ),
        ({"pipeline": "companion-1d", "seed": 1.5, "params": {"set": THIRDS3, "levels": 2}}, "'seed'"),
        ({"pipeline": "companion-1d", "precision_bits": 64.5, "params": {"set": THIRDS3}}, "'precision_bits'"),
    ],
    ids=["float-levels", "bool-depth", "string-grid", "float-tree-depth", "float-seed", "float-precision"],
)
def test_integer_fields_refuse_floats_bools_and_strings(tmp_path, capsys, config, message):
    # int() would run "levels": 2.9 as 2 without a word
    cfg = tmp_path / "int.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "int.out.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert not out.exists()


def _scenario_with(name, **params):
    config = json.loads((SCENARIO_DIR / name).read_text())
    config["params"].update(params)
    return config


@pytest.mark.parametrize(
    "config, message",
    [
        (_scenario_with("interior_translates.json", grid=0), "at least 1 value, got 0"),
        (_scenario_with("interior_translates.json", grid=-3), "at least 1 value, got -3"),
        (_scenario_with("interior_square.json", grid=0), "at least 1 value, got 0"),
        (_scenario_with("erdos_translates.json", family={"kind": "demo-grid", "count": 0}), "holds no map"),
        (_scenario_with("erdos_translates.json", family=[]), "holds no map"),
    ],
    ids=["interior-1d-zero", "interior-1d-negative", "interior-rd-zero", "erdos-count-zero", "erdos-empty-list"],
)
def test_grids_without_trials_are_config_errors(tmp_path, capsys, config, message):
    # zero trials used to exit 0 with "all_ok": true
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "empty.out.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert not out.exists()


def _explicit_depth1(*extra_gaps):
    """Explicit depth-1 middle-thirds tree JSON with extra gap entries."""
    thirds = middle_thirds(1)
    obj = ExplicitGapTree(thirds.hull, 1, {"": thirds.gap("")}).to_json_obj()
    obj["gaps"] += [{"addr": addr, "lo": [1, 9], "hi": [2, 9]} for addr in extra_gaps]
    return {"kind": "explicit", "tree": obj}


@pytest.mark.parametrize(
    "config, message",
    [
        (_scenario_with("nondegeneracy_square.json", max_k=0), "max_k must be at least 1"),
        (_scenario_with("rotate_fix_line.json", max_k=0), "max_k must be at least 1"),
        (_scenario_with("nondegeneracy_square.json", kappa=-1), "kappa must be at least 1, got -1"),
        (_scenario_with("rotate_fix_line.json", kappa="1/2"), "kappa must be at least 1, got 1/2"),
        (
            {"pipeline": "companion-1d", "params": {"set": _explicit_depth1("", "0101"), "levels": 1}},
            "two gaps for node ''",
        ),
        (
            {"pipeline": "companion-1d", "params": {"set": _explicit_depth1("0101"), "levels": 1}},
            "gap for '0101', which is not a node of a depth-1 tree",
        ),
    ],
    ids=[
        "nondegeneracy-max-k-zero",
        "rotate-fix-max-k-zero",
        "nondegeneracy-negative-kappa",
        "rotate-fix-kappa-below-one",
        "explicit-tree-duplicate-gap",
        "explicit-tree-gap-at-no-node",
    ],
)
def test_inputs_no_search_can_meet_are_config_errors(tmp_path, capsys, config, message):
    # each used to search the whole tree and exit 2, or run and exit 0
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "bad.out.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert not out.exists()


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


def test_dump_rejects_a_float_tree_depth(tmp_path, capsys):
    tree = middle_thirds(2).to_json_obj()
    tree["depth"] = 2.0
    report = tmp_path / "tree.json"
    report.write_text(json.dumps({"geometry": tree}))
    assert main(["dump", str(report), "--format", "csv-intervals"]) == 1
    assert "tree depth must be an integer" in capsys.readouterr().err


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


@pytest.mark.parametrize("name", ["nondegeneracy_square", "interior_square", "companion_square", "rotate_fix_line"])
def test_a_certificate_run_leaves_no_cyclic_garbage_behind(tmp_path, name):
    # Reference counting alone must free the search tree and the report, as
    # what only a full collection frees stays until one happens.
    config = next(p for p in SCENARIOS if p.stem == name)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_scenario(str(config), out_path=str(tmp_path / "rep.json"))[1] == 0
        gc.collect()
        kinds = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert kinds == set()


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


def test_verify_rejects_a_float_in_a_bbox_claim(tmp_path, capsys):
    config = next(p for p in SCENARIOS if p.stem == "nondegeneracy_square")
    run_to(tmp_path, config, "rep.json")
    report = json.loads((tmp_path / "rep.json").read_text())
    report["results"]["certificate"]["root"]["components"][0]["bbox"][0][0] = [0.9, 1]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 2
    assert "malformed certificate" in capsys.readouterr().err


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


@pytest.mark.parametrize("bits", [1, 2, MAX_PRECISION_BITS, MAX_PRECISION_BITS + 1])
@pytest.mark.parametrize("config", SCENARIOS, ids=lambda p: p.stem)
def test_every_scenario_ends_cleanly_at_extreme_precision(tmp_path, capsys, config, bits):
    out = tmp_path / "rep.json"
    code = main(["run", str(config), "--out", str(out), "--precision-bits", str(bits)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert code in (0, 1, 2)
    if bits > MAX_PRECISION_BITS:
        assert code == 1 and not out.exists()
        message = f"precision must be 1 to {MAX_PRECISION_BITS} bits, got {bits}"
        assert captured.err == f"cantor-forge: config field 'precision_bits': {message}\n"
    if code != 1:
        report = json.loads(out.read_text())
        assert report["precision_bits"] == bits
        assert report["status"] == ("ok" if code == 0 else "failed")


def _bare_certificate(dimension):
    root = {"components": [], "dmin": {}, "ratios": None, "children": []}
    return {"kind": "und-certificate", "dimension": dimension, "depth": 1, "margin": [1, 2**40], "kappa": None,
            "root": root}


THIRDS_2 = {"geometry": middle_thirds(2).to_json_obj()}
WIDE_GAP = {"geometry": dict(THIRDS_2["geometry"], levels=[[5, 1], [1, 18]])}
INTERVALS = ["--format", "csv-intervals"]
# command, input file (JSON-encoded unless a string), extra arguments, exit code, start of stderr
MALFORMED_INPUTS = {
    "dump-level-above-depth": ("dump", THIRDS_2, [*INTERVALS, "--level", "99"], 1,
                               "cantor-forge: level 99 out of range for tree of depth 2"),
    "dump-negative-level": ("dump", THIRDS_2, [*INTERVALS, "--level", "-1"], 1,
                            "cantor-forge: level -1 out of range for tree of depth 2"),
    "dump-gap-too-wide": ("dump", WIDE_GAP, INTERVALS, 1,
                          "cantor-forge: gap at level 0 violates the feasibility bound"),
    "dump-non-object": ("dump", [1, 2], ["--format", "csv-boxes"], 1, "cantor-forge: input carries no typed geometry"),
    "dump-not-json": ("dump", "{oops", INTERVALS, 1, "cantor-forge: bad JSON in input"),
    "verify-huge-dimension": ("verify", {"results": {"certificate": _bare_certificate(10**6)}}, [], 2,
                              "cantor-forge: root: expected 1000001 components, found 0"),
    "verify-non-object": ("verify", "[1, 2]", [], 1, "cantor-forge: report carries no certificate"),
    "verify-certificate-not-an-object": ("verify", {"results": {"certificate": "{oops"}}, [], 2,
                                         "cantor-forge: not a certificate object"),
    "verify-not-json": ("verify", '{"results": {"certificate": {', [], 1, "cantor-forge: bad JSON in input"),
}


@pytest.mark.parametrize("command", [["run"], ["dump", *INTERVALS], ["verify"]], ids=lambda c: c[0])
def test_deeply_nested_json_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text('{"a": ' * 100_000 + "1" + "}" * 100_000)
    code = main([command[0], str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "cantor-forge: config field '<json>': nesting too deep\n"


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_dump_and_verify_inputs_end_without_a_traceback(tmp_path, capsys, name):
    command, content, extra, expected, message = MALFORMED_INPUTS[name]
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    code = main([command, str(path), *extra])
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    assert err.startswith(message)
