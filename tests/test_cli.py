import hashlib
import json

import pytest

from p3fusion.cli import main
from p3fusion.group import morphism_from_images


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_systems_list(capsys):
    code, out, _ = run(capsys, "systems", "list")
    assert code == 0
    assert "2F4(2)'" in out
    assert "J4" in out
    assert "Th" in out
    assert out.count("exotic") == 3


def test_minimal_table_and_exit(capsys):
    code, out, _ = run(capsys, "minimal", "--system", "j4", "--no-certify")
    assert code == 0
    assert "1936" in out


def test_minimal_no_certify_prints_no_certificate(capsys):
    # an unchecked certificate is null in JSON and "not checked" in the table
    code, out, _ = run(capsys, "minimal", "--system", "d8", "--format", "json",
                       "--no-certify")
    assert code == 0
    assert json.loads(out)["certificates"] == dict.fromkeys(
        ["minimal", "unique", "stable_left", "stable_right", "self_opposite"])
    code, out, _ = run(capsys, "minimal", "--system", "d8", "--no-certify")
    assert code == 0
    assert out.splitlines()[-1] == "certificates: not checked"
    code, out, _ = run(capsys, "minimal", "--system", "d8")
    assert code == 0
    assert out.splitlines()[-1] == ("certificates: minimal=True, self_opposite=True, "
                                    "stable_left=True, stable_right=True, unique=True")


@pytest.mark.parametrize("slot, check", [(0, "layer-2 relation"), (2, "mark identity")])
@pytest.mark.parametrize("argv", [["minimal", "--system", "d8"],
                                  ["verify", "--stability", "--system", "d8"]])
def test_layer2_certificate_failure_exits_1(capsys, monkeypatch, argv, slot, check):
    """One pair whose closed-form relation or mark identity disagrees fails
    `minimal` with one stderr line naming the check and the pair key, and
    `verify --stability` with the same words on the suite's FAIL line."""
    from p3fusion import solver

    real, keys = solver.layer2_closed_forms, []

    def perturbed(system):
        forms = real(system)
        key = sorted(forms)[1]
        entry = list(forms[key])
        entry[slot] = entry[slot] + 1
        forms[key] = tuple(entry)
        keys.append(key)
        return forms

    monkeypatch.setattr(solver, "layer2_closed_forms", perturbed)
    code, out, err = run(capsys, *argv)
    assert code == 1
    if argv[0] == "minimal":
        line, = err.splitlines()
    else:
        assert err == ""
        line, = (line for line in out.splitlines() if line.startswith("stability"))
        line = line.split(" FAIL  ", 1)[1]
    assert line.startswith(check) and f"at pair {keys[0]}:" in line
    assert "Traceback" not in out + err
    if argv[0] == "minimal":  # the unchecked path runs no certificate
        assert run(capsys, *argv, "--no-certify")[0] == 0


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_verify_keeps_the_other_suites_when_a_certificate_fails(capsys, monkeypatch, fmt):
    """A certificate that raises fails its own suite with the message, in the
    FAIL line or under `error`; the table and every other suite still run."""
    from p3fusion import realize, solver

    real = solver.layer2_closed_forms

    def perturbed(system):
        forms = real(system)
        key = sorted(forms)[1]
        forms[key] = (forms[key][0] + 1,) + tuple(forms[key][1:])
        return forms

    monkeypatch.setattr(solver, "layer2_closed_forms", perturbed)
    monkeypatch.setattr(realize, "_conjugation_witness",
                        lambda conjugates, a_mor, b_mor: conjugates[0][0])
    code, out, err = run(capsys, "verify", "--all", "--system", "d8", "--format", fmt)
    assert code == 1 and err == ""
    if fmt == "json":
        data = json.loads(out)
        assert data["ok"] is False
        verdicts = {r["suite"]: (r["ok"], r.get("error", "")) for r in data["results"]}
    else:
        verdicts = {line.split()[0]: (line.split()[2] == "PASS", line.partition(" FAIL  ")[2])
                    for line in out.splitlines() if line.split()[2:3] in (["PASS"], ["FAIL"])}
    assert verdicts["table"] == verdicts["idempotent"] == (True, "")
    assert verdicts["stability"][0] is False
    assert verdicts["stability"][1].startswith("layer-2 relation at pair ")
    assert verdicts["realize"] == (False, "induced map on labels is not a permutation")


def test_minimal_json_bound(capsys):
    code, out, _ = run(capsys, "minimal", "--system", "rv48", "--format", "json",
                       "--no-certify")
    assert code == 0
    data = json.loads(out)
    assert data["exoticity_bound"] == 425744
    assert data["e"] == 134448
    assert data["exotic"] is True


def test_minimal_deterministic(capsys):
    _, out1, _ = run(capsys, "minimal", "--system", "d8", "--format", "json",
                     "--no-certify")
    _, out2, _ = run(capsys, "minimal", "--system", "d8", "--format", "json",
                     "--no-certify")
    data1, data2 = json.loads(out1), json.loads(out2)
    del data1["wall_time_s"], data2["wall_time_s"]
    assert data1 == data2


@pytest.mark.parametrize("command", ["minimal", "idempotent"])
def test_json_keeps_wall_time(capsys, command):
    argv = [command, "--system", "d8", "--format", "json"]
    code, out, _ = run(capsys, *argv + (["--no-certify"] if command == "minimal" else []))
    assert code == 0
    wall = json.loads(out)["wall_time_s"]
    assert isinstance(wall, float) and wall >= 0


def test_minimal_json_roundtrip(capsys):
    from p3fusion.biset import FormalBiset

    _, out, _ = run(capsys, "minimal", "--system", "d8", "--format", "json",
                    "--no-certify")
    data = json.loads(out)
    biset = FormalBiset.from_json(data["biset"])
    assert biset.to_json(data["system"]) == data["biset"]
    assert biset.e() == data["e"]


def test_unknown_system_exit_2(capsys):
    code, _, err = run(capsys, "minimal", "--system", "nope")
    assert code == 2
    assert "unknown system" in err


def test_missing_selector_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["minimal"])
    assert exc.value.code == 2


def test_idempotent_output(capsys):
    code, out, _ = run(capsys, "idempotent", "--system", "d8")
    assert code == 0
    assert "c0 = 1/8" in out
    assert "c2_z = 3/26" in out
    assert "layer 1 coefficient sum = 0" in out
    code, out, _ = run(capsys, "idempotent", "--system", "d8", "--format", "json")
    data = json.loads(out)
    assert data["coefficients"]["c0"] == "1/8"
    assert data["ok"] is True


def test_realize_p3(capsys):
    code, out, _ = run(capsys, "realize", "--system", "d8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["J_size"] == 968
    assert data["orbit_count"] == 1


def test_realize_p7_runs_without_a_flag(capsys):
    # the output that criterion 8 pins, taken as test_golden.py takes a digest
    from test_acceptance import REALIZE_DIGESTS

    code, out, _ = run(capsys, "realize", "--system", "rv96", "--format", "json")
    assert code == 0
    data = json.loads(out)
    del data["wall_time_s"]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == REALIZE_DIGESTS["SD32x3"]


def test_verify_table(capsys):
    code, out, _ = run(capsys, "verify", "--table", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    suite = data["results"][0]
    assert suite["suite"] == "table"
    assert [row["e"] for row in suite["rows"]] == [968, 1936, 74976, 134448,
                                                   201672, 268896]
    assert all("certificates_ok" not in row for row in suite["rows"])


def test_verify_nothing_selected(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


@pytest.mark.parametrize("workers", ["abc", "0"])
def test_verify_bad_workers_exit_2(capsys, monkeypatch, workers):
    monkeypatch.setenv("P3FUSION_WORKERS", workers)
    code, out, err = run(capsys, "verify", "--system", "d8", "--stability")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "P3FUSION_WORKERS" in err


def _without_wall_times(data):
    if isinstance(data, dict):
        return {k: _without_wall_times(v) for k, v in data.items() if k != "wall_time_s"}
    if isinstance(data, list):
        return [_without_wall_times(v) for v in data]
    return data


def test_verify_with_two_workers_matches_one(capsys, monkeypatch):
    # the pool pickles each system's spec into a worker; with D8 and SD16 as
    # the systems, two workers must print what one does
    from concurrent.futures import ProcessPoolExecutor

    from p3fusion import cli
    from p3fusion.fusion import resolve_system

    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "builtin_systems",
                        lambda: [resolve_system("d8"), resolve_system("sd16")])
    outputs = {}
    for workers in ("2", "1"):
        monkeypatch.setenv("P3FUSION_WORKERS", workers)
        code, out, _ = run(capsys, "verify", "--all", "--oracle", "p3-exhaustive",
                           "--format", "json")
        assert code == 0
        outputs[workers] = _without_wall_times(json.loads(out))
    assert pools == [2]
    assert [(r["suite"], r.get("system")) for r in outputs["1"]["results"]] == [
        ("table", None)] + [(suite, name) for name in ("D8", "SD16")
                            for suite in ("marks", "stability", "idempotent", "realize")]
    assert outputs["2"] == outputs["1"]


def test_verify_builds_each_system_once_and_drops_it(capsys, monkeypatch):
    # each spec's system is built once, gives its table row and runs its
    # suites, and is freed by refcount alone before the next one is built
    import gc
    import weakref

    from p3fusion import cli, fusion

    built = []

    def recording(spec):
        alive = [ref() is not None for _, ref, _ in built]
        system = fusion.fusion_system(spec)
        built.append((spec, weakref.ref(system), alive))
        return system

    monkeypatch.delenv("P3FUSION_WORKERS", raising=False)
    monkeypatch.setattr(cli, "fusion_system", recording)
    gc.disable()
    try:
        code, out, _ = run(capsys, "verify", "--table", "--idempotent")
    finally:
        gc.enable()
    assert code == 0 and out.count("PASS") == 6 + 1 + 6
    assert [spec for spec, _, _ in built] == list(fusion.builtin_systems())
    assert [alive for _, _, alive in built] == [[False] * k for k in range(6)]
    assert [ref() for _, ref, _ in built] == [None] * 6


def test_verify_single_system_suites(capsys):
    code, out, _ = run(capsys, "verify", "--stability", "--idempotent",
                       "--system", "d8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert {r["suite"] for r in data["results"]} == {"stability", "idempotent"}
    assert data["ok"] is True


def test_verify_stability_failure_prints_witness(capsys, monkeypatch):
    """A biset that is not stable (omega_upto2 plus 1/3 of the central diagonal
    class) makes the stability suite fail with its witness: the side, the
    morphism class and both marks, in the FAIL line and in the JSON.  The
    witness comes from the solver's own sweeps: each side is swept once."""
    from fractions import Fraction

    from p3fusion import biset, cli
    from p3fusion.biset import (FormalBiset, biset_class, is_left_stable, is_right_stable,
                                stability_witness)
    from p3fusion.idempotent import omega_upto2

    real = cli.minimal_biset
    found = {}
    sweeps = []
    real_sweep = biset._stability_sweep

    def counted_sweep(system, b, side):
        sweeps.append(side)
        return real_sweep(system, b, side)

    def perturbed(system, certify=True):
        grp = system.group
        zz = biset_class(morphism_from_images(grp.center, {grp.z: grp.z}))
        bad = omega_upto2(system) + FormalBiset(system.p, {zz: Fraction(1, 3)})
        found["left"] = is_left_stable(system, bad)
        right = is_right_stable(system, bad)
        return real(system, certify=False)._replace(
            biset=bad, stable_left=found["left"].ok, stable_right=right.ok,
            witness=stability_witness(found["left"], right))

    monkeypatch.setattr(biset, "_stability_sweep", counted_sweep)
    monkeypatch.setattr(cli, "minimal_biset", perturbed)
    code, out, _ = run(capsys, "verify", "--stability", "--system", "d8")
    assert code == 1
    assert sorted(sweeps) == ["left", "right"]
    sweeps.clear()
    rep, lhs, rhs = found["left"].witness
    gens = rep.morphism.source.canonical_gens
    line, = [ln for ln in out.splitlines() if ln.startswith("stability")]
    assert "FAIL" in line and "left sweep" in line and rep.kind in line
    assert f"mark {lhs}, identity-class mark {rhs}" in line
    assert str(tuple(gens[0][1:])) in line

    code, out, _ = run(capsys, "verify", "--stability", "--system", "d8",
                       "--format", "json")
    assert code == 1
    assert sorted(sweeps) == ["left", "right"]
    witness = json.loads(out)["results"][0]["witness"]
    assert witness == {
        "side": "left", "kind": rep.kind,
        "source_generators": [[g.a, g.b, g.c] for g in gens],
        "image_generators": [[h.a, h.b, h.c] for h in map(rep.morphism, gens)],
        "lhs": str(lhs), "rhs": str(rhs)}


@pytest.mark.parametrize("argv, reason", [
    (["--marks", "--oracle", "off", "--system", "d8"], "--oracle off"),
    (["--marks", "--oracle", "p3-exhaustive", "--system", "4s4"], "--oracle p3-exhaustive"),
])
def test_verify_everything_filtered_out_exit_2(capsys, argv, reason):
    code, out, err = run(capsys, "verify", *argv, "--format", "json")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("nothing to verify") and reason in err


def test_verify_table_alone_survives_filters(capsys):
    code, out, _ = run(capsys, "verify", "--table", "--marks", "--oracle", "off",
                       "--system", "d8", "--format", "json")
    assert code == 0
    assert [r["suite"] for r in json.loads(out)["results"]] == ["table"]


def test_sampled_marks_pairs_hold_nonzero_marks_p7():
    """The sampled marks suite at D16x3: 200 pairs, at least 100 with a
    nonzero mark, each equal to the transporter formula."""
    from p3fusion.biset import brute_force_fixed_points, count_fixed_points
    from p3fusion.cli import _marks_pairs
    from oracles import builtin_fusion_system

    pairs = _marks_pairs(builtin_fusion_system("d16x3"), "sampled")
    assert len(pairs) == 200
    nonzero = 0
    for a, b in pairs:
        value = brute_force_fixed_points(a, b)
        assert value == count_fixed_points(a, b)
        nonzero += value != 0
    assert nonzero >= 100


def test_verify_marks_sampled(capsys):
    code, out, _ = run(capsys, "verify", "--marks", "--system", "d8",
                       "--oracle", "sampled", "--format", "json")
    assert code == 0
    data = json.loads(out)
    marks = data["results"][0]
    assert marks["pairs_checked"] == 200
    assert marks["ok"] is True


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({
        "prime": 3,
        "name": "custom-d8",
        "classes": [{"lines": [0, 3], "r": 2}, {"lines": [1, 2], "r": 2}],
    }))
    code, out, _ = run(capsys, "minimal", "--config", str(cfg), "--format", "json",
                       "--no-certify")
    assert code == 0
    data = json.loads(out)
    assert data["e"] == 968
    assert data["system"] == "custom-d8"
    assert data["exotic"] is False
    assert data["exoticity_bound"] is None


def test_verify_config_file_with_custom_name(tmp_path, capsys):
    # the suites run on the loaded description, not on a built-in looked up by name
    cfg = tmp_path / "mine.json"
    cfg.write_text(json.dumps({
        "prime": 3,
        "name": "mine",
        "classes": [{"lines": [0, 1], "r": 2}, {"lines": [2, 3], "r": 2}],
    }))
    code, out, err = run(capsys, "verify", "--config", str(cfg), "--table",
                         "--stability", "--format", "json")
    assert code == 0, err
    data = json.loads(out)
    assert data["ok"] is True
    assert [r["suite"] for r in data["results"]] == ["table", "stability"]
    assert data["results"][0]["rows"][0]["system"] == "mine"
    assert data["results"][1]["system"] == "mine"


def _verify_table_json(capsys, tmp_path, name, classes):
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps({"prime": 3, "name": name, "classes": classes}))
    code, out, err = run(capsys, "verify", "--config", str(cfg), "--table", "--format", "json")
    return code, json.loads(out)["results"][0], err


def test_verify_table_ignores_the_chosen_name(tmp_path, capsys):
    # SD16's lines under the name D8 are compared with SD16's row
    code, suite, err = _verify_table_json(capsys, tmp_path, "D8",
                                          [{"lines": [0, 1, 2, 3], "r": 2}])
    assert code == 0, err
    assert suite["mismatches"] == []
    assert suite["rows"][0]["system"] == "D8"
    assert suite["rows"][0]["group_or_bound"] == "J4"
    assert suite["rows"][0]["e"] == 1936


def test_verify_table_compares_a_relabelled_row(tmp_path, capsys, monkeypatch):
    # D8 with its lines relabelled, under a name of no built-in row, is still
    # compared with D8's row: a wrong expected row makes it fail
    from p3fusion import solver

    classes = [{"lines": [0, 1], "r": 2}, {"lines": [2, 3], "r": 2}]
    code, suite, err = _verify_table_json(capsys, tmp_path, "custom", classes)
    assert code == 0, err
    assert suite["rows"][0]["e"] == 968
    monkeypatch.setitem(solver.EXPECTED_TABLE, "D8", (3, 4, 8, 32, 96, 969, "2F4(2)'"))
    code, suite, _ = _verify_table_json(capsys, tmp_path, "custom", classes)
    assert code == 1
    assert [m["system"] for m in suite["mismatches"]] == ["custom"]


def test_config_file_missing_classes_exit_2(tmp_path, capsys):
    cfg = tmp_path / "noclasses.json"
    cfg.write_text(json.dumps({"prime": 3, "name": "broken"}))
    code, out, err = run(capsys, "minimal", "--config", str(cfg), "--no-certify")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert str(cfg) in err and "'classes'" in err


def test_config_file_not_json_exit_2(tmp_path, capsys):
    cfg = tmp_path / "garbage.json"
    cfg.write_text("prime = 3\n")
    code, out, err = run(capsys, "minimal", "--config", str(cfg), "--no-certify")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert str(cfg) in err and "not valid JSON" in err


def test_config_file_overlong_number_exit_2(tmp_path, capsys):
    cfg = tmp_path / "overlong.json"
    cfg.write_text('{"prime": ' + "1" * 5001 + ', "name": "broken", "classes": []}')
    code, out, err = run(capsys, "minimal", "--config", str(cfg), "--no-certify")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert str(cfg) in err and "not valid JSON" in err


def test_config_directory_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "minimal", "--config", str(tmp_path), "--no-certify")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert str(tmp_path) in err


def test_config_file_no_matching_row_exit_1(tmp_path, capsys):
    # a consistent description that no built-in row matches (no row at p = 11)
    cfg = tmp_path / "p11.json"
    cfg.write_text(json.dumps({"prime": 11, "name": "custom",
                               "classes": [{"lines": list(range(12)), "r": 2}]}))
    code, out, err = run(capsys, "minimal", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "no built-in system at p = 11" in err


@pytest.mark.parametrize("prime, classes, field, problem", [
    (3, [{"lines": [0, 1], "r": 2}, {"lines": [1, 2, 3], "r": 2}],
     "'classes'", "classes overlap"),
    (3, [{"lines": [0, 1], "r": 2}, {"lines": [2, 7], "r": 2}],
     "'classes'", "line index out of range"),
    (29, [{"lines": list(range(30)), "r": 28}], "'prime'", "above the supported maximum 23"),
    (10**400 + 1, [{"lines": [0, 1, 2, 3], "r": 2}], "'prime'", "above the supported maximum 23"),
    (3, [{"lines": [0, 1, True], "r": 2}, {"lines": [2, 3], "r": 2}],
     "'classes[0].lines'", "must be a list of integers"),
    (3, [{"lines": [0, 1, 2, 3], "r": True}], "'classes[0].r'", "must be a positive integer"),
    (True, [{"lines": [0, 1, 2, 3], "r": 2}], "'prime'", "must be an integer"),
    (3, [{"lines": [0, 1, 1, 2, 3], "r": 2}], "'classes[0].lines'", "repeats line 1"),
], ids=["overlap", "line-out-of-range", "prime-too-large", "prime-huge",
        "lines-bool", "r-bool", "prime-bool", "line-repeated"])
def test_config_file_rejected_exit_2(tmp_path, capsys, prime, classes, field, problem):
    cfg = tmp_path / "rejected.json"
    cfg.write_text(json.dumps({"prime": prime, "name": "broken", "classes": classes}))
    code, out, err = run(capsys, "minimal", "--config", str(cfg), "--no-certify")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert str(cfg) in err and field in err and problem in err


@pytest.mark.parametrize("name", [None, 5], ids=["null", "number"])
def test_config_file_name_not_a_string_exit_2(tmp_path, capsys, name):
    cfg = tmp_path / "badname.json"
    cfg.write_text(json.dumps({"prime": 3, "name": name,
                               "classes": [{"lines": [0, 1, 2, 3], "r": 2}]}))
    code, out, err = run(capsys, "minimal", "--config", str(cfg), "--no-certify")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert str(cfg) in err and "field 'name' must be a string" in err


def test_verify_idempotent_failure_prints_witness(capsys, monkeypatch):
    """An idempotent that is not stable (omega_upto2 plus 1/3 of the central
    diagonal class) fails verify --idempotent with the witness of its sweep,
    the marks divided back to the rational biset's."""
    from fractions import Fraction

    from p3fusion import idempotent
    from p3fusion.biset import FormalBiset, biset_class, is_left_stable
    from oracles import builtin_fusion_system

    system = builtin_fusion_system("d8")
    grp = system.group
    zz = biset_class(morphism_from_images(grp.center, {grp.z: grp.z}))
    bad = idempotent.omega_upto2(system) + FormalBiset(system.p, {zz: Fraction(1, 3)})
    rep, lhs, rhs = is_left_stable(system, bad).witness
    monkeypatch.setattr(idempotent, "omega_upto2", lambda system: bad)

    code, out, _ = run(capsys, "verify", "--idempotent", "--system", "d8")
    assert code == 1
    line, = [ln for ln in out.splitlines() if ln.startswith("idempotent")]
    assert "FAIL" in line and "left sweep" in line and rep.kind in line
    assert f"mark {lhs}, identity-class mark {rhs}" in line

    code, out, _ = run(capsys, "verify", "--idempotent", "--system", "d8", "--format", "json")
    assert code == 1
    witness = json.loads(out)["results"][0]["witness"]
    gens = rep.morphism.source.canonical_gens
    assert witness == {
        "side": "left", "kind": rep.kind,
        "source_generators": [[g.a, g.b, g.c] for g in gens],
        "image_generators": [[h.a, h.b, h.c] for h in map(rep.morphism, gens)],
        "lhs": str(lhs), "rhs": str(rhs)}


def test_verify_idempotent_pass_has_no_witness(capsys):
    code, out, _ = run(capsys, "verify", "--idempotent", "--system", "d8", "--format", "json")
    assert code == 0
    result, = json.loads(out)["results"]
    assert result == {"suite": "idempotent", "system": "D8", "ok": True}
