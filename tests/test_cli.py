"""End-to-end CLI runs: exit codes, JSON determinism, certificate replay."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import toricgit
from toricgit import cli
from toricgit.actions import (
    git_chambers,
    mumford_trivial_semistable,
    obstruction_report,
    semistable_divisor,
    semistable_group,
)
from toricgit.builtin import intro_problem_data, quadric_problem_data
from toricgit.certcheck import CheckResult
from toricgit.cli import run
from toricgit.fans import DivisorGroup

from genutil import (
    random_action,
    random_divisor,
    random_fan,
    random_linearization,
)


@pytest.fixture
def quadric_file(tmp_path):
    f = tmp_path / "quadric.json"
    f.write_text(json.dumps(quadric_problem_data()))
    return str(f)


@pytest.fixture
def intro_file(tmp_path):
    f = tmp_path / "intro.json"
    f.write_text(json.dumps(intro_problem_data()))
    return str(f)


@pytest.fixture
def intro_weights_file(tmp_path):
    data = intro_problem_data()
    data["weights"] = [[1], [-1]]
    f = tmp_path / "introw.json"
    f.write_text(json.dumps(data))
    return str(f)


def _run_json(argv, capsys):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_semistable_divisor(quadric_file, capsys):
    code, rep = _run_json(["semistable", quadric_file, "--divisor", "Dss",
                           "--check"], capsys)
    assert code == 0
    assert rep["result"]["faces"] == [[], [0], [2]]
    assert rep["result"]["check"]["ok"]
    assert len(rep["result"]["certificates"]) == 2


def test_semistable_group(intro_file, capsys):
    code, rep = _run_json(["semistable", intro_file, "--group", "ZD",
                           "--check"], capsys)
    assert code == 0
    assert rep["result"]["faces"] == [[], [0], [1]]
    assert rep["result"]["check"]["ok"]


def test_cartier_locus(quadric_file, capsys):
    code, rep = _run_json(["cartier-locus", quadric_file, "--group", "L1"],
                          capsys)
    assert code == 0
    assert [0, 1, 2, 3] not in rep["result"]["faces"]
    assert len(rep["result"]["faces"]) == 9


def test_ample_locus(quadric_file, capsys):
    code, rep = _run_json(["ample-locus", quadric_file, "--group", "ZDss"],
                          capsys)
    assert code == 0
    assert [0, 1, 2, 3] not in rep["result"]["faces"]


def test_trivial_bundle(intro_file, capsys):
    code, rep = _run_json(["trivial-bundle", intro_file, "--character", "1",
                           "--check"], capsys)
    assert code == 0
    assert rep["result"]["faces"] == [[], [1]]
    assert rep["result"]["check"]["ok"]


def test_chambers(quadric_file, capsys):
    code, rep = _run_json(["chambers", quadric_file], capsys)
    assert code == 0
    assert len(rep["result"]["chambers"]) == 8


def test_quotient(quadric_file, capsys):
    code, rep = _run_json(["quotient", quadric_file, "--divisor", "Dss"],
                          capsys)
    assert code == 0
    flags = rep["result"]["quotient"]["flags"]
    assert flags == {"good": True, "geometric": True, "separated": True}
    assert rep["result"]["quotient"]["quotient_rank"] == 1


def test_class_group(quadric_file, capsys):
    code, rep = _run_json(["class-group", quadric_file], capsys)
    assert code == 0
    assert rep["result"] == {"cl_rank": 1, "cl_torsion": [], "pic_rank": 0,
                             "torus_factor_rank": 0}


def test_obstruction_exit_1(quadric_file, capsys):
    code, rep = _run_json(["obstruction", quadric_file, "--divisor", "Dss"],
                          capsys)
    assert code == 1
    assert rep["result"]["verdict"] == "obstructed"


def test_obstruction_of_an_empty_locus(quadric_file, capsys):
    # D1's semistable locus is empty; a character off the quadric's weight
    # cone of the empty face gives the empty locus too
    code, rep = _run_json(["obstruction", quadric_file, "--divisor", "D1"],
                          capsys)
    assert code == 0
    res = rep["result"]
    assert res["required"] == [] and res["verdict"] == "not-obstructed"
    assert res["locus"] == {"faces": [], "certificates": []}
    code, again = _run_json(["trivial-bundle", quadric_file, "--character",
                             ",".join(map(str, res["character"])), "--check"],
                            capsys)
    assert code == 1 and again["result"]["faces"] == []


def test_hm_limit(intro_weights_file, capsys):
    code, rep = _run_json(["hm", "limit", intro_weights_file,
                           "--lam", "1", "--support", "0"], capsys)
    assert code == 0
    assert rep["result"] == {"exists": True, "limit_support": []}
    # the empty support's limit is itself: an empty list, not null
    code, rep = _run_json(["hm", "limit", intro_weights_file,
                           "--lam", "1", "--support", ""], capsys)
    assert code == 0
    assert rep["result"] == {"exists": True, "limit_support": []}
    code, rep = _run_json(["hm", "limit", intro_weights_file,
                           "--lam", "1", "--support", "0,1"], capsys)
    assert code == 1
    assert rep["result"]["exists"] is False


def test_hm_destabilize(intro_weights_file, capsys):
    code, rep = _run_json(["hm", "destabilize", intro_weights_file,
                           "--support", "0", "--target", "origin"], capsys)
    assert code == 0
    assert rep["result"]["found"] is True
    code, rep = _run_json(["hm", "destabilize", intro_weights_file,
                           "--support", "0,1", "--target", "origin"], capsys)
    assert code == 1


def test_oracle_command(intro_file, capsys):
    code, rep = _run_json(["oracle", intro_file, "--divisor", "D",
                           "--n-max", "2", "--box", "4"], capsys)
    assert code == 0
    assert rep["result"]["faces"] == [[], [1]]


def test_verify_examples(capsys):
    code, rep = _run_json(["verify-examples"], capsys)
    assert code == 0
    assert rep["result"]["all_passed"] is True
    assert len(rep["result"]["checks"]) == 13


def test_exit_2_on_missing_file(capsys):
    code = run(["class-group", "/nonexistent/nope.json", "--json"])
    assert code == 2
    rep = json.loads(capsys.readouterr().out)
    assert "error" in rep["result"]


def test_exit_2_on_unknown_field(tmp_path, capsys):
    data = intro_problem_data()
    data["frobnicate"] = 1
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code = run(["class-group", str(f), "--json"])
    assert code == 2
    rep = json.loads(capsys.readouterr().out)
    assert "unknown fields" in rep["result"]["error"]


def test_exit_2_on_missing_action(tmp_path, capsys):
    data = intro_problem_data()
    del data["action"]
    f = tmp_path / "noact.json"
    f.write_text(json.dumps(data))
    code = run(["chambers", str(f), "--json"])
    assert code == 2


def test_exit_2_on_nonaffine_chambers(tmp_path, capsys):
    data = {"lattice_rank": 1, "rays": [[1], [-1]], "cones": [[0], [1]],
            "action": [[1]]}
    f = tmp_path / "p1.json"
    f.write_text(json.dumps(data))
    code = run(["chambers", str(f), "--json"])
    assert code == 2


@pytest.mark.parametrize("listed", [[[0, 1], [0]], [[0, 1], [0, 1]], [[0, 1], []]])
def test_chambers_of_an_affine_file_that_lists_a_cone_twice_or_a_face(tmp_path, capsys,
                                                                        listed):
    # the repeated key or listed face is no maximal cone, so the fan is the
    # affine plane and its GIT fan is the one-cone file's
    reports = []
    for cones_ in (listed, [[0, 1]]):
        data = {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "cones": cones_,
                "action": [[1, 1]]}
        f = tmp_path / "affine.json"
        f.write_text(json.dumps(data))
        code, rep = _run_json(["chambers", str(f)], capsys)
        assert code == 0
        reports.append(rep["result"])
    assert reports[0] == reports[1] and len(reports[0]["chambers"]) == 2


def test_exit_2_on_a_ray_in_no_cone(tmp_path, capsys):
    # the third ray is no cone of the fan, yet its form would constrain
    # every chart: the locus would be empty instead of all four faces
    data = {"lattice_rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
            "cones": [[0, 1]], "action": [[1, -1]], "divisors": {"D": [0, 0, 0]}}
    f = tmp_path / "unused.json"
    f.write_text(json.dumps(data))
    code, rep = _run_json(["semistable", str(f), "--divisor", "D"], capsys)
    assert code == 2
    assert rep["result"]["error"] == "cones: UnusedRay: rays [2] lie in no maximal cone"


@pytest.mark.parametrize("data, error", [
    ({"rays": [[1, 0], [1, 0]]}, "rays: DuplicateRay: ray (1, 0) listed twice"),
    ({"rays": [[2, 0], [0, 1]]}, "rays: NonPrimitiveRay: ray (2, 0) is not primitive"),
    ({"rays": [[1, 0], []]}, "rays: BadIndex: ray () has wrong length for lattice_rank 2"),
    ({"rays": []}, "cones: BadIndex: ray index 0 out of range for 0 rays"),
    ({"cones": [[0, 2]]}, "cones: BadIndex: ray index 2 out of range for 2 rays"),
    ({"rays": [[1, 0], [-1, 0]]}, "cones: NotPointed: cone on rays [0, 1] contains a line"),
    ({"cones": [[0, 1], [0]]}, None),  # a face listed as maximal is accepted
    ({"rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 1], [2]]},
     "cones: IntersectionNotFace: cone on rays [0, 1] contains rays [2]"),
])
def test_fan_errors_name_their_field(tmp_path, capsys, data, error):
    # the rejection keeps validate_fan's kind and message, after the field
    f = tmp_path / "fan.json"
    f.write_text(json.dumps({"lattice_rank": 2, "rays": [[1, 0], [0, 1]],
                             "cones": [[0, 1]], **data}))
    code, rep = _run_json(["class-group", str(f)], capsys)
    assert (code, rep["result"].get("error")) == ((0, None) if error is None else (2, error))


def test_the_problem_file_is_read_once(tmp_path, capsys, monkeypatch):
    # the digest is the SHA-256 of the bytes that were parsed, read in one
    # open; a second open would find the file rewritten
    f = tmp_path / "quadric.json"
    f.write_text(json.dumps(quadric_problem_data()))
    raw = f.read_bytes()
    real_open, opened = open, []

    def open_counted(path, *args, **kwargs):
        if path == str(f):
            opened.append(path)
            if len(opened) > 1:
                f.write_text("{not json")
        return real_open(path, *args, **kwargs)
    monkeypatch.setattr("builtins.open", open_counted)
    code, rep = _run_json(["class-group", str(f)], capsys)
    assert (code, opened) == (0, [str(f)])
    assert rep["input_digest"] == hashlib.sha256(raw).hexdigest()
    assert rep["result"]["cl_rank"] == 1


@pytest.mark.parametrize("raw, error", [
    (b'{"lattice_rank": 2,\r\r"rays": x}', "invalid JSON at line 3: Expecting value"),
    (b'{"lattice_rank": 2,\r\n"rays": x}', "invalid JSON at line 2: Expecting value"),
    (b'{"lattice_rank": 2, \xff}', "'utf-8' codec can't decode byte 0xff in position 20: "
                                   "invalid start byte"),
])
def test_unreadable_files_keep_their_error_text(tmp_path, capsys, raw, error):
    # a lone carriage return ends a line, as in a file read as text
    f = tmp_path / "bad.json"
    f.write_bytes(raw)
    code, rep = _run_json(["class-group", str(f)], capsys)
    assert (code, rep["result"]["error"]) == (2, error)


def test_exit_3_on_internal_error(quadric_file, capsys, monkeypatch):
    # a maximal member face that fails its chart test breaks an engine
    # invariant of git_chambers: exit 3, not the negative verdict's 1
    import toricgit.actions
    monkeypatch.setattr(toricgit.actions, "chart_witness", lambda *a: None)
    code, rep = _run_json(["chambers", quadric_file], capsys)
    assert code == 3
    assert rep["result"]["error"].startswith("weight-cone locus")


def test_exit_3_when_a_face_escapes_its_chart(quadric_file, capsys, monkeypatch):
    # a face of sigma projects into pi(sigma), so a chart image that misses
    # a projected ray breaks an engine invariant of build_quotient: exit 3,
    # not the bad input's 2
    import toricgit.quotients
    from toricgit.cones import Cone
    chart = toricgit.quotients.QuotientChart
    monkeypatch.setattr(toricgit.quotients, "QuotientChart",
                        lambda key, image, pi: chart(key, Cone(image.ambient_rank, (), ()), pi))
    code, rep = _run_json(["quotient", quadric_file, "--divisor", "Dss"], capsys)
    assert code == 3
    assert rep["result"]["error"] == "projected face escapes the chart image"


def test_json_output_is_deterministic(quadric_file, capsys):
    code1 = run(["semistable", quadric_file, "--divisor", "Dss", "--json"])
    out1 = capsys.readouterr().out
    code2 = run(["semistable", quadric_file, "--divisor", "Dss", "--json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_text_output_renders(quadric_file, capsys):
    code = run(["semistable", quadric_file, "--divisor", "Dss"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("toricgit ")
    assert "faces" in out


def test_input_digest_present(quadric_file, capsys):
    _, rep = _run_json(["class-group", quadric_file], capsys)
    assert isinstance(rep["input_digest"], str)
    assert len(rep["input_digest"]) == 64


def test_failed_replay_exits_1(quadric_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_locus",
                        lambda *a: CheckResult(False, ("chart-is-face",)))
    code, rep = _run_json(["semistable", quadric_file, "--divisor", "Dss",
                           "--check"], capsys)
    assert code == 1
    assert rep["result"]["check"] == {"ok": False, "failures": ["chart-is-face"]}
    assert rep["result"]["faces"] == [[], [0], [2]]


def test_quotient_of_an_empty_locus_exits_1(quadric_file, capsys):
    code, rep = _run_json(["quotient", quadric_file, "--divisor", "D1"], capsys)
    assert code == 1
    assert rep["result"] == {"faces": [], "error": "empty semistable locus"}


def test_hm_without_weights_exits_2(intro_file, capsys):
    code, rep = _run_json(["hm", "limit", intro_file, "--lam", "1",
                           "--support", "0"], capsys)
    assert code == 2
    assert rep["result"] == {"error": "hm commands need a 'weights' field"}


def test_hm_destabilize_into_a_coordinate_set(intro_weights_file, capsys):
    code, rep = _run_json(["hm", "destabilize", intro_weights_file,
                           "--support", "0", "--target", "1"], capsys)
    assert code == 0
    assert rep["result"] == {"found": True, "lambda": [1]}
    code, rep = _run_json(["hm", "destabilize", intro_weights_file,
                           "--support", "0,1", "--target", "0"], capsys)
    assert code == 1
    assert rep["result"] == {"found": False, "lambda": None}


def test_hm_destabilize_under_a_rank_0_action_exits_0(tmp_path, capsys):
    # the destabilizer of a rank-0 action is the empty tuple: found, exit
    # 0, and reported as an empty list, not as null
    data = intro_problem_data()
    data["weights"] = [[], []]
    f = tmp_path / "rank0.json"
    f.write_text(json.dumps(data))
    code, rep = _run_json(["hm", "destabilize", str(f), "--support", "0",
                           "--target", "0"], capsys)
    assert code == 0
    assert rep["result"] == {"found": True, "lambda": []}


@pytest.mark.parametrize("argv, error", [
    # a coordinate past the two weights, or a negative one, is no index
    (["limit", "--lam", "1", "--support", "5"], "expected indices in range(2), got '5'"),
    (["limit", "--lam", "1", "--support", "0,-1"], "expected indices in range(2), got '0,-1'"),
    (["destabilize", "--support", "0", "--target", "1,2"],
     "expected indices in range(2), got '1,2'"),
    (["destabilize", "--support", "7", "--target", "origin"],
     "expected indices in range(2), got '7'"),
    # one-slot weights take a one-entry subgroup
    (["limit", "--lam", "1,2", "--support", "0"], "expected 1 integers, got '1,2'"),
    (["limit", "--lam", "", "--support", "0"], "expected 1 integers, got ''"),
])
def test_hm_rejects_bad_indices_and_lengths_with_exit_2(intro_weights_file, capsys,
                                                        argv, error):
    # each text ends with the shape of the weights that bounds it
    code, rep = _run_json(["hm", argv[0], intro_weights_file, *argv[1:]], capsys)
    assert code == 2
    assert rep["result"] == {"error": error + ", for weights of 2 rows of length 1"}


def test_malformed_characters_exit_2(intro_file, capsys):
    code, rep = _run_json(["trivial-bundle", intro_file, "--character", ""],
                          capsys)
    assert code == 2
    assert rep["result"] == {
        "error": "character has length 0, expected 1, the number of action columns"}
    code, rep = _run_json(["trivial-bundle", intro_file, "--character", "x"],
                          capsys)
    assert code == 2
    assert rep["result"] == {
        "error": "expected comma-separated integers, got 'x'"}


def _module_run(*argv):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(toricgit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "toricgit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point():
    proc = _module_run("--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, toricgit.__version__ + "\n", "")
    proc = _module_run("verify-examples", "--json")
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["result"]["all_passed"] is True


def test_text_rendering_of_a_nested_report(intro_file, capsys):
    code = run(["semistable", intro_file, "--group", "ZD", "--check"])
    assert code == 0
    assert capsys.readouterr().out == f"""\
toricgit {toricgit.__version__} :: semistable {intro_file} --group ZD --check
certificates:
  -
    cartier:
      - [-1, 0]
    chart: [0]
    degree: [-1]
    invertibles:
      -
        degree: [-1]
        witness: [1, 1]
    monomial: [1, 1]
  -
    cartier:
      - [0, 0]
    chart: [1]
    degree: [1]
    invertibles:
      -
        degree: [1]
        witness: [0, 0]
    monomial: [0, 0]
check:
  failures: []
  ok: true
faces:
  - []
  - [0]
  - [1]
"""


def _in_face_order(ss) -> bool:
    keys = [k for k, _ in ss.certificates]
    return keys == sorted(keys, key=lambda k: (len(k), sorted(k)))


def test_engine_loci_list_certificates_in_face_order():
    # the CLI prints certificates in the order the engine lists them
    rng = random.Random(23)
    multi = Counter()
    for _ in range(120):
        fan = random_fan(rng)
        act = random_action(rng, fan)
        D = random_divisor(rng, fan)
        loci = {"divisor": [semistable_divisor(D, random_linearization(rng, act.d),
                                               act, fan)]}
        if any(D.coefficients):
            loci["group"] = [semistable_group(DivisorGroup((D,)),
                                              random_linearization(rng, act.d),
                                              act, fan)]
        if len(fan.maximal_cones) == 1:
            chi = tuple(rng.randint(-2, 2) for _ in range(act.d))
            loci["trivial"] = [mumford_trivial_semistable(chi, act, fan)]
            loci["chambers"] = [loc for _, _, loc in git_chambers(act, fan)]
            loci["obstruction"] = [
                obstruction_report(ss.locus, act, fan).locus
                for ss in loci["divisor"] + loci["chambers"]]
        for kind, sss in loci.items():
            for ss in sss:
                assert _in_face_order(ss), (kind, ss.certificates)
                multi[kind] += len(ss.certificates) >= 2
    # the order is only tested on loci with two or more certificates
    assert all(multi[k] >= 5 for k in
               ("divisor", "group", "trivial", "chambers", "obstruction")), multi
