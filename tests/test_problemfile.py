"""JSON problem-file parsing and rejection messages."""

import json
import re

import pytest

from toricgit.cli import run
from toricgit.problemfile import ParseError, load_problem, parse_problem

from genutil import fuzz_cli


def _base():
    return {
        "lattice_rank": 2,
        "rays": [[1, 0], [0, 1]],
        "cones": [[0, 1]],
        "action": [[1, -1]],
        "divisors": {"D": [1, 0]},
        "group": {"ZD": ["D"]},
    }


def test_parse_roundtrip():
    p = parse_problem(_base())
    assert p.fan.ambient_rank == 2
    assert p.action is not None and p.action.d == 1
    assert p.divisor("D").coefficients == (1, 0)
    grp, lin = p.group("ZD")
    assert grp.rank == 1
    assert lin.shifts == ((0,),)


def test_rejects_unknown_field():
    data = _base()
    data["color"] = "blue"
    with pytest.raises(ParseError, match="unknown fields"):
        parse_problem(data)


def test_rejects_missing_required():
    data = _base()
    del data["rays"]
    with pytest.raises(ParseError, match="rays"):
        parse_problem(data)


def test_rejects_non_integer_entries():
    data = _base()
    data["rays"] = [[1, 0.5], [0, 1]]
    with pytest.raises(ParseError, match="rays"):
        parse_problem(data)
    data = _base()
    data["rays"] = [[1, True], [0, 1]]
    with pytest.raises(ParseError):
        parse_problem(data)


def test_rejects_divisor_length_mismatch():
    data = _base()
    data["divisors"] = {"D": [1, 0, 0]}
    with pytest.raises(ParseError, match="coefficients"):
        parse_problem(data)


def test_rejects_shift_for_unknown_divisor():
    data = _base()
    data["shifts"] = {"E": [1]}
    with pytest.raises(ParseError, match="unknown divisor"):
        parse_problem(data)


def test_rejects_group_with_unknown_divisor():
    data = _base()
    data["group"] = {"G": ["E"]}
    with pytest.raises(ParseError, match="unknown divisor"):
        parse_problem(data)


def test_group_as_plain_list():
    data = _base()
    data["group"] = ["D"]
    p = parse_problem(data)
    grp, _ = p.group("G")
    assert grp.rank == 1


def test_shift_length_checked_on_use():
    data = _base()
    data["shifts"] = {"D": [1, 2]}
    p = parse_problem(data)
    with pytest.raises(ParseError, match="length"):
        p.linearization_for("D")


def test_weights_parsed():
    data = _base()
    data["weights"] = [[1, 0], [0, 1]]
    p = parse_problem(data)
    assert p.weights == ((1, 0), (0, 1))


def test_unknown_names_raise():
    p = parse_problem(_base())
    with pytest.raises(ParseError):
        p.divisor("nope")
    with pytest.raises(ParseError):
        p.group("nope")


def test_load_problem_bad_json(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_problem(f.read_bytes())


def test_load_problem_file(tmp_path):
    f = tmp_path / "ok.json"
    f.write_text(json.dumps(_base()))
    p = load_problem(f.read_bytes())
    assert p.fan.rays == ((1, 0), (0, 1))


def test_given_shifts_reach_divisor_and_group_linearizations():
    data = _base()
    data["divisors"]["E"] = [0, 1]
    data["shifts"] = {"D": [3]}
    data["group"] = {"G": ["D", "E"]}
    p = parse_problem(data)
    assert p.shift_for("D", 1) == (3,)
    assert p.linearization_for("D").shifts == ((3,),)
    # a divisor without a given shift is linearized by the zero character
    assert p.group("G")[1].shifts == ((3,), (0,))


@pytest.mark.parametrize("field, value, named", [
    # each once raised an uncaught exception (a traceback, exit 1)
    ("divisors", [None], "divisors"),
    ("cones", [-1], "cones[0]"),
    ("rays", 5, "rays"),
    ("weights", 3, "weights"),
    ("action", 3, "action"),
    # and each was once read silently as the cone [0, 1] or [1]
    ("cones", ["01"], "cones[0]"),
    ("cones", [[0.5, 1]], "cones[0]"),
    ("cones", [[True, 1]], "cones[0]"),
])
def test_malformed_field_is_exit_2_naming_it(tmp_path, capsys, field, value, named):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"lattice_rank": 2, "rays": [[1, 0], [0, 1]],
                             "cones": [[0, 1]], field: value}))
    assert run(["class-group", str(f), "--json"]) == 2
    error = json.loads(capsys.readouterr().out)["result"]["error"]
    assert error.startswith(named + (":" if "[" in named else " "))


def test_weights_rows_of_mixed_length_name_the_row(tmp_path, capsys):
    # once the bare "weight vectors have mixed dimensions" of LinearAction
    data = {**_base(), "weights": [[1, 0], [0, 1], [2]]}
    with pytest.raises(ParseError, match=re.escape(
            "weights[2]: length 1, expected 2 as in weights[0]")):
        parse_problem(data)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    assert run(["hm", "destabilize", str(f), "--support", "0", "--target", "origin",
                "--json"]) == 2
    error = json.loads(capsys.readouterr().out)["result"]["error"]
    assert error == "weights[2]: length 1, expected 2 as in weights[0]"


def test_mutated_files_exit_with_a_documented_code(tmp_path):
    # the built-in problems with one or two fields, or one entry, replaced
    # by junk, through every subcommand: an answer, a negative verdict or
    # an input error, never a traceback and never an engine error (3)
    codes, raised, errors = fuzz_cli(1, 300, str(tmp_path))
    assert raised == []
    assert set(codes) <= {0, 1, 2} and codes[2] > 200 and codes[0] > 10, codes
    # an input error from junk in one of these fields alone names that
    # field: the rays or the cones first, or as the ray count a cone index
    # points past; the rank, the divisors, the action or the weights as a
    # word of the report
    named = dict.fromkeys(["rays", "cones", "lattice_rank", "divisors", "action",
                           "weights"], 0)
    for fields, error in errors:
        if len(fields) == 1 and fields[0] in named:
            (field,) = fields
            if field in ("rays", "cones"):
                assert error.startswith(field) or error.endswith(f" {field}"), (field, error)
            else:
                assert re.search(rf"\b{field}\b", error), (field, error)
            named[field] += 1
    assert min(named.values()) >= 10, named
