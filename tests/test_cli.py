import hashlib
import json

import pytest

from srlkit import cli
from srlkit.cli import main
from srlkit.documents import load
from srlkit.errors import VerificationFailure


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def strip_timings(report):
    report = dict(report)
    report.pop("timings", None)
    return report


def test_check_valid(capsys):
    code, report = run_json(capsys, "check", "catalog:c4")
    assert code == 0
    assert report["verdicts"] == {"validate": True, "derived_laws": True}
    assert report["classify"]["de_morgan_monoid"] is True


def test_check_invalid_document(tmp_path, capsys):
    doc = tmp_path / "broken.json"
    text = json.loads(run(capsys, "catalog", "c4")[1])
    text["tables"]["fusion"][1][1] = 2
    doc.write_text(json.dumps(text))
    code, report = run_json(capsys, "check", str(doc))
    assert code == 2  # load rejects it with the embedded axiom report
    assert report["kind"] == "ValidationError"


def test_check_rejects_non_integer_entry(tmp_path, capsys):
    doc = tmp_path / "float.json"
    text = json.loads(run(capsys, "catalog", "c4")[1])
    text["tables"]["join"][1][2] = 2.0
    doc.write_text(json.dumps(text))
    code, report = run_json(capsys, "check", str(doc))
    assert code == 2 and report["kind"] == "ParseError"
    assert report["error"] == "tables.join row 1 column 2 must be an integer, got 2.0"


def test_es_decide_rejects_a_non_string_name(tmp_path, capsys):
    doc = tmp_path / "named.json"
    text = json.loads(run(capsys, "catalog", "c4")[1])
    text["name"] = 5  # a derived algebra's name extends this one
    doc.write_text(json.dumps(text))
    code, report = run_json(capsys, "es-decide", "--variety", str(doc))
    assert code == 2 and report["kind"] == "ParseError"
    assert report["error"] == "name must be a string, got 5"


def test_check_missing_file(capsys):
    code, report = run_json(capsys, "check", "/nonexistent/file.json")
    assert code == 2


def test_unreadable_input_is_an_input_error(tmp_path, capsys):
    code, report = run_json(capsys, "depth", str(tmp_path))
    assert code == 2 and report["kind"] == "IsADirectoryError"


def test_internal_error_exits_3(monkeypatch, capsys):
    def fail(algebra):
        raise VerificationFailure("depth self-check failed")

    monkeypatch.setattr(cli, "depth", fail)
    code, report = run_json(capsys, "depth", "catalog:c4")
    assert code == 3
    assert report == {
        "command": "depth",
        "error": "depth self-check failed",
        "kind": "VerificationFailure",
    }


def test_depth_c4(capsys):
    code, report = run_json(capsys, "depth", "catalog:c4")
    assert code == 0 and report["depth"] == 1


def test_depth_parametrized_catalog(capsys):
    code, report = run_json(capsys, "depth", "catalog:brouwerian_chain(5)")
    assert code == 0 and report["depth"] == 4


def test_dual_command(capsys):
    code, report = run_json(capsys, "dual", "catalog:brouwerian_chain(3)")
    assert code == 0
    assert report["verdicts"]["round_trip"] is True
    assert len(report["points"]) == 3


def test_dual_dot(capsys):
    code, report = run_json(capsys, "dual", "catalog:brouwerian_chain(3)", "--dot")
    assert code == 0 and "digraph" in report["dot"]


def test_dual_wrong_class(capsys):
    code, report = run_json(capsys, "dual", "catalog:c4")
    assert code == 2 and report["kind"] == "NotBrouwerian"


def test_dual_proper_mode_names_the_missing_bottom(capsys):
    # Brouwerian, so not NotBrouwerian itself: the kind names the bound
    code, report = run_json(capsys, "dual", "catalog:brouwerian_chain(3)", "--mode", "proper")
    assert code == 2 and report["kind"] == "NoBottom"
    assert "bottom" in report["error"]


def test_filters_command(capsys):
    code, report = run_json(capsys, "filters", "catalog:c4")
    assert code == 0 and report["count"] == 2
    code, report = run_json(capsys, "filters", "catalog:brouwerian_diamond", "--prime")
    assert code == 0 and report["count"] == 3


def test_reflect_command(tmp_path, capsys):
    out_path = tmp_path / "reflected.json"
    code, report = run_json(
        capsys, "reflect", "catalog:brouwerian_chain(2)", "-o", str(out_path)
    )
    assert code == 0
    written = load(out_path.read_text())
    assert written.size == 6


def test_reflect_rejects_involutive_input(tmp_path, capsys):
    code, report = run_json(
        capsys, "reflect", "catalog:c4", "-o", str(tmp_path / "x.json")
    )
    assert code == 2 and report["kind"] == "WrongSignature"


def test_epic_command_negative(capsys):
    code, report = run_json(
        capsys, "epic", "catalog:brouwerian_chain(3)",
        "--sub", "0,2", "--variety", "catalog:brouwerian_chain(3)",
    )
    assert code == 1
    assert report["verdicts"]["epic"] is False
    assert report["witness"]["first_map"] != report["witness"]["second_map"]


def test_epic_command_positive(capsys):
    code, report = run_json(
        capsys, "epic", "catalog:crystal",
        "--sub", "0,1,2,4,5", "--variety", "catalog:crystal",
    )
    assert code == 0 and report["verdicts"]["epic"] is True


def test_epic_sub_as_catalog_uri(capsys):
    # the odd three-element chain embeds into the five-element one as the
    # even-index subalgebra, which the refutation machinery separates
    code, report = run_json(
        capsys, "epic", "catalog:sugihara(5)",
        "--sub", "catalog:sugihara(3)", "--variety", "catalog:sugihara(5)",
    )
    assert code == 1
    assert report["subalgebra"] == [0, 2, 4]
    code, report = run_json(
        capsys, "refute-epic", "catalog:sugihara(5)", "--sub", "0,2,4"
    )
    assert code == 0 and report["verdicts"]["refuted"] is True


def test_epic_sub_as_document(tmp_path, capsys):
    sub_doc = tmp_path / "sub.json"
    _, text = run(capsys, "catalog", "brouwerian_chain(2)")
    sub_doc.write_text(text)
    code, report = run_json(
        capsys, "epic", "catalog:brouwerian_chain(3)",
        "--sub", str(sub_doc), "--variety", "catalog:brouwerian_chain(3)",
    )
    assert code in (0, 1)
    assert len(report["subalgebra"]) == 2


def test_refute_epic_command(capsys):
    code, report = run_json(
        capsys, "refute-epic", "catalog:brouwerian_chain(4)", "--sub", "0,2,3"
    )
    assert code == 0
    assert report["verdicts"]["refuted"] is True
    assert report["case"] == "nested"
    assert report["first_filter"] == [1, 2, 3]
    assert report["second_filter"] == [2, 3]
    assert report["retraction"] == [0, 2, 2]


def test_refute_epic_reports_the_target_name(capsys):
    # the quotient's derived name reaches the report bytes
    code, report = run_json(
        capsys, "refute-epic", "catalog:brouwerian_chain(4)", "--sub", "0,2,3"
    )
    assert code == 0
    assert report["target"] == {"name": "brouwerian_chain(4)/θ", "size": 3}


@pytest.mark.parametrize(
    "name, sub, expected",
    [
        (
            "brouwerian_chain(4)", "0,2,3",
            {"case": "nested", "congruence": [0, 1, 2, 2], "retraction": [0, 2, 2],
             "first_map": [0, 2, 2, 2], "second_map": [0, 1, 2, 2], "witness": 1},
        ),
        (
            "sugihara(5)", "0,2,4",
            {"case": "nested", "congruence": [0, 1, 2, 3, 4], "retraction": [0, 2, 2, 2, 4],
             "first_map": [0, 2, 2, 2, 4], "second_map": [0, 1, 2, 3, 4], "witness": 1},
        ),
    ],
)
def test_refute_epic_report_maps(capsys, name, sub, expected):
    # the certificate's maps, byte for byte, so a wrong retraction shows
    code, report = run_json(capsys, "refute-epic", f"catalog:{name}", "--sub", sub)
    assert code == 0
    assert {key: report[key] for key in expected} == expected


def test_refute_epic_hypotheses_not_met(capsys):
    code, report = run_json(
        capsys, "refute-epic", "catalog:crystal", "--sub", "0,1,2,4,5"
    )
    assert code == 1
    assert report["verdicts"]["refuted"] is False
    assert "negatively generated" in report["reason"]


def test_sub_index_outside_the_carrier_is_an_input_error(capsys):
    for argv in (
        ("epic", "catalog:brouwerian_chain(4)", "--sub", "0,3,99",
         "--variety", "catalog:brouwerian_chain(4)"),
        ("refute-epic", "catalog:brouwerian_chain(4)", "--sub", "0,3,99"),
    ):
        code, report = run_json(capsys, *argv)
        assert code == 2 and report["kind"] == "NotASubalgebra"
        assert report["error"] == "element 99 is outside 0..3 (size 4)"


@pytest.mark.parametrize("sub", ["", " "])
def test_empty_sub_is_a_parse_error(capsys, sub):
    # an empty --sub used to be opened as a document path: FileNotFoundError
    for argv in (
        ("epic", "catalog:brouwerian_chain(4)", "--sub", sub,
         "--variety", "catalog:brouwerian_chain(4)"),
        ("refute-epic", "catalog:brouwerian_chain(4)", "--sub", sub),
    ):
        code, report = run_json(capsys, *argv)
        assert code == 2 and report["kind"] == "ParseError"
        assert report["error"] == f"--sub must be indices i,j,... or an algebra, got {sub!r}"


@pytest.mark.parametrize(
    "name, sub, members", [("brouwerian_chain(4)", "0,1", [0, 1]), ("crystal", "0,1,5", [0, 1, 5])]
)
def test_sub_that_is_not_a_subuniverse_is_an_input_error(capsys, name, sub, members):
    # refute-epic used to exit 1 with "B is not a subalgebra", a negative answer
    for argv in (
        ("epic", f"catalog:{name}", "--sub", sub, "--variety", f"catalog:{name}"),
        ("refute-epic", f"catalog:{name}", "--sub", sub),
    ):
        code, report = run_json(capsys, *argv)
        assert code == 2 and report["kind"] == "NotASubalgebra"
        assert report["error"] == f"{members} is not a subuniverse"


def test_es_decide_commands(capsys):
    code, report = run_json(capsys, "es-decide", "--variety", "catalog:c4")
    assert code == 0 and report["verdicts"]["es"] is True
    code, report = run_json(capsys, "es-decide", "--variety", "catalog:crystal")
    assert code == 1 and report["verdicts"]["es"] is False
    assert report["witness"]["algebra"]["size"] == 6
    assert len(report["witness"]["subalgebra"]) == 5


def test_gate_commands(capsys):
    code, report = run_json(capsys, "gate", "--variety", "catalog:c4")
    assert code == 0 and report["verdicts"]["gate"] is True
    assert report["members"][0]["depth"] == 1
    code, report = run_json(capsys, "gate", "--variety", "catalog:crystal")
    assert code == 1 and report["verdicts"]["gate"] is False


def test_enumerate_command(capsys):
    code, report = run_json(
        capsys, "enumerate", "--class", "brouwerian", "--max-size", "4"
    )
    assert code == 0
    assert report["counts"] == {"1": 1, "2": 1, "3": 1, "4": 2}
    code, report = run_json(
        capsys, "enumerate", "--class", "brouwerian", "--max-size", "7"
    )
    assert code == 2 and report["kind"] == "BoundExceeded"
    code, report = run_json(
        capsys, "enumerate", "--class", "brouwerian", "--max-size", "7",
        "--bound", "8",
    )
    assert code == 0 and report["total"] == 21


def test_enumerate_rejects_negative_sizes(capsys):
    code, report = run_json(capsys, "enumerate", "--class", "srl", "--max-size", "-1")
    assert code == 2 and report["kind"] == "ValueError"
    assert report["error"] == "max_size must not be negative, got -1"
    code, report = run_json(
        capsys, "enumerate", "--class", "srl", "--max-size", "3", "--bound", "-5"
    )
    assert code == 2 and report["kind"] == "ValueError"
    assert report["error"] == "bound must not be negative, got -5"


def test_enumerate_dump_loads(capsys):
    code, report = run_json(
        capsys, "enumerate", "--class", "sirl", "--max-size", "3", "--dump"
    )
    assert code == 0
    for doc in report["models"]:
        assert load(json.dumps(doc)).size <= 3


def test_catalog_command_emits_loadable_document(capsys):
    code, out = run(capsys, "catalog", "crystal")
    assert code == 0
    assert load(out).size == 6
    code, out = run(capsys, "catalog", "catalog:sugihara(5)")
    assert code == 0 and load(out).size == 5


@pytest.mark.parametrize("command", ["catalog", "depth", "check"])
def test_an_oversized_catalog_name_exits_2_before_building(capsys, command):
    # 10^10 cells at 100,000 elements: the guard reads the parameter first
    code, report = run_json(capsys, command, "catalog:brouwerian_chain(100000)")
    assert code == 2 and report["kind"] == "BoundExceeded"
    assert report["error"] == (
        "brouwerian_chain(100000) has 100000 elements, above the size bound 256; "
        "pass --bound to raise it"
    )


def test_an_oversized_document_exits_2_before_its_tables_are_read(tmp_path, capsys):
    doc = tmp_path / "large.json"
    text = json.loads(run(capsys, "catalog", "c4")[1])
    text["size"] = 100000  # the tables are c4's, so only the size is checked
    doc.write_text(json.dumps(text))
    code, report = run_json(capsys, "check", str(doc))
    assert code == 2 and report["kind"] == "BoundExceeded"
    assert report["error"] == (
        "the document's size 100000 is above the size bound 256; pass --bound to raise it"
    )
    # past the bound the tables are read, and they do not fit the size
    code, report = run_json(capsys, "check", str(doc), "--bound", "100000")
    assert code == 2 and report["kind"] != "BoundExceeded"


def test_bound_overrides_the_size_guard(capsys):
    code, report = run_json(capsys, "depth", "catalog:sugihara(5)", "--bound", "4")
    assert code == 2 and report["kind"] == "BoundExceeded" and "size bound 4" in report["error"]
    assert run_json(capsys, "depth", "catalog:sugihara(5)", "--bound", "5")[0] == 0
    code, report = run_json(capsys, "es-decide", "--variety", "catalog:c4", "--bound", "-1")
    assert code == 2 and report["error"] == "bound must not be negative, got -1"


def test_catalog_unknown(capsys):
    code, report = run_json(capsys, "catalog", "unknown_thing")
    assert code == 2 and report["kind"] == "UnknownName"
    code, report = run_json(capsys, "depth", "catalog:Not-A-Name")
    assert code == 2 and report["kind"] == "UnknownName"


def test_reports_are_deterministic(capsys):
    _, first = run_json(capsys, "es-decide", "--variety", "catalog:crystal")
    _, second = run_json(capsys, "es-decide", "--variety", "catalog:crystal")
    assert strip_timings(first) == strip_timings(second)


# every subcommand's success, negative (exit 1) and error (exit 2) paths;
# documents are written to the working directory so the echoed paths are fixed
_DIGEST_COMMANDS = (
    ("check", "catalog:c4"),
    ("check", "c2.json"),
    ("check", "/nonexistent/file.json"),
    ("dual", "catalog:brouwerian_chain(3)"),
    ("dual", "catalog:brouwerian_chain(3)", "--dot"),
    ("dual", "catalog:heyting_chain(3)", "--mode", "proper"),
    ("dual", "catalog:c4"),
    ("depth", "catalog:brouwerian_chain(5)"),
    ("depth", "catalog:Not-A-Name"),
    ("filters", "catalog:c4"),
    ("filters", "catalog:brouwerian_diamond", "--prime"),
    ("filters", "catalog:sugihara(4)"),
    ("reflect", "catalog:brouwerian_chain(2)", "-o", "reflected.json"),
    ("reflect", "catalog:c4", "-o", "unused.json"),
    ("epic", "catalog:crystal", "--sub", "0,1,2,4,5", "--variety", "catalog:crystal"),
    ("epic", "catalog:brouwerian_chain(3)", "--sub", "0,2",
     "--variety", "catalog:brouwerian_chain(3)"),
    ("epic", "catalog:sugihara(5)", "--sub", "catalog:sugihara(3)",
     "--variety", "catalog:sugihara(5)", "catalog:c4"),
    ("epic", "catalog:brouwerian_chain(3)", "--sub", "c2.json",
     "--variety", "catalog:brouwerian_chain(3)"),
    ("epic", "catalog:brouwerian_chain(4)", "--sub", "0,3,99",
     "--variety", "catalog:brouwerian_chain(4)"),
    ("epic", "catalog:brouwerian_chain(3)", "--sub", "catalog:crystal",
     "--variety", "catalog:brouwerian_chain(3)"),
    ("refute-epic", "catalog:brouwerian_chain(4)", "--sub", "0,2,3"),
    ("refute-epic", "catalog:crystal", "--sub", "0,1,2,4,5"),
    ("refute-epic", "catalog:brouwerian_chain(4)", "--sub", "0,3,99"),
    ("es-decide", "--variety", "catalog:c4"),
    ("es-decide", "--variety", "catalog:c4", "catalog:brouwerian_chain(3)"),
    ("es-decide", "--variety", "catalog:crystal"),
    ("es-decide", "--variety", "catalog:nothing"),
    ("gate", "--variety", "catalog:c4"),
    ("gate", "--variety", "catalog:crystal"),
    ("gate", "--variety", "catalog:sugihara(2)"),
    ("enumerate", "--class", "brouwerian", "--max-size", "4"),
    ("enumerate", "--class", "sirl", "--max-size", "3", "--dump"),
    ("enumerate", "--class", "brouwerian", "--max-size", "7"),
    ("catalog", "crystal"),
    ("catalog", "unknown_thing"),
)


def test_reports_match_the_recorded_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c2.json").write_text(run(capsys, "catalog", "brouwerian_chain(2)")[1])
    digest = hashlib.sha256()
    for argv in _DIGEST_COMMANDS:
        code, report = run_json(capsys, *argv)
        record = [list(argv), code, strip_timings(report)]
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == "8e4a90c0f6c914e7e34575652fd88b0377251417c17210dbf13ed7a534ae1fcb"


def test_a_report_that_cannot_be_written_exits_3(monkeypatch, capsys):
    # a failure while serializing must not escape main, where it would exit 1
    monkeypatch.setattr(cli, "_algebra_summary", lambda algebra: object())
    code, report = run_json(capsys, "es-decide", "--variety", "catalog:crystal")
    assert code == 3 and report["kind"] == "TypeError"
