import json

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


def test_catalog_unknown(capsys):
    code, report = run_json(capsys, "catalog", "unknown_thing")
    assert code == 2 and report["kind"] == "UnknownName"
    code, report = run_json(capsys, "depth", "catalog:Not-A-Name")
    assert code == 2 and report["kind"] == "UnknownName"


def test_reports_are_deterministic(capsys):
    _, first = run_json(capsys, "es-decide", "--variety", "catalog:crystal")
    _, second = run_json(capsys, "es-decide", "--variety", "catalog:crystal")
    assert strip_timings(first) == strip_timings(second)
