"""CLI behavior: exit codes, formats, and error handling."""

import io
import json
import subprocess
import sys

import pytest

from actualcause import cli
from actualcause.cli import main
from actualcause.corpus import fixture_path


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def fx(name):
    return str(fixture_path(name))


def test_check_answers_with_exit_zero_either_way():
    code, out, _ = run(["check", fx("poisoning.scm.txt"),
                        "cause R=1 for D=1 @ u11"])
    assert code == 0
    assert "is_cause: no" in out


def test_parse_error_exits_one(tmp_path):
    bad = tmp_path / "bad.scm.txt"
    bad.write_text("var F : {0,1} = max(L, M)\n", encoding="utf-8")
    code, out, err = run(["check", str(bad), "cause F=1 for F=1 @ c"])
    assert code == 1
    assert "undeclared variable" in err


def test_unknown_context_exits_one():
    code, _, err = run(["check", fx("poisoning.scm.txt"),
                        "cause A=1 for D=1 @ missing"])
    assert code == 1
    assert "missing" in err


def test_an_unexpected_fault_in_a_runner_exits_three(monkeypatch):
    def fail(*args):
        raise RuntimeError("invariant broken")

    kinds, _ = cli._QUERY_COMMANDS["check"]
    monkeypatch.setitem(cli._QUERY_COMMANDS, "check", (kinds, fail))
    code, out, err = run(["check", fx("poisoning.scm.txt"), "cause R=1 for D=1 @ u11"])
    assert (code, out, err) == (3, "", "internal error: invariant broken\n")


def test_budget_cap_exits_two():
    code, _, err = run(["check", fx("causal_chain.scm.txt"),
                        "cause M=1 for ES=1 @ main", "--max-search", "4"])
    assert code == 2
    assert "budget" in err


def test_extended_mode_without_normality_exits_one():
    code, _, err = run(["check", fx("poisoning.scm.txt"),
                        "cause A=1 for D=1 @ u11", "--mode", "extended"])
    assert code == 1
    assert "extended mode" in err


def test_grade_requires_extended_mode():
    code, _, err = run(["grade", fx("legal_fire.scm.txt"),
                        "grade {AN=1, BC=1} for F=1 @ careless"])
    assert code == 1
    assert "extended" in err


def test_validate_reports_problems(tmp_path):
    looped = tmp_path / "loop.scm.txt"
    looped.write_text(
        "var X : {0,1} = Y\nvar Y : {0,1} = X\n", encoding="utf-8"
    )
    code, out, _ = run(["validate", str(looped), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is False
    assert any(p["kind"] == "cycle" for p in payload["problems"])


def test_validate_ok_text():
    code, out, _ = run(["validate", fx("poisoning.scm.txt")])
    assert code == 0 and out.strip() == "model: ok"


def test_solve_accepts_selector_and_flag():
    code1, out1, _ = run(["solve", fx("poisoning.scm.txt"), "@u11"])
    code2, out2, _ = run(["solve", fx("poisoning.scm.txt"),
                          "--context", "u11"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "(A=1, R=1, B=0, D=1)" in out1


def test_solve_selector_drops_exactly_one_at_sign():
    code, out, err = run(["solve", fx("poisoning.scm.txt"), "@@u11"])
    assert code == 1 and out == ""
    assert "error: unknown context @u11" in err


def test_solve_without_context_uses_single_solve_query():
    code, out, _ = run(["solve", fx("poisoning.scm.txt")])
    assert code == 0 and "A=1" in out


def test_document_queries_run_when_no_inline_query():
    code, out, _ = run(["check", fx("bogus_prevention.scm.txt"),
                        "--format", "json", "--mode", "extended"])
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 2
    assert [p["is_cause"] for p in payload] == [False, False]


def test_no_matching_queries_exits_one():
    code, _, err = run(["grade", fx("poisoning.scm.txt")])
    assert code == 1
    assert "query" in err


def test_witnesses_accepts_cause_query_text():
    code, out, _ = run(["witnesses", fx("forest_fire_disjunctive.scm.txt"),
                        "cause L=1 for F=1 @ u11", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["witnesses"][0]["world"] == {"L": 0, "M": 0, "F": 0}


def test_json_and_text_cover_same_verdict():
    argv = ["check", fx("short_circuit.scm.txt"),
            "cause A=1 for VS=1 @ main", "--mode", "extended"]
    code, text_out, _ = run(argv)
    code2, json_out, _ = run(argv + ["--format", "json"])
    assert code == code2 == 0
    payload = json.loads(json_out)
    assert payload["is_cause"] is False
    assert "is_cause: no" in text_out
    assert "incomparable" in text_out and "inadmissible" in text_out


@pytest.mark.parametrize("name, query", [
    ("causal_chain.scm.txt", "cause LL=1 for ES=1 @ main"),
    ("short_circuit_intentions.scm.txt", "cause A=1 for VS=1 @ main"),
])
def test_an_extended_check_marks_no_world_the_search_did_not(name, query, monkeypatch):
    # The run wraps the document's order once, so each witness's relation to
    # the actual world reads the marks that the search already computed.
    from actualcause import dsl, normality
    from actualcause.graded import ExtendedCausalModel, is_extended_cause

    marked = []
    world_marks = normality.world_marks

    def counting_marks(order, world):
        marked.append(world.values)
        return world_marks(order, world)

    monkeypatch.setattr(normality, "world_marks", counting_marks)
    code, out, _ = run(["check", fx(name), query, "--mode", "extended", "--format", "json"])
    assert code == 0 and json.loads(out)["witnesses"]
    by_cli = len(marked)
    marked.clear()
    document = dsl.parse_document(fixture_path(name).read_text(encoding="utf-8"))
    parsed = dsl.parse_query(query, document)
    is_extended_cause(ExtendedCausalModel(document.model, document.normality_order()),
                      document.contexts[parsed.context], parsed.cause, parsed.effect)
    assert by_cli <= len(marked)


def test_missing_file_exits_one():
    code, _, err = run(["check", "nope.scm.txt", "cause A=1 for B=1 @ c"])
    assert code == 1
    assert "cannot read" in err


def test_context_flag_filters_document_queries():
    code, out, _ = run(["grade", fx("legal_fire.scm.txt"), "--mode", "extended",
                        "--context", "malicious", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["query"].endswith("@ malicious")
    code, _, err = run(["grade", fx("legal_fire.scm.txt"), "--mode", "extended",
                        "--context", "nowhere"])
    assert code == 1


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "actualcause.cli", "solve",
         fx("poisoning.scm.txt"), "@u11"],
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0
    assert "(A=1, R=1, B=0, D=1)" in result.stdout


def _document(tmp_path, text):
    path = tmp_path / "doc.scm.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


DEEP_MODEL = "exo U : {0,1}\nvar F : {0,1} = U\ncontext c : U=1\n"


def test_a_model_of_one_endogenous_variable_is_answered(tmp_path):
    path = _document(tmp_path, DEEP_MODEL + "typical F = 0 > 1\n")
    for argv in (["check", path, "cause F=1 for F=1 @ c"],
                 ["check", path, "cause F=1 for F=1 @ c", "--all-causes", "1"],
                 ["witnesses", path, "cause F=1 for F=1 @ c"],
                 ["grade", path, "grade {F=1} for F=1 @ c", "--mode", "extended"]):
        code, out, err = run(argv + ["--format", "json"])
        assert (code, err) == (0, ""), argv
    assert json.loads(out)["candidates"][0]["best_witnesses"] == [{"F": 0}]
    code, out, _ = run(["check", path, "cause F=1 for F=1 @ c", "--all-causes", "1"])
    assert (code, out) == (0, "query: all-causes k=1 for F=1 @ c\ncauses:\n  F=1\n")


def test_deep_parentheses_exit_one(tmp_path):
    body = "(" * 2000 + "F=1" + ")" * 2000
    path = _document(tmp_path, DEEP_MODEL + f"satisfies {body} @ c\n")
    code, _, err = run(["satisfies", path, "--format", "json"])
    assert code == 1
    assert err.startswith("error: 4:") and "nesting deeper than" in err


def test_deep_negation_exits_one(tmp_path):
    path = _document(tmp_path, DEEP_MODEL)
    code, _, err = run(["check", path, "cause F=1 for " + "!" * 3000 + "F=1 @ c"])
    assert code == 1
    assert err.startswith("error:") and "nesting deeper than" in err


def test_flat_sum_of_1500_terms_exits_one(tmp_path):
    terms = " + ".join(["U"] * 1500)
    path = _document(tmp_path, DEEP_MODEL + f"var G : {{0,1}} = min(1, {terms})\n")
    code, out, err = run(["solve", path])
    assert code == 1
    assert out == ""
    assert err.startswith("error: 4:") and "nesting deeper than" in err
    assert len(err.splitlines()) == 1


def test_satisfies_body_may_start_with_a_group(tmp_path):
    path = _document(tmp_path, DEEP_MODEL + "satisfies (F=0) | F=1 @ c\n"
                                            "satisfies (F=0) & F=1 @ c\n")
    code, out, _ = run(["satisfies", path, "--format", "json"])
    assert code == 0
    assert [answer["holds"] for answer in json.loads(out)] == [True, False]


def test_nested_table_without_a_row_is_reported_by_validate(tmp_path):
    path = _document(tmp_path, "exo A : {0,1}\n"
                               "var X : {0,1} = min(1, table(A){(0) -> 1})\n"
                               "context c : A=1\n")
    code, out, err = run(["validate", path])
    assert (code, err) == (0, "")
    assert out == ("model: invalid\n  totality: equation for X has no value at "
                   "{'A': 1}: table(A) has no row for (1,)\n")
    code, out, err = run(["solve", path, "@c"])
    assert (code, out) == (1, "")
    assert err.startswith("error: model failed validation: equation for X")


def test_nesting_one_under_the_cap_is_answered(tmp_path):
    from actualcause.dsl import MAX_NESTING

    body = "!" * (MAX_NESTING - 1) + "F=1"
    path = _document(tmp_path, DEEP_MODEL + f"satisfies {body} @ c\n")
    code, out, _ = run(["satisfies", path, "--format", "json"])
    assert code == 0
    assert json.loads(out)["holds"] is False


def test_budget_error_on_a_long_chain_is_one_short_line(tmp_path):
    links = ["var X0 : {0,1} = U"] + [f"var X{i} : {{0,1}} = X{i - 1}"
                                     for i in range(1, 1500)]
    path = _document(tmp_path, "\n".join(["exo U : {0,1}", *reversed(links),
                                          "context c : U=1"]))
    code, out, err = run(["check", path, "cause X1498=1 for X1499=1 @ c"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: witness search needs at least 2^")
    assert len(err.splitlines()) == 1 and len(err) < 200


def test_all_causes_needs_at_least_one_conjunct():
    for k in ("0", "-1"):
        code, out, err = run(["check", fx("forest_fire_disjunctive.scm.txt"),
                              "cause L=1 for F=1 @ u11", "--all-causes", k])
        assert (code, out) == (1, "")
        assert err == "error: max_conjuncts must be at least 1\n"


def test_all_causes_past_the_model_size_sweeps_every_size_at_once():
    # Three endogenous variables: sizes past 3 hold no candidate.
    argv = [sys.executable, "-m", "actualcause.cli", "check",
            fx("forest_fire_disjunctive.scm.txt"), "cause L=1 for F=1 @ u11",
            "--format", "json", "--all-causes"]
    small = subprocess.run(argv + ["3"], capture_output=True, text=True, timeout=30)
    huge = subprocess.run(argv + [str(10 ** 12)], capture_output=True, text=True,
                          timeout=30)
    assert small.returncode == huge.returncode == 0
    assert json.loads(huge.stdout) == {
        "query": "all-causes k=1000000000000 for F=1 @ u11",
        "causes": json.loads(small.stdout)["causes"],
    }


def test_all_causes_text_lists_each_cause_on_its_own_line():
    code, out, err = run(["check", fx("forest_fire_disjunctive.scm.txt"),
                          "cause F=1 for F=1 @ u11", "--all-causes", "2"])
    assert (code, err) == (0, "")
    assert out == "query: all-causes k=2 for F=1 @ u11\ncauses:\n  L=1\n  M=1\n  F=1\n"


def test_all_causes_sweeps_run_in_plain_mode_only():
    code, out, err = run(["check", fx("forest_fire_disjunctive.scm.txt"),
                          "cause F=1 for F=1 @ u11", "--all-causes", "2",
                          "--mode", "extended"])
    assert (code, out) == (1, "")
    assert err == "error: --all-causes sweeps run in plain mode\n"


def test_a_query_of_another_kind_is_a_usage_error():
    code, out, err = run(["check", fx("forest_fire_disjunctive.scm.txt"), "solve @ u11"])
    assert (code, out) == (1, "")
    assert err == "error: the check command expects a matching query kind\n"


def test_grade_reports_the_candidate_above_the_other():
    # In omission (a) W=0 is no cause; in (c) both are, and H=1's best
    # witness wins.
    for name in ("omission_a.scm.txt", "omission_c.scm.txt"):
        argv = ["grade", fx(name), "grade {W=0, H=1} for D=1 @ main", "--mode", "extended"]
        code, out, _ = run(argv + ["--format", "json"])
        assert code == 0
        assert json.loads(out)["grading"] == [{"above": "H=1", "below": "W=0"}]
        code, out, _ = run(argv)
        assert code == 0
        assert "  H=1 above W=0" in out.splitlines()


@pytest.mark.parametrize("argv", [
    ["validate", "forest_fire_disjunctive.scm.txt", "--mode", "hp"],
    ["validate", "forest_fire_disjunctive.scm.txt", "--context", "u11"],
    ["solve", "forest_fire_disjunctive.scm.txt", "@u11", "--max-search", "5"],
    ["satisfies", "forest_fire_disjunctive.scm.txt", "--mode", "extended"],
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    command, name, *rest = argv
    code, out, _ = run([command, fx(name), *rest])
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: actualcause ")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


SPEC_BASE = ("exo U : {0,1}\nvar A : {0,1} = U\nvar B : {0,1} = A\n"
             "typical A = 0 > 1\ncontext c : U=1\n")


def test_spec_and_query_faults_are_located_in_every_command(tmp_path):
    unranked = SPEC_BASE.replace("typical A = 0 > 1\n", "")
    faulty = [
        (SPEC_BASE + "typical B = 0 > 1\nseverity A=1 < B=1 < A=1\n",
         "error: 7:22: severity chain repeats a feature"),
        (SPEC_BASE + 'mechanism on\nbehavior B : "same" = A > "same" = 1\n',
         "error: 7:10: behavior ranking for B repeats a label"),
        (SPEC_BASE + "satisfies [A<-0, A<-1](B=1) @ c\n",
         "error: 6:18: intervention repeats variable A"),
        (SPEC_BASE + "norm (A=0, B=0) > (A=1, B=1)\n",
         "error: 6:1: document declares both typicality and explicit norm "
         "relations; pick one source for the ordering"),
        (unranked + "norm (A=0, B=0) > (A=1, B=1)\nnorm (A=1, B=1) > (A=0, B=0)\n",
         "error: 5:1: relations make (A=0, B=0) and (A=1, B=1) strictly more "
         "normal than each other (via (A=1, B=1) >= (A=0, B=0))\n"
         "error: 6:1: relations make (A=1, B=1) and (A=0, B=0) strictly more "
         "normal than each other (via (A=0, B=0) >= (A=1, B=1))"),
    ]
    for text, message in faulty:
        path = _document(tmp_path, text)
        for argv in (["validate", path], ["check", path, "cause A=1 for B=1 @ c"],
                     ["satisfies", path]):
            code, out, err = run(argv)
            assert (code, out, err) == (1, "", message + "\n"), argv


def test_a_document_that_is_not_utf8_exits_one(tmp_path):
    path = tmp_path / "latin1.scm.txt"
    path.write_bytes("# caf\u00e9\nexo U : {0,1}\n".encode("latin-1"))
    code, out, err = run(["validate", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert "can't decode byte 0xe9" in err


def test_a_superscript_digit_is_a_located_error(tmp_path):
    path = _document(tmp_path, "exo U : {0,1}\ncontext c : U=\u00b2\n")
    code, _, err = run(["validate", path])
    assert code == 1
    assert err == "error: 2:15: expected integer, found '\u00b2'\n"


def test_an_out_of_range_value_too_long_for_decimal_is_a_totality_problem(tmp_path):
    # N * N has about 8,000 digits, past the interpreter's limit on decimal
    # conversion, so the problem cannot quote it in decimal.
    path = _document(tmp_path, "exo U : {0,1}\n"
                               f"var X : {{0,1}} = {'9' * 4000} * {'9' * 4000} * U\n"
                               "context c : U=1\n")
    code, out, err = run(["validate", path, "--format", "json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [p["kind"] for p in payload["problems"]] == ["totality"]
    code, out, err = run(["solve", path, "@c"])
    assert (code, out) == (1, "")
    assert err.startswith("error: model failed validation: equation for X yields ")


@pytest.mark.parametrize("argv", [
    ["check", "cause L=1 for F=1 @ u11"],
    ["satisfies", "satisfies [M<-0](F=1) @ u11"],
    ["solve", "@u11"],
])
def test_a_context_flag_must_agree_with_the_query(argv):
    command, query = argv
    path = fx("forest_fire_disjunctive.scm.txt")
    code, out, err = run([command, path, query, "--context", "u00"])
    assert (code, out) == (1, "")
    assert err == "error: --context u00 differs from the query's context u11\n"
    assert run([command, path, query, "--context", "u11"]) == run([command, path, query])


@pytest.mark.parametrize("budget, fault", [
    ("-1", "must be at least 0"),
    ("--max-search=-5", "must be at least 0"),
    ("abc", "invalid int value: 'abc'"),
], ids=["-1", "--max-search=-5", "abc"])
def test_a_negative_search_budget_is_a_usage_error(budget, fault, capsys):
    # A budget that is not a count of 0 or more, negative or not a number.
    flag = [budget] if budget.startswith("--") else ["--max-search", budget]
    code, out, _ = run(["check", fx("poisoning.scm.txt"), "cause A=1 for D=1 @ u11", *flag])
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: actualcause check ")
    assert f"argument --max-search: {fault}" in err
    code, _, err = run(["check", fx("poisoning.scm.txt"), "cause A=1 for D=1 @ u11",
                        "--max-search", "0"])
    assert code == 2 and "budget allows 0" in err
