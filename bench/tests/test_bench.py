"""The benchmark's own tests: generated inputs, closed forms, tracing.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import tracing
import workloads
from actualcause import dsl, validate_model

SEEDS = range(4)
LIBRARY = ("decide-hp", "enumerate-ext")


def _cases(name: str, seed: int) -> list[gen.Case]:
    return workloads.WORKLOADS[name](seed).cases


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", LIBRARY)
def test_library_documents_parse_and_validate(name, seed):
    for case in _cases(name, seed):
        doc = dsl.parse_document(case.text)
        assert validate_model(doc.model).ok, case.name
        if doc.has_normality():
            doc.normality_order()
        for query in case.queries:
            dsl.parse_query(query.line, doc)


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_documents_parse_and_validate(seed):
    for text in workloads.CliWorkload(seed).setup_texts():
        doc = dsl.parse_document(text)
        assert validate_model(doc.model).ok
        if doc.has_normality():
            doc.normality_order()


def test_same_seed_same_inputs_and_seed_varies_them():
    assert [c.text for c in _cases("decide-hp", 5)] == [c.text for c in _cases("decide-hp", 5)]
    assert [c.text for c in _cases("decide-hp", 5)] != [c.text for c in _cases("decide-hp", 6)]
    assert workloads.CliWorkload(3).generated == workloads.CliWorkload(3).generated


SMALL = (
    lambda rng: gen.chain(rng, 4),
    lambda rng: gen.chain(rng, 5),
    lambda rng: gen.disjunctive(rng, 4, 2),
    lambda rng: gen.disjunctive(rng, 4, 4),
    lambda rng: gen.vote(rng, 3, 2),
    lambda rng: gen.disjunctive_typical(rng, 3),
    lambda rng: gen.disjunctive_typical(rng, 4),
)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make", SMALL)
def test_closed_forms_agree_with_the_oracle(make, seed):
    case = make(random.Random(seed))
    assert any(q.expect for q in case.queries)
    for slot in workloads.prepare([case]):
        expect = slot.query.expect
        if not expect:
            continue
        oracle = workloads.oracle_answer(slot)
        assert oracle is not None, "small cases must be within the oracle's cap"
        if "causes" in expect:
            assert oracle == expect["causes"]
        if "is_cause" in expect:
            stated = oracle if slot.query.op == "cause" else oracle[0][1]
            assert stated == expect["is_cause"], slot.query.line
        result = workloads.answer(slot)
        assert workloads.closed_form_problems(slot.query, result) == []


def _bindings():
    """Every attribute of every package module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("actualcause"):
            continue
        for key, value in vars(module).items():
            seen[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    seen[(name, key, attr)] = member
    return seen


def test_tracer_restores_every_patched_function():
    import actualcause.cli  # noqa: F401 - make the CLI module patchable too
    from actualcause import checker

    before = _bindings()
    tracer = tracing.Tracer().install()
    try:
        assert checker.Engine.solve_tuple is not before[("actualcause.checker", "Engine",
                                                         "solve_tuple")]
        assert len(tracer._patched) >= len(tracing.SPANS)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_finds_every_target_after_a_bare_import():
    code = ("import sys; sys.path[:0] = [{bench!r}, {src!r}]; import actualcause, tracing; "
            "t = tracing.Tracer().install(); t.uninstall(); print(t.missing)").format(
                bench=str(workloads.BENCH), src=str(workloads.SRC))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.stdout.strip() == "[]", done.stderr


def test_a_missing_tracing_target_fails_the_traced_run(monkeypatch, capsys):
    import run

    renamed = tuple((module, "CauseSearch.ac2b_renamed" if path == "CauseSearch.ac2b" else path,
                     span) for module, path, span in tracing.SPANS)
    monkeypatch.setattr(tracing, "SPANS", renamed)
    code = run.main(["--workload", "decide-hp", "--seed", "1", "--seconds", "1",
                     "--trace", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out.splitlines()[-1])["correct"] is False
    assert "actualcause.checker.CauseSearch.ac2b_renamed" in err


def _traced(name: str, seed: int):
    tracer = tracing.Tracer()
    outcomes, _ = workloads.WORKLOADS[name](seed).traced(tracer)
    return tracer, outcomes


@pytest.mark.parametrize("name", LIBRARY)
def test_traced_pass_accounts_for_query_time_and_repeats_counts(name):
    tracer, outcomes = _traced(name, 1)
    assert not any(o.failed for o in outcomes)
    roots = [i for i in range(len(tracer.name)) if tracer.names[tracer.name[i]] == "query"]
    assert len(roots) == len(outcomes)
    own = {}
    for i in range(len(tracer.name)):
        q = tracer.qid[i]
        own[q] = own.get(q, 0.0) + tracer.end[i] - tracer.start[i] - tracer.child[i]
    for i in roots:
        wall = tracer.end[i] - tracer.start[i]
        assert own[tracer.qid[i]] == pytest.approx(wall, rel=1e-6)
    again, _ = _traced(name, 1)
    assert tracer.counts == again.counts
    counts = {k: v for k, v in tracing.layer_metrics(tracer).items() if not k.endswith("_s")
              and k not in ("dsl.lines_per_s", "trace.unattributed_share")}
    assert counts == {k: v for k, v in tracing.layer_metrics(again).items() if k in counts}


def test_cli_calls_cover_every_fixture_and_the_known_defects():
    calls = workloads.CliWorkload(0).calls()
    fixtures = {p.name for p in workloads.FIXTURES.glob("*.scm.txt")}
    assert {Path(c.doc).name for c in calls} >= fixtures
    assert sorted(c.defect for c in calls if c.defect) == [
        "chain_effect_first.scm.txt", "deep_negation.scm.txt", "deep_parens.scm.txt"]
    assert sum(1 for c in calls if c.golden is not None) == 21


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(workloads.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide-hp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_scales_take_the_median_of_nearby_probes():
    import speed

    # One slow probe is ignored; a lasting slow-down is followed.
    probes = [1.0] * 4 + [4.0] + [1.0] * 4 + [2.0] * 9
    scales = speed.scales(probes, 1.0)
    assert len(scales) == len(probes)
    assert scales[4] == 1.0 and scales[-1] == 0.5


def test_speed_probes_do_not_touch_the_package():
    import speed

    code = ("import sys; sys.path[:0] = [{bench!r}]; import speed; speed.probe(); "
            "print(any(m.startswith('actualcause') for m in sys.modules))").format(
                bench=str(workloads.BENCH))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.stdout.strip() == "False", done.stderr
    assert speed.start_probe(workloads.child_env(), workloads.ROOT) > 0
