"""The package surface: public names, what a process loads, and the value
types' contract (equality, hashing, repr and immutability), checked against
a dataclass twin of each."""

import copy
import dataclasses
import importlib
import inspect
import itertools
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import actualcause
from actualcause import checker, cli, corpus, dsl
from actualcause.model import Record

SRC = str(Path(actualcause.__file__).resolve().parent.parent)
MODULES = sorted(f"actualcause.{m.name}" for m in pkgutil.iter_modules(actualcause.__path__))

# Every name the package exported when it imported all its modules eagerly.
PUBLIC = (
    "DEFAULT_SEARCH_BUDGET", "CauseVerdict", "WitnessRecord", "check_ac1", "check_ac2",
    "enumerate_witnesses", "find_all_causes", "is_actual_cause", "ActualCauseError",
    "FormulaError", "ModelError", "NormalityError", "OracleCapExceeded",
    "SearchBudgetExceeded", "BooleanFormula", "CandidateCause", "CausalFormula",
    "Conjunction", "Disjunction", "Negation", "PrimitiveEvent", "evaluate", "satisfies",
    "ExtendedCausalModel", "GradedPair", "GradingResult", "best_witnesses",
    "grade_candidates", "is_extended_cause", "BinOp", "CausalModel", "Const", "Equation",
    "Ite", "Ref", "Table", "Variable", "World", "dependence_graph", "equation_isomorphism",
    "intervene", "semantic_parents", "solve", "validate_model", "Behavior",
    "BehaviorRanking", "NormalityOrder", "Relation", "TrivialOrder", "TypicalitySpec",
    "ValueRanking", "assign_behavior", "compare", "derive_from_typicality", "explicit_order",
)


def _python(*flags, code):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_public_name_still_imports_from_the_package():
    assert sorted(actualcause.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        value = getattr(actualcause, name)
        assert name in dir(actualcause)
        assert any(getattr(sys.modules.get(m), name, None) is value for m in MODULES)
    namespace = {}
    exec("from actualcause import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    with pytest.raises(AttributeError):
        actualcause.no_such_name  # noqa: B018


def test_no_module_of_the_package_loads_dataclasses():
    loaded = _python("-S", code=(
        f"import json, sys\nfor name in {MODULES!r}: __import__(name)\n"
        "from actualcause import *\n"
        "print(json.dumps(sorted(sys.modules)))"))
    assert set(MODULES) <= set(loaded)
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv", [["validate"], ["solve", "@u11"], ["solve"]])
def test_validate_and_solve_load_neither_the_search_nor_normality(argv):
    command, *rest = argv
    path = str(corpus.fixture_path("poisoning.scm.txt"))
    loaded = _python(code=(
        "import io, json, sys\nfrom actualcause.cli import main\n"
        f"code = main({[command, path, *rest]!r}, stdout=io.StringIO())\n"
        "print(json.dumps([code, sorted(sys.modules)]))"))
    assert loaded[0] == 0
    assert "actualcause.dsl" in loaded[1]
    for module in ("actualcause.checker", "actualcause.graded", "actualcause.normality"):
        assert module not in loaded[1]


def test_an_oracle_query_loads_neither_the_search_nor_grading():
    # The oracle walks the equation trees itself and reads an extended
    # model's ``base`` and ``order`` only, so neither the search, nor
    # grading, nor the model's solve kernel serves it.
    path = str(corpus.fixture_path("office_pens.scm.txt"))
    loaded = _python(code=(
        "import json, sys, types\nfrom actualcause import model\n"
        "from actualcause.dsl import parse_document, parse_query\n"
        "from actualcause.oracle import oracle_best_witnesses, oracle_is_cause, "
        "oracle_is_extended_cause\n"
        "def refused(*args):\n    raise AssertionError('the oracle ran the kernel')\n"
        "for module in list(sys.modules.values()):\n"
        "    if module.__name__.startswith('actualcause') and hasattr(module, '_kernel'):\n"
        "        module._kernel = refused\n"
        f"doc = parse_document(open({path!r}, encoding='utf-8').read())\n"
        "query = parse_query('cause PT=1 for PO=1 @ main', doc)\n"
        "ext = types.SimpleNamespace(base=doc.model, order=doc.normality_order())\n"
        "args = (doc.contexts['main'], query.cause, query.effect)\n"
        "answers = [oracle_is_cause(doc.model, *args), oracle_is_extended_cause(ext, *args),\n"
        "           oracle_best_witnesses(ext, *args), doc.model._compiled is None]\n"
        "print(json.dumps([answers, sorted(sys.modules)]))"))
    assert loaded[0] == [True, True, [[0, 1, 0]], True]
    assert "actualcause.oracle" in loaded[1] and "actualcause.normality" in loaded[1]
    assert not {"actualcause.checker", "actualcause.graded"} & set(loaded[1])


# Text output, document printing and the sweep's symmetries live in modules
# that a JSON query does not load, so its process does not compile them.
APART = {"actualcause.printer", "actualcause.symmetry"}


def _main_loads(argv):
    """The exit code of ``cli.main(argv)`` in a fresh process, and the
    package modules it loaded."""
    code, loaded = _python(code=(
        "import io, json, sys\nfrom actualcause.cli import main\n"
        f"code = main({argv!r}, stdout=io.StringIO(), stderr=io.StringIO())\n"
        "print(json.dumps([code, sorted(sys.modules)]))"))
    return code, {name for name in loaded if name.startswith("actualcause")}


@pytest.mark.parametrize("mode", ["hp", "extended"])
@pytest.mark.parametrize("command, filename", [
    ("check", "bogus_prevention.scm.txt"), ("witnesses", "bogus_prevention.scm.txt"),
    ("grade", "legal_fire.scm.txt")])
def test_a_json_query_loads_neither_the_printer_nor_the_symmetries(command, filename, mode):
    path = str(corpus.fixture_path(filename))
    code, loaded = _main_loads([command, path, "--mode", mode, "--format", "json"])
    # Grading runs in extended mode only; in hp mode it is a usage error.
    if (command, mode) == ("grade", "hp"):
        assert code == 1
    else:
        assert code == 0 and "actualcause.checker" in loaded
    assert not loaded & APART


def test_text_output_loads_the_printer():
    path = str(corpus.fixture_path("bogus_prevention.scm.txt"))
    code, loaded = _main_loads(["check", path, "--format", "text"])
    assert code == 0
    assert loaded & APART == {"actualcause.printer"}


def test_a_sweep_loads_the_symmetries():
    path = str(corpus.fixture_path("bogus_prevention.scm.txt"))
    code, loaded = _main_loads(["check", path, "--all-causes", "1", "--format", "json"])
    assert code == 0
    assert loaded & APART == {"actualcause.symmetry"}


@pytest.mark.parametrize("filename", ["legal_fire.scm.txt", "omission_b.scm.txt"])
def test_setting_up_a_document_loads_neither_the_printer_nor_the_symmetries(filename):
    path = str(corpus.fixture_path(filename))
    loaded = _python(code=(
        "import json, sys\nfrom actualcause import validate_model\n"
        "from actualcause.dsl import parse_document\n"
        f"doc = parse_document(open({path!r}, encoding='utf-8').read())\n"
        "assert validate_model(doc.model).ok\ndoc.normality_order()\n"
        "print(json.dumps(sorted(sys.modules)))"))
    assert "actualcause.normality" in loaded
    assert not set(loaded) & APART


# -- the record contract ---------------------------------------------------------

EXTRA = """\
exo U : {0,1}
exo V : {0,1,2}
var A : {0,1} = ite(U == 1, 1, 0)
var B : {0,1} = table(U, A){(0, 0) -> 0, (0, 1) -> 1, (1, 0) -> 1, (1, 1) -> 1}
var C : {0,1,2} = min(A + B, V) * 1 - 0
typical A = 0 > 1
typical B = 0 > 1
severity A=1 < B=1
mechanism on
behavior B : "follows" = A > "fires" = 1
context c : U=1, V=2
solve @ c
satisfies [A<-0](!(B=1) | C=2 & A=1) @ c
cause A=1 for B=1 @ c
witnesses A=1 for B=1 @ c
grade {A=1, C=2} for B=1 @ c
"""


def _record_classes():
    for name in MODULES:
        importlib.import_module(name)
    found, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo += cls.__subclasses__()
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


RECORDS = _record_classes()


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """Instances of every record class, collected from each constructor
    while the fixtures, a document using every construct, a parse error and
    an invalid model go through the CLI and the library."""
    made = {cls: [] for cls in RECORDS}
    with pytest.MonkeyPatch.context() as monkey:
        for cls in RECORDS:
            def spy(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
                _init(self, *args, **kwargs)
                if len(made[_cls]) < 40:
                    made[_cls].append(self)
            monkey.setattr(cls, "__init__", spy)
        # The search builds its witness records in place, not through
        # ``__init__``: they are sampled from what it returns.
        witnesses, enumerate_ = made[checker.WitnessRecord], checker.CauseSearch.enumerate

        def enumerate_spy(self, conjuncts):
            records = enumerate_(self, conjuncts)
            witnesses.extend(records[:40 - len(witnesses)])
            return records
        monkey.setattr(checker.CauseSearch, "enumerate", enumerate_spy)
        extra = tmp_path_factory.mktemp("records") / "extra.scm.txt"
        extra.write_text(EXTRA, encoding="utf-8")
        paths = [str(p) for p in sorted(corpus.fixture_dir().glob("*.scm.txt"))]
        for path in [*paths, str(extra)]:
            document = dsl.parse_document(Path(path).read_text(encoding="utf-8"))
            actualcause.dependence_graph(document.model)
            for argv in (["validate"], ["solve"], ["satisfies"], ["witnesses"],
                         ["check"], ["check", "--mode", "extended"],
                         ["grade", "--mode", "extended"]):
                cli.main([argv[0], path, *argv[1:]], stdout=_Sink(), stderr=_Sink())
        with pytest.raises(dsl.DslError):
            dsl.parse_document("var X : {0,1} = Y\n")
        invalid = actualcause.CausalModel([actualcause.Variable("X", "endogenous", (0,))], [])
        assert not actualcause.validate_model(invalid).ok
    made[corpus.Fixture] = list(corpus.FIXTURES)
    made[corpus.Expectation] = [e for f in corpus.FIXTURES for e in f.expectations][:40]
    return made


class _Sink:
    def write(self, text):
        return len(text)


def _twin(cls):
    """A dataclass with the record's name, fields and frozenness."""
    fields = list(inspect.signature(cls.__init__).parameters)[1:]
    frozen = cls.__hash__ is not None
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=frozen), frozen


def _twin_of(twin, record):
    return twin(**{f.name: getattr(record, f.name) for f in dataclasses.fields(twin)})


def test_the_package_has_the_expected_records():
    assert len(RECORDS) == 40
    assert all(cls.__hash__ is None for cls in RECORDS
               if cls is dsl.ParsedDocument or cls.__name__.startswith("_Raw"))
    assert sum(cls.__hash__ is None for cls in RECORDS) == 5


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: f"{c.__module__}.{c.__qualname__}")
def test_a_record_behaves_as_its_dataclass_twin(cls, samples):
    records = samples[cls]
    assert records, f"no sample of {cls.__qualname__}"
    twin, frozen = _twin(cls)
    assert cls.__match_args__ == twin.__match_args__
    twins = [_twin_of(twin, r) for r in records]
    for record, other in zip(records, twins):
        assert repr(record) == repr(other)
        copy = cls(**{name: getattr(record, name) for name in cls.__match_args__})
        assert copy == record and not copy != record
        if frozen:
            try:
                expected = hash(other)
            except TypeError:  # a field holds a dict
                with pytest.raises(TypeError):
                    hash(record)
            else:
                assert hash(record) == expected == hash(copy)
            field = cls.__match_args__[0]
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
            with pytest.raises(AttributeError):
                record.unrelated = 1
        else:
            with pytest.raises(TypeError):
                hash(record)
    for (a, ta), (b, tb) in itertools.product(zip(records, twins), repeat=2):
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)


def test_a_mutable_record_keeps_assignment(samples):
    document = samples[dsl.ParsedDocument][0]
    queries = document.queries
    document.queries = ()
    assert document.queries == () and "queries=()" in repr(document)
    document.queries = queries


def test_records_of_different_classes_with_equal_fields_are_unequal():
    a, b = actualcause.PrimitiveEvent("A", 1), actualcause.PrimitiveEvent("B", 0)
    assert actualcause.Conjunction((a, b)) != actualcause.Disjunction((a, b))
    assert actualcause.Ref("u") != dsl.SolveQuery("u")
    cause = actualcause.CandidateCause((a,))
    assert dsl.CauseQuery(cause, b, "u") != dsl.WitnessQuery(cause, b, "u")
    assert actualcause.Const(1) != (1,) and actualcause.Const(1) == actualcause.Const(1)


def test_a_private_cache_stays_out_of_equality_hash_and_repr():
    rows = (((0,), 1), ((0,), 0), ((1,), 0))
    table = actualcause.Table(("U",), rows)
    assert table._map == {(0,): 1, (1,): 0}
    assert repr(table) == f"Table(args=('U',), rows={rows!r})"
    assert hash(table) == hash((("U",), rows))
    assert table == actualcause.Table(("U",), rows)


# The records built by the thousand keep their fields in slots.
SLOTTED = (checker.WitnessRecord, dsl.SourceSpan, actualcause.PrimitiveEvent, actualcause.World)


def test_only_the_records_built_in_bulk_declare_slots():
    assert [cls for cls in RECORDS if "__slots__" in vars(cls)] == sorted(
        SLOTTED, key=lambda c: (c.__module__, c.__qualname__))
    assert Record.__slots__ == ()
    assert all(hasattr(cls, "__dict__") for cls in RECORDS)  # the classes, not instances


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda c: c.__qualname__)
def test_a_slotted_record_has_no_instance_dict_and_no_assignment(cls, samples):
    assert cls.__slots__ == cls._fields
    for record in samples[cls]:
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            vars(record)
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            object.__setattr__(record, "unrelated", 1)  # no slot, and no dict


def test_records_the_search_builds_equal_their_constructed_twins(samples):
    # The search fills each record and world slot by slot, with no
    # ``__init__``: each equals the record built through the constructors.
    World = actualcause.World
    records = samples[checker.WitnessRecord]
    assert len(records) == 40
    for record in records:
        world = record.world
        twin = checker.WitnessRecord(record.w_set, record.w_values, record.x_prime,
                                     World(world.variables, world.values))
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
        assert twin.world == world and hash(twin.world) == hash(world)
        assert repr(twin.world) == repr(world) and str(twin.world) == str(world)


@pytest.mark.parametrize("slots", [("a",), ("b", "a"), ["a", "b"], (), ("a", "b", "c")])
def test_a_record_whose_slots_are_not_its_fields_fails_where_it_is_defined(slots):
    with pytest.raises(TypeError, match="__slots__ must be the tuple of its fields"):
        class Pair(Record):
            __slots__ = slots

            def __init__(self, a, b):
                super().__init__(a, b)

    class Pair(Record):
        __slots__ = ("a", "b")

        def __init__(self, a, b):
            super().__init__(a, b)

    pair = Pair(1, 2)
    assert repr(pair).endswith("Pair(a=1, b=2)") and not hasattr(pair, "__dict__")


@pytest.mark.parametrize("cls", [*SLOTTED, checker.CauseVerdict, actualcause.Table],
                         ids=lambda c: c.__qualname__)
def test_a_record_survives_pickling_and_copying(cls, samples):
    # Unpickled and copied records are rebuilt from their fields, slotted
    # ones included, and keep what their constructor stores besides.
    for record in samples[cls][:10]:
        for other in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert other.__class__ is cls and other == record and repr(other) == repr(record)
            if cls is actualcause.Table:
                assert other._map == record._map


# -- the README ------------------------------------------------------------------


def test_the_readme_quick_tour_prints_its_commented_values():
    readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip() for line in tour.splitlines()
                if line.startswith("print(") and "#" in line]
    assert len(expected) == 4
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", tour], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == expected
