"""Bundled fixture corpus and its expected verdicts.

Each fixture is a document in the text format plus a set of expectations the
test suite replays.  ``source`` records where an expected value comes from:
``stated`` means it is the canonical analysis of the scenario itself;
``derived`` means the suite re-derives it with the brute-force reference
checker as well.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from . import dsl
from .model import Record

FIXTURE_PACKAGE = "actualcause"


def fixture_dir() -> Path:
    return Path(str(resources.files(FIXTURE_PACKAGE) / "fixtures"))


def fixture_path(filename: str) -> Path:
    return fixture_dir() / filename


def load_document(filename: str) -> dsl.ParsedDocument:
    return dsl.parse_document(fixture_path(filename).read_text(encoding="utf-8"))


class Expectation(Record):
    def __init__(self, file: str, query: str, mode: str, kind: str, expect: dict,
                 source: str = "stated"):
        """``mode`` is "hp" or "extended"; ``kind`` is one of "cause", "grade",
        "witnesses", "solve" and "satisfies"."""
        super().__init__(file, query, mode, kind, expect, source)


class Fixture(Record):
    def __init__(self, name: str, files: tuple[str, ...],
                 expectations: tuple[Expectation, ...]):
        super().__init__(name, files, expectations)


def _e(file, query, mode, kind, expect, source="stated"):
    return Expectation(file, query, mode, kind, expect, source)


FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        name="forest-fire-disjunctive",
        files=("forest_fire_disjunctive.scm.txt",),
        expectations=(
            _e("forest_fire_disjunctive.scm.txt", "solve @ u11", "hp", "solve",
               {"world": {"L": 1, "M": 1, "F": 1}}),
            _e("forest_fire_disjunctive.scm.txt", "satisfies [M<-0](F=1) @ u11",
               "hp", "satisfies", {"holds": True}),
            _e("forest_fire_disjunctive.scm.txt",
               "satisfies [L<-0, M<-0](F=0) @ u11", "hp", "satisfies",
               {"holds": True}),
            _e("forest_fire_disjunctive.scm.txt", "cause L=1 for F=1 @ u11",
               "hp", "cause", {"is_cause": True}, source="derived"),
            _e("forest_fire_disjunctive.scm.txt", "cause M=1 for F=1 @ u11",
               "hp", "cause", {"is_cause": True}, source="derived"),
            _e("forest_fire_disjunctive.scm.txt", "witnesses L=1 for F=1 @ u11",
               "hp", "witnesses",
               {"contains": {"w_set": ["M"], "w_values": [0], "x_prime": [0],
                             "world": {"L": 0, "M": 0, "F": 0}}}),
            _e("forest_fire_disjunctive.scm.txt", "cause L=1 for F=1 @ u11",
               "extended", "cause", {"is_cause": True}, source="derived"),
        ),
    ),
    Fixture(
        name="forest-fire-conjunctive",
        files=("forest_fire_conjunctive.scm.txt",),
        expectations=(
            _e("forest_fire_conjunctive.scm.txt", "solve @ u10", "hp", "solve",
               {"world": {"L": 1, "M": 0, "F": 0}}),
            _e("forest_fire_conjunctive.scm.txt", "cause L=1 for F=1 @ u11",
               "hp", "cause", {"is_cause": True}, source="derived"),
        ),
    ),
    Fixture(
        name="poisoning-preemption",
        files=("poisoning.scm.txt",),
        expectations=(
            _e("poisoning.scm.txt", "solve @ u11", "hp", "solve",
               {"world": {"A": 1, "R": 1, "B": 0, "D": 1}}),
            _e("poisoning.scm.txt", "satisfies [A<-0, B<-0](D=1) @ u11", "hp",
               "satisfies", {"holds": False}),
            _e("poisoning.scm.txt", "cause A=1 for D=1 @ u11", "hp", "cause",
               {"is_cause": True}, source="derived"),
            _e("poisoning.scm.txt", "cause R=1 for D=1 @ u11", "hp", "cause",
               {"is_cause": False}, source="derived"),
        ),
    ),
    Fixture(
        name="bogus-prevention",
        files=("bogus_prevention.scm.txt",),
        expectations=(
            _e("bogus_prevention.scm.txt", "cause B=1 for VS=1 @ main", "hp",
               "cause", {"is_cause": True}, source="derived"),
            _e("bogus_prevention.scm.txt", "cause A=0 for VS=1 @ main", "hp",
               "cause", {"is_cause": True}, source="derived"),
            _e("bogus_prevention.scm.txt", "witnesses B=1 for VS=1 @ main", "hp",
               "witnesses", {"contains_world": {"A": 1, "B": 0, "VS": 0}}),
            _e("bogus_prevention.scm.txt", "cause B=1 for VS=1 @ main",
               "extended", "cause", {"is_cause": False}, source="derived"),
            _e("bogus_prevention.scm.txt", "cause A=0 for VS=1 @ main",
               "extended", "cause", {"is_cause": False}, source="derived"),
        ),
    ),
    Fixture(
        name="bogus-prevention-neutralization",
        files=("bogus_prevention_pn.scm.txt",),
        expectations=(
            _e("bogus_prevention_pn.scm.txt", "cause B=1 for VS=1 @ main", "hp",
               "cause", {"is_cause": False}, source="derived"),
            _e("bogus_prevention_pn.scm.txt", "cause A=0 for VS=1 @ main", "hp",
               "cause", {"is_cause": True}, source="derived"),
        ),
    ),
    Fixture(
        name="omission",
        files=("omission_a.scm.txt", "omission_b.scm.txt", "omission_c.scm.txt",
               "omission_d.scm.txt"),
        expectations=(
            _e("omission_a.scm.txt", "cause H=1 for D=1 @ main", "extended",
               "cause", {"is_cause": True}, source="derived"),
            _e("omission_a.scm.txt", "cause W=0 for D=1 @ main", "extended",
               "cause", {"is_cause": False}, source="derived"),
            _e("omission_a.scm.txt", "grade {H=1, W=0} for D=1 @ main",
               "extended", "grade",
               {"causes": {"H=1": True, "W=0": False},
                "relations": [["above", "H=1", "W=0"]]}),
            _e("omission_b.scm.txt", "grade {H=1, W=0} for D=1 @ main",
               "extended", "grade",
               {"causes": {"H=1": True, "W=0": True},
                "relations": [["equal", "H=1", "W=0"]]}),
            _e("omission_c.scm.txt", "grade {H=1, W=0} for D=1 @ main",
               "extended", "grade",
               {"causes": {"H=1": True, "W=0": True},
                "relations": [["above", "H=1", "W=0"]]}),
            _e("omission_d.scm.txt", "grade {H=1, W=0} for D=1 @ main",
               "extended", "grade",
               {"causes": {"H=1": True, "W=0": True},
                "relations": [["incomparable", "H=1", "W=0"]]}),
            _e("omission_a.scm.txt", "cause H=1 for D=1 @ main", "hp", "cause",
               {"is_cause": True}, source="derived"),
            _e("omission_a.scm.txt", "cause W=0 for D=1 @ main", "hp", "cause",
               {"is_cause": True}, source="derived"),
        ),
    ),
    Fixture(
        name="office-pens",
        files=("office_pens.scm.txt",),
        expectations=(
            _e("office_pens.scm.txt", "cause PT=1 for PO=1 @ main", "extended",
               "cause",
               {"is_cause": True,
                "best_witnesses": [{"PT": 0, "AT": 1, "PO": 0}]}),
            _e("office_pens.scm.txt", "cause AT=1 for PO=1 @ main", "extended",
               "cause", {"is_cause": True}),
            _e("office_pens.scm.txt", "grade {PT=1, AT=1} for PO=1 @ main",
               "extended", "grade",
               {"causes": {"PT=1": True, "AT=1": True},
                "relations": [["above", "PT=1", "AT=1"]]}),
        ),
    ),
    Fixture(
        name="background-conditions",
        files=("background_conditions.scm.txt",),
        expectations=(
            _e("background_conditions.scm.txt", "cause M=1 for F=1 @ main",
               "extended", "cause", {"is_cause": True}, source="derived"),
            _e("background_conditions.scm.txt", "cause O=1 for F=1 @ main",
               "extended", "cause", {"is_cause": False}, source="derived"),
            _e("background_conditions.scm.txt", "grade {M=1, O=1} for F=1 @ main",
               "extended", "grade",
               {"causes": {"M=1": True, "O=1": False},
                "relations": [["above", "M=1", "O=1"]]}),
        ),
    ),
    Fixture(
        name="causal-chain",
        files=("causal_chain.scm.txt",),
        expectations=(
            _e("causal_chain.scm.txt", "cause LL=1 for ES=1 @ main", "extended",
               "cause",
               {"is_cause": True,
                "best_contains": {"M": 0, "R": 0, "RI": 0, "F": 0, "SD": 0,
                                  "LI": 0, "LL": 0, "EU": 1, "ES": 0}}),
            _e("causal_chain.scm.txt", "cause M=1 for ES=1 @ main", "extended",
               "cause", {"is_cause": True}),
            _e("causal_chain.scm.txt", "grade {LL=1, M=1} for ES=1 @ main",
               "extended", "grade",
               {"causes": {"LL=1": True, "M=1": True},
                "relations": [["above", "LL=1", "M=1"]]}),
        ),
    ),
    Fixture(
        name="legal-intervening-causes",
        files=("legal_fire.scm.txt",),
        expectations=(
            _e("legal_fire.scm.txt", "grade {AN=1, BC=1} for F=1 @ careless",
               "extended", "grade",
               {"causes": {"AN=1": True, "BC=1": True},
                "relations": [["above", "AN=1", "BC=1"]]}),
            _e("legal_fire.scm.txt", "grade {BM=1, AN=1} for F=1 @ malicious",
               "extended", "grade",
               {"causes": {"BM=1": True, "AN=1": True},
                "relations": [["above", "BM=1", "AN=1"]]}),
        ),
    ),
    Fixture(
        name="short-circuit",
        files=("short_circuit.scm.txt",),
        expectations=(
            _e("short_circuit.scm.txt", "cause A=1 for VS=1 @ main", "hp",
               "cause", {"is_cause": True}, source="derived"),
            _e("short_circuit.scm.txt", "cause A=1 for VS=1 @ main", "extended",
               "cause", {"is_cause": False}, source="derived"),
            _e("short_circuit.scm.txt", "witnesses A=1 for VS=1 @ main", "hp",
               "witnesses", {"contains_world": {"A": 0, "P": 1, "VS": 0}}),
        ),
    ),
    Fixture(
        name="short-circuit-intentions",
        files=("short_circuit_intentions.scm.txt",),
        expectations=(
            _e("short_circuit_intentions.scm.txt", "cause A=1 for VS=1 @ main",
               "hp", "cause", {"is_cause": True}, source="derived"),
            _e("short_circuit_intentions.scm.txt", "cause A=1 for VS=1 @ main",
               "extended", "cause",
               {"is_cause": False,
                "best_among_hp": [
                    {"A": 0, "I": 0, "P": 1, "VS": 0},
                    {"A": 0, "I": 2, "P": 1, "VS": 0},
                ]},
               source="derived"),
        ),
    ),
)


def load_corpus() -> list[Fixture]:
    """The twelve bundled fixtures, with parse checked eagerly."""
    for fixture in FIXTURES:
        for filename in fixture.files:
            load_document(filename)  # raises on fixture/parse drift
    return list(FIXTURES)


# CLI invocations with frozen JSON outputs under fixtures/goldens/.  Each
# entry: (golden name, subcommand, fixture file, extra argv).
GOLDEN_RUNS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("forest_fire_solve", "solve", "forest_fire_disjunctive.scm.txt",
     ("@u11",)),
    ("forest_fire_satisfies", "satisfies", "forest_fire_disjunctive.scm.txt",
     ("satisfies [M<-0](F=1) @ u11",)),
    ("forest_fire_check_lightning_hp", "check", "forest_fire_disjunctive.scm.txt",
     ("cause L=1 for F=1 @ u11", "--mode", "hp")),
    ("forest_fire_check_lightning_ext", "check", "forest_fire_disjunctive.scm.txt",
     ("cause L=1 for F=1 @ u11", "--mode", "extended")),
    ("forest_fire_all_causes", "check", "forest_fire_disjunctive.scm.txt",
     ("cause F=1 for F=1 @ u11", "--all-causes", "1")),
    ("poisoning_solve", "solve", "poisoning.scm.txt", ("@u11",)),
    ("poisoning_check_backup_hp", "check", "poisoning.scm.txt",
     ("cause R=1 for D=1 @ u11", "--mode", "hp")),
    ("bogus_check_antidote_ext", "check", "bogus_prevention.scm.txt",
     ("cause B=1 for VS=1 @ main", "--mode", "extended")),
    ("bogus_witnesses_hp", "witnesses", "bogus_prevention.scm.txt",
     ("witnesses B=1 for VS=1 @ main",)),
    ("bogus_pn_check_antidote_hp", "check", "bogus_prevention_pn.scm.txt",
     ("cause B=1 for VS=1 @ main", "--mode", "hp")),
    ("omission_a_grade", "grade", "omission_a.scm.txt",
     ("--mode", "extended")),
    ("omission_b_grade", "grade", "omission_b.scm.txt",
     ("--mode", "extended")),
    ("omission_c_grade", "grade", "omission_c.scm.txt",
     ("--mode", "extended")),
    ("omission_d_grade", "grade", "omission_d.scm.txt",
     ("--mode", "extended")),
    ("pens_grade", "grade", "office_pens.scm.txt", ("--mode", "extended")),
    ("background_grade", "grade", "background_conditions.scm.txt",
     ("--mode", "extended")),
    ("chain_grade", "grade", "causal_chain.scm.txt", ("--mode", "extended")),
    ("legal_careless_grade", "grade", "legal_fire.scm.txt",
     ("grade {AN=1, BC=1} for F=1 @ careless", "--mode", "extended")),
    ("legal_malicious_grade", "grade", "legal_fire.scm.txt",
     ("grade {BM=1, AN=1} for F=1 @ malicious", "--mode", "extended")),
    ("short_circuit_check_ext", "check", "short_circuit.scm.txt",
     ("cause A=1 for VS=1 @ main", "--mode", "extended")),
    ("short_circuit_intentions_check_ext", "check",
     "short_circuit_intentions.scm.txt",
     ("cause A=1 for VS=1 @ main", "--mode", "extended")),
)


def golden_argv(command: str, filename: str, extra: tuple[str, ...]) -> list[str]:
    argv = [command, str(fixture_path(filename))]
    argv.extend(extra)
    argv.extend(["--format", "json"])
    return argv


def golden_path(name: str) -> Path:
    return fixture_dir() / "goldens" / f"{name}.json"
