"""Shared fixtures: the bundled documents, loaded once per session."""

from __future__ import annotations

import pytest

from actualcause.corpus import load_document


@pytest.fixture(scope="session")
def documents():
    names = [
        "forest_fire_disjunctive.scm.txt",
        "forest_fire_conjunctive.scm.txt",
        "poisoning.scm.txt",
        "bogus_prevention.scm.txt",
        "bogus_prevention_pn.scm.txt",
        "omission_a.scm.txt",
        "omission_b.scm.txt",
        "omission_c.scm.txt",
        "omission_d.scm.txt",
        "office_pens.scm.txt",
        "background_conditions.scm.txt",
        "causal_chain.scm.txt",
        "legal_fire.scm.txt",
        "preemption.scm.txt",
        "short_circuit.scm.txt",
        "short_circuit_intentions.scm.txt",
    ]
    return {name: load_document(name) for name in names}
