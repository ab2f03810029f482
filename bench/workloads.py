"""The benchmark's workloads: inputs from a seed, set-up, timed queries and
reference checks.

``decide-hp`` and ``enumerate-ext`` call the library in this process, one
query at a time (a closed loop with one client).  ``cli-corpus`` starts one
``actualcause`` process per query, one after another.  Every answer is
checked: against the closed form of its family, against the brute-force
oracle when the model has at most five endogenous variables, against the
corpus's stated expectations and the CLI goldens, and against the digest of
the answer recorded at the seed commit (``digests.json``), since witness
order is part of the output contract.  Each timed query is paired with a
speed probe (``speed.py``), so that its time can be reported at reference
speed.

This module imports the package only inside functions, so that a set-up
probe can time the import itself.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import gen
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = SRC / "actualcause" / "fixtures"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

# The seed picks one of this many input sets; each has its answers recorded.
VARIANTS = 32
# A p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
SETUP_REPEATS = 9
ORACLE_MAX_ENDOGENOUS = 5
CLI_TIMEOUT_S = 30
# cli-corpus runs at least this many whole passes; with fewer, its p90 moves
# by a tenth from run to run.
CLI_PASSES = 3
# cli-corpus starts a speed probe before every this many calls.
PROBE_EVERY = 3


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def recorded_digests(workload: str, variant: int) -> Optional[list[str]]:
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    entry = table.get(workload, {}).get(str(variant))
    return entry.split(",") if entry else None


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """One answered (or failed) query: its wall time, digest and problems.
    ``scale`` turns the wall time into reference seconds (``speed.py``)."""

    seconds: float
    digest: str = ""
    error: str = ""
    problems: list[str] = field(default_factory=list)
    defect: bool = False   # a known-defect input, reported apart
    scale: float = 1.0

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)


class Verifier:
    """Checks each slot's answer once and reuses the verdict for identical
    answers in later rounds."""

    def __init__(self, workload: str, variant: int):
        self.recorded = recorded_digests(workload, variant)
        self.seen: dict[int, tuple[str, list[str]]] = {}

    def check(self, index: int, answer_digest: str, reference) -> list[str]:
        known = self.seen.get(index)
        if known is not None and known[0] == answer_digest:
            return known[1]
        problems = list(reference())
        if self.recorded is None:
            problems.append("no digest recorded for this input set")
        elif index >= len(self.recorded) or self.recorded[index] != answer_digest:
            problems.append("answer differs from the digest recorded at the seed commit")
        self.seen[index] = (answer_digest, problems)
        return problems


# -- library workloads ---------------------------------------------------------------


# Sizes are chosen so the round's median and p90 fall among queries of like
# cost, not in a gap between unlike ones, where machine noise would move the
# quantile from one query's cost to another's.


def decide_cases(rng: random.Random) -> list[gen.Case]:
    return [gen.chain(rng, 9), gen.chain(rng, 8), gen.chain(rng, 8),
            gen.disjunctive(rng, 7, 4), gen.disjunctive(rng, 6, 3),
            gen.disjunctive(rng, 6, 3), gen.vote(rng, 7, 4),
            gen.random_dag(rng, 4, 0), gen.random_dag(rng, 4, 1)]


def enumerate_cases(rng: random.Random) -> list[gen.Case]:
    # Three mechanism-2 cases make a plateau of like-cost queries at the median.
    return [gen.disjunctive_typical(rng, 8), gen.disjunctive_typical(rng, 6),
            gen.severity(rng, 6), gen.severity(rng, 5),
            gen.mechanism(rng, 2), gen.mechanism(rng, 2), gen.mechanism(rng, 2),
            gen.mechanism(rng, 1),
            gen.explicit_norms(rng, 5, 40, 0), gen.explicit_norms(rng, 5, 40, 1),
            gen.norm_chain(rng, 5, 50)]


@dataclass
class Slot:
    """One query of a round, bound to its parsed document."""

    case: str
    query: gen.Query
    doc: object
    order: object
    parsed: object


def prepare(cases: list[gen.Case]) -> list[Slot]:
    """Parse, validate and build the normality order of every document."""
    from actualcause import dsl, validate_model

    slots = []
    for case in cases:
        doc = dsl.parse_document(case.text)
        report = validate_model(doc.model)
        if not report.ok:
            raise RuntimeError(f"{case.name} does not validate: {report.problems}")
        order = doc.normality_order() if doc.has_normality() else None
        for query in case.queries:
            slots.append(Slot(case.name, query, doc, order, dsl.parse_query(query.line, doc)))
    return slots


def answer(slot: Slot):
    import actualcause as ac

    model, query, parsed = slot.doc.model, slot.query, slot.parsed
    context = slot.doc.contexts[parsed.context]
    if query.op == "sweep":
        return ac.find_all_causes(model, context, parsed.effect, query.k)
    if query.op == "cause":
        return ac.is_actual_cause(model, context, parsed.cause, parsed.effect)
    ext = ac.ExtendedCausalModel(model, slot.order)
    if query.op == "extended":
        return ac.is_extended_cause(ext, context, parsed.cause, parsed.effect)
    return ac.grade_candidates(ext, context, list(parsed.candidates), parsed.effect)


def _records(records) -> tuple:
    return tuple((r.w_set, r.w_values, r.x_prime, r.world.values) for r in records)


def _verdict(v) -> tuple:
    return (v.mode, v.ac1, v.ac3, v.is_cause_hp, v.is_cause_extended, v.failed_clause,
            _records(v.hp_witnesses), _records(v.admissible_witnesses),
            tuple(w.values for w in v.best_witnesses))


def canonical(op: str, result) -> tuple:
    """Everything the answer says, witness lists and their order included."""
    if op == "sweep":
        return tuple(str(c) for c in result)
    if op == "grade":
        return (tuple(_verdict(v) for v in result.verdicts),
                tuple((str(p.first), str(p.second), p.relation) for p in result.pairs))
    return _verdict(result)


def closed_form_problems(query: gen.Query, result) -> list[str]:
    expect = query.expect or {}
    problems = []

    def differs(what, got, want):
        if got != want:
            problems.append(f"{query.line}: {what} is {got!r}, closed form says {want!r}")

    if "causes" in expect:
        differs("cause list", [str(c) for c in result], expect["causes"])
    if "is_cause" in expect:
        differs("is_cause", result.is_cause, expect["is_cause"])
    if "failed_clause" in expect:
        differs("failed clause", result.failed_clause, expect["failed_clause"])
    if "hp_records" in expect:
        differs("witness records", len(result.hp_witnesses), expect["hp_records"])
    if "admissible_records" in expect:
        differs("admissible records", len(result.admissible_witnesses),
                expect["admissible_records"])
    if "best" in expect:
        differs("best witnesses", [w.values for w in result.best_witnesses], expect["best"])
    return problems


def oracle_answer(slot: Slot):
    """The oracle's verdicts for a slot, in the shape ``oracle_view`` gives
    the library's answer; None when the model is over the oracle's cap."""
    import actualcause as ac
    from actualcause.oracle import oracle_is_cause, oracle_is_extended_cause

    model = slot.doc.model
    if len(model.endogenous) > ORACLE_MAX_ENDOGENOUS:
        return None
    parsed, op = slot.parsed, slot.query.op
    context = slot.doc.contexts[parsed.context]
    if op == "sweep":
        actual = ac.solve(model, context)
        return [
            " & ".join(f"{n}={actual[n]}" for n in names)
            for size in range(1, slot.query.k + 1)
            for names in itertools.combinations(model.endogenous, size)
            if oracle_is_cause(model, context,
                               [ac.PrimitiveEvent(n, actual[n]) for n in names], parsed.effect)
        ]
    if op == "cause":
        return oracle_is_cause(model, context, parsed.cause, parsed.effect)
    ext = ac.ExtendedCausalModel(model, slot.order)
    causes = [parsed.cause] if op == "extended" else list(parsed.candidates)
    return [(oracle_is_cause(model, context, c, parsed.effect),
             oracle_is_extended_cause(ext, context, c, parsed.effect)) for c in causes]


def oracle_view(op: str, result):
    if op == "sweep":
        return [str(c) for c in result]
    if op == "cause":
        return result.is_cause_hp
    verdicts = [result] if op == "extended" else list(result.verdicts)
    return [(v.is_cause_hp, v.is_cause_extended) for v in verdicts]


def reference_problems(slot: Slot, result) -> list[str]:
    problems = closed_form_problems(slot.query, result)
    expected = oracle_answer(slot)
    got = oracle_view(slot.query.op, result)
    if expected is not None and got != expected:
        problems.append(f"{slot.query.line}: answer {got!r}, oracle says {expected!r}")
    return problems


class LibraryWorkload:
    def __init__(self, name: str, seed: int, cases):
        self.name = name
        self.variant = variant_of(seed)
        self.cases = cases(random.Random(self.variant))

    def prepare(self) -> list[Slot]:
        return prepare(self.cases)

    def run_slot(self, slot: Slot, index: int, verifier: Verifier) -> Outcome:
        started = perf_counter()
        try:
            result = answer(slot)
        except Exception as exc:  # noqa: BLE001 - a raising query is a failed query
            return Outcome(perf_counter() - started, error=f"{slot.query.line}: {exc!r}")
        seconds = perf_counter() - started
        answer_digest = digest(repr(canonical(slot.query.op, result)).encode())
        problems = verifier.check(index, answer_digest,
                                  lambda: reference_problems(slot, result))
        return Outcome(seconds, answer_digest, problems=problems)

    def round(self, slots, verifier, run=None) -> list[Outcome]:
        if run is None:
            return [self.run_slot(s, i, verifier) for i, s in enumerate(slots)]
        return [run("query", i, self.run_slot, s, i, verifier) for i, s in enumerate(slots)]

    def measure(self, seconds: float) -> tuple[list[Outcome], dict]:
        """Runs rounds for ``seconds``, each query after a speed probe.  The
        set-up probes run between rounds, one each time another
        1/SETUP_REPEATS of the window has passed, so their median samples the
        machine over the same span as the queries; their own time is not
        part of the window."""
        slots = self.prepare()
        verifier = Verifier(self.name, self.variant)
        outcomes: list[Outcome] = []
        speeds: list[float] = []
        setup: list[float] = []
        started = perf_counter()
        probing = 0.0
        rounds = 0
        while True:
            for index, slot in enumerate(slots):
                speeds.append(speed.probe())
                outcomes.append(self.run_slot(slot, index, verifier))
            rounds += 1
            elapsed = perf_counter() - started - probing
            while len(setup) < min(SETUP_REPEATS, SETUP_REPEATS * elapsed / seconds):
                probe_started = perf_counter()
                setup.append(probe_setup(self.name, self.variant))
                probing += perf_counter() - probe_started
            if elapsed >= seconds and len(outcomes) >= MIN_SAMPLES:
                break
        rss = peak_rss_mb(resource.RUSAGE_SELF)
        for outcome, scale in zip(outcomes, speed.scales(speeds, speed.PROBE_REF_S)):
            outcome.scale = scale
        return outcomes, {"rounds": rounds, "peak_rss_mb": rss,
                          "setup_s": statistics.median(setup)}

    def traced(self, tracer) -> tuple[list[Outcome], dict]:
        verifier = Verifier(self.name, self.variant)
        slots = self.prepare()
        plain = self.round(slots, verifier)
        tracer.install()
        try:
            slots = tracer.run("setup", -1, self.prepare)
            traced = self.round(slots, verifier, tracer.run)
        finally:
            tracer.uninstall()
        return traced, {
            "trace.qps_ratio": sum(o.seconds for o in plain) / sum(o.seconds for o in traced),
        }

    def record(self) -> list[str]:
        return [o.digest for o in self.round(self.prepare(), _Recorder())]


class _Recorder:
    """Stands in for a Verifier while digests are recorded: an answer is
    recorded only when it passes every other reference."""

    def check(self, index, answer_digest, reference) -> list[str]:
        problems = list(reference())
        if problems:
            raise RuntimeError("; ".join(problems))
        return []


# -- set-up probe ----------------------------------------------------------------------


def probe_setup(workload: str, variant: int) -> float:
    """Reference seconds a fresh interpreter takes to import the package
    and set up every document of the workload, scaled by a start probe made
    just before it."""
    started = speed.start_probe(child_env(), ROOT)
    return speed.START_REF_S / started * _child_seconds(
        "import sys; sys.path[:0] = [{bench!r}, {src!r}]; import workloads; "
        "print(workloads.timed_setup({name!r}, {variant}))".format(
            bench=str(BENCH), src=str(SRC), name=workload, variant=variant))


def probe_import() -> float:
    """Median over fresh interpreters of the time to import the CLI."""
    return statistics.median(
        _child_seconds("import time; t = time.perf_counter(); "
                       "import actualcause.cli; print(time.perf_counter() - t)")
        for _ in range(SETUP_REPEATS))


def _child_seconds(code: str) -> float:
    """Runs ``python -c code``, which prints seconds."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S, cwd=ROOT, env=child_env())
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def timed_setup(workload: str, variant: int) -> float:
    if workload == "cli-corpus":
        texts = CliWorkload(variant).setup_texts()
        started = perf_counter()
        _setup_documents(texts)
        return perf_counter() - started
    cases = WORKLOADS[workload](variant).cases
    started = perf_counter()
    import actualcause  # noqa: F401

    prepare(cases)
    return perf_counter() - started


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- cli-corpus --------------------------------------------------------------------------


@dataclass
class Call:
    """One CLI process: its argv after ``actualcause`` and how to check it."""

    argv: list[str]
    doc: str = ""                  # document path, for oracle and expectation checks
    golden: Optional[Path] = None  # expected stdout, byte for byte
    defect: str = ""               # name of a known-defect input
    facts: dict = field(default_factory=dict)  # payload fields the answer must have


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    if not path.is_file() or path.read_text(encoding="utf-8") != text:
        path.write_text(text, encoding="utf-8")
    return str(path)


def _with_queries(case: gen.Case) -> str:
    lines = [q.line for q in case.queries if q.op in ("extended", "grade")]
    return "\n".join([case.text, *lines])


class CliWorkload:
    name = "cli-corpus"

    def __init__(self, seed: int):
        self.variant = variant_of(seed)
        rng = random.Random(self.variant)
        self.docs_dir = OUT / "docs" / f"v{self.variant}"
        self.generated = {
            "wide.scm.txt": gen.wide_table(rng, 6),
            "chain.scm.txt": gen.long_chain(300),
            "norms.scm.txt": _with_queries(gen.norm_chain(rng, 5, 60)),
            "mechanism.scm.txt": _with_queries(gen.mechanism(rng, 2)),
            "severity.scm.txt": _with_queries(gen.severity(rng, 5)),
        }
        self.defects = {
            "deep_parens.scm.txt": gen.deep_formula(2000, "parens"),
            "deep_negation.scm.txt": gen.deep_formula(3000, "negation"),
            "chain_effect_first.scm.txt": gen.long_chain(1500, effect_first=True),
        }

    def fixture_paths(self) -> list[Path]:
        return sorted(FIXTURES.glob("*.scm.txt"))

    def setup_texts(self) -> list[str]:
        """Every document the queries read, except the known-defect inputs,
        which do not parse at the seed commit."""
        return ([p.read_text(encoding="utf-8") for p in self.fixture_paths()]
                + list(self.generated.values()))

    def calls(self) -> list[Call]:
        from actualcause import dsl
        from actualcause.corpus import GOLDEN_RUNS, golden_argv, golden_path

        calls = [Call(golden_argv(command, filename, extra), str(FIXTURES / filename),
                      golden=golden_path(name))
                 for name, command, filename, extra in GOLDEN_RUNS]
        golden = {tuple(c.argv) for c in calls}
        for path in self.fixture_paths():
            doc = dsl.parse_document(path.read_text(encoding="utf-8"))
            calls += [Call(argv, str(path)) for argv in _fixture_argvs(str(path), doc)
                      if tuple(argv) not in golden]
        gen_paths = {name: _write(self.docs_dir / name, text)
                     for name, text in self.generated.items()}
        wide, chain = gen_paths["wide.scm.txt"], gen_paths["chain.scm.txt"]
        calls += [
            Call(["validate", wide, "--format", "json"], wide, facts={"ok": True}),
            Call(["solve", wide, "--format", "json"], wide),
            Call(["validate", chain, "--format", "json"], chain, facts={"ok": True}),
            Call(["solve", chain, "--format", "json"], chain,
                 facts={"world": {f"X{i}": 1 for i in range(300)}}),
            Call(["satisfies", chain, "--format", "json"], chain, facts={"holds": True}),
        ]
        for name in ("norms.scm.txt", "mechanism.scm.txt", "severity.scm.txt"):
            path = gen_paths[name]
            calls += [Call(["check", path, "--mode", "extended", "--format", "json"], path),
                      Call(["grade", path, "--mode", "extended", "--format", "json"], path)]
        for name, text in self.defects.items():
            path = _write(self.docs_dir / name, text)
            if name.startswith("chain"):
                argv, right = ["solve", path, "--format", "json"], {
                    "world": {f"X{i}": 1 for i in range(1500)}}
            else:
                argv, right = ["satisfies", path, "--format", "json"], {"holds": True}
            calls.append(Call(argv, path, defect=name, facts=right))
        return calls

    # -- running and checking ----------------------------------------------------------

    def run_process(self, call: Call) -> tuple[float, int, bytes, bytes]:
        started = perf_counter()
        try:
            done = subprocess.run([sys.executable, "-m", "actualcause.cli", *call.argv],
                                  capture_output=True, timeout=CLI_TIMEOUT_S, cwd=ROOT,
                                  env=child_env())
        except subprocess.TimeoutExpired:
            return perf_counter() - started, -1, b"", b"timed out"
        return perf_counter() - started, done.returncode, done.stdout, done.stderr

    def run_inprocess(self, call: Call) -> tuple[float, int, bytes, bytes]:
        from actualcause import cli

        out, err = io.StringIO(), io.StringIO()
        started = perf_counter()
        code = cli.main(list(call.argv), stdout=out, stderr=err)
        return (perf_counter() - started, code, out.getvalue().encode("utf-8"),
                err.getvalue().encode("utf-8"))

    def outcome(self, index: int, call: Call, run, verifier: Verifier,
                checker: "CliChecker") -> Outcome:
        seconds, code, stdout, stderr = run(call)
        answer_digest = digest(f"{code}\n".encode() + stdout)
        if call.defect:
            error, wrong = checker.defect_problems(call, code, stdout, stderr)
            return Outcome(seconds, answer_digest, error=error, problems=wrong, defect=True)
        if code != 0:
            tail = stderr.decode("utf-8", "replace").strip()[-300:]
            return Outcome(seconds, answer_digest,
                           error=f"{call.argv[0]} {call.doc}: exit {code}: {tail}")
        problems = verifier.check(index, answer_digest,
                                  lambda: checker.problems(call, stdout))
        return Outcome(seconds, answer_digest, problems=problems)

    def measure(self, seconds: float) -> tuple[list[Outcome], dict]:
        """Runs whole passes over the calls, so every run measures the same
        mix, and stops after the pass in which the time is up, the p90 has its
        samples and CLI_PASSES passes are done.  Every PROBE_EVERY-th call
        follows a start probe."""
        calls = self.calls()
        verifier = Verifier(self.name, self.variant)
        checker = CliChecker()
        outcomes: list[Outcome] = []
        speeds: list[float] = []
        started = perf_counter()
        passes = 0
        while True:
            for index, call in enumerate(calls):
                if len(outcomes) % PROBE_EVERY == 0:
                    speeds.append(speed.start_probe(child_env(), ROOT))
                outcomes.append(self.outcome(index, call, self.run_process, verifier, checker))
            passes += 1
            regular = sum(1 for o in outcomes if not o.defect)
            if (passes >= CLI_PASSES and perf_counter() - started >= seconds
                    and regular >= MIN_SAMPLES):
                break
        # The set-up probes run after the window: peak RSS is the largest
        # child's so far, and a set-up probe between the calls would count as
        # one.  A start probe imports only a few standard modules and stays
        # below every call.
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        scales = speed.scales(speeds, speed.START_REF_S)
        for position, outcome in enumerate(outcomes):
            outcome.scale = scales[position // PROBE_EVERY]
        setup = [probe_setup(self.name, self.variant) for _ in range(SETUP_REPEATS)]
        return outcomes, {"rounds": passes, "peak_rss_mb": rss,
                          "setup_s": statistics.median(setup)}

    def traced(self, tracer) -> tuple[list[Outcome], dict]:
        calls = self.calls()
        verifier = Verifier(self.name, self.variant)
        checker = CliChecker()
        process = [self.outcome(i, c, self.run_process, verifier, checker)
                   for i, c in enumerate(calls)]
        plain = [self.outcome(i, c, self.run_inprocess, verifier, checker)
                 for i, c in enumerate(calls)]
        texts = self.setup_texts()
        tracer.install()
        try:
            tracer.run("setup", -1, _setup_documents, texts)
            traced = [tracer.run("query", i, self.outcome, i, c, self.run_inprocess,
                                 verifier, checker) for i, c in enumerate(calls)]
        finally:
            tracer.uninstall()
        for call, by_process, replayed in zip(calls, process, traced):
            if by_process.digest != replayed.digest:
                replayed.problems.append(
                    f"in-process replay differs from the process: {call.argv}")
        return traced, {
            "trace.qps_ratio": sum(o.seconds for o in plain) / sum(o.seconds for o in traced),
            "cli.import_s": probe_import(),
            "cli.process_overhead_s": statistics.fmean(
                p.seconds - q.seconds for p, q in zip(process, plain)),
            "cli.defect_failures": sum(1 for o in process if o.defect and o.failed),
        }

    def record(self) -> list[str]:
        checker = CliChecker()
        return [self.outcome(i, c, self.run_inprocess, _Recorder(), checker).digest
                for i, c in enumerate(self.calls())]


def _setup_documents(texts: list[str]):
    from actualcause import dsl, validate_model

    for text in texts:
        doc = dsl.parse_document(text)
        validate_model(doc.model)
        if doc.has_normality():
            doc.normality_order()


def _fixture_argvs(path: str, doc) -> list[list[str]]:
    """One process per query line of a fixture: in plain mode, and in
    extended mode too where the fixture has a normality section."""
    from actualcause import dsl

    modes = ["hp", "extended"] if doc.has_normality() else ["hp"]
    argvs = []
    for query in doc.queries:
        text = dsl.format_query(query)
        if isinstance(query, dsl.SolveQuery):
            argvs.append(["solve", path, f"@{query.context}"])
        elif isinstance(query, dsl.SatisfiesQuery):
            argvs.append(["satisfies", path, text])
        elif isinstance(query, (dsl.CauseQuery, dsl.WitnessQuery)):
            command = "check" if isinstance(query, dsl.CauseQuery) else "witnesses"
            argvs += [[command, path, text, "--mode", mode] for mode in modes]
        elif doc.has_normality():
            argvs.append(["grade", path, text, "--mode", "extended"])
    return [argv + ["--format", "json"] for argv in argvs]


class CliChecker:
    """References for CLI answers: goldens, corpus expectations, the oracle
    and the facts of generated documents."""

    def __init__(self):
        from actualcause.corpus import FIXTURES as CORPUS

        self.expectations = {}
        for fixture in CORPUS:
            for e in fixture.expectations:
                self.expectations.setdefault((e.file, e.query, e.mode), []).append(e)
        self.docs = {}

    def _doc(self, path: str):
        from actualcause import dsl

        if path not in self.docs:
            self.docs[path] = dsl.parse_document(Path(path).read_text(encoding="utf-8"))
        return self.docs[path]

    def problems(self, call: Call, stdout: bytes) -> list[str]:
        label = " ".join([call.argv[0], Path(call.doc).name])
        problems = []
        if (call.golden is not None
                and stdout.decode("utf-8") != call.golden.read_text(encoding="utf-8")):
            problems.append(f"{label}: output differs from golden {call.golden.name}")
        try:
            body = json.loads(stdout)
        except ValueError:
            return problems + [f"{label}: output is not JSON"]
        payloads = body if isinstance(body, list) else [body]
        for payload in payloads:
            for key, want in call.facts.items():
                if payload.get(key) != want:
                    problems.append(f"{label}: {key} is {payload.get(key)!r}, expected {want!r}")
            problems += [f"{label}: {p}" for p in self._payload_problems(call, payload)]
        return problems

    def _payload_problems(self, call: Call, payload: dict) -> list[str]:
        query = payload.get("query")
        if query is None:
            return []
        mode = payload.get("mode", "hp")
        problems = []
        for e in self.expectations.get((Path(call.doc).name, query, mode), []):
            problems += _expectation_problems(e, payload)
        if query.startswith(("cause ", "witnesses ", "grade ")):
            want = self._oracle(call.doc, query, mode)
            if want is not None:
                got = ([payload["is_cause"]] if "is_cause" in payload
                       else [c["is_cause"] for c in payload["candidates"]])
                if got != want:
                    problems.append(f"{query} ({mode}): {got}, oracle says {want}")
        return problems

    def _oracle(self, path: str, query_text: str, mode: str) -> Optional[list[bool]]:
        import actualcause as ac
        from actualcause import dsl
        from actualcause.oracle import oracle_is_cause, oracle_is_extended_cause

        doc = self._doc(path)
        if len(doc.model.endogenous) > ORACLE_MAX_ENDOGENOUS:
            return None
        query = dsl.parse_query(query_text, doc)
        context = doc.contexts[query.context]
        causes = list(query.candidates) if isinstance(query, dsl.GradeQuery) else [query.cause]
        if mode == "extended":
            ext = ac.ExtendedCausalModel(doc.model, doc.normality_order())
            return [oracle_is_extended_cause(ext, context, c, query.effect) for c in causes]
        return [oracle_is_cause(doc.model, context, c, query.effect) for c in causes]

    def defect_problems(self, call: Call, code: int, stdout: bytes,
                        stderr: bytes) -> tuple[str, list[str]]:
        """A known-defect input is answered on exit 0 with the right answer
        or on exit 1 with a diagnostic.  Returns the failure, if any, and a
        wrong answer as a problem."""
        if code == 1 and stderr.strip().startswith(b"error"):
            return "", []
        if code == 0:
            try:
                payload = json.loads(stdout)
            except ValueError:
                payload = {}
            if all(payload.get(k) == v for k, v in call.facts.items()):
                return "", []
            return "", [f"{call.defect}: exit 0 with a wrong answer"]
        return f"{call.defect}: exit {code}", []


def _expectation_problems(e, payload: dict) -> list[str]:
    expect = e.expect
    problems = []
    if e.kind == "solve" and payload.get("world") != expect["world"]:
        problems.append(f"{e.query}: world {payload.get('world')}, expected {expect['world']}")
    if e.kind == "satisfies" and payload.get("holds") != expect["holds"]:
        problems.append(f"{e.query}: holds {payload.get('holds')}, expected {expect['holds']}")
    if e.kind in ("cause", "witnesses"):
        if "is_cause" in expect and payload["is_cause"] != expect["is_cause"]:
            problems.append(f"{e.query} ({e.mode}): is_cause {payload['is_cause']}")
        if "best_witnesses" in expect and payload["best_witnesses"] != expect["best_witnesses"]:
            problems.append(f"{e.query} ({e.mode}): best witnesses differ")
        if "contains" in expect and not any(
                all(w.get(k) == v for k, v in expect["contains"].items())
                for w in payload["witnesses"]):
            problems.append(f"{e.query}: expected witness missing")
        if "contains_world" in expect and not any(
                w["world"] == expect["contains_world"] for w in payload["witnesses"]):
            problems.append(f"{e.query}: expected witness world missing")
    if e.kind == "grade":
        got = {c["cause"]: c["is_cause"] for c in payload["candidates"]}
        if got != expect["causes"]:
            problems.append(f"{e.query}: causes {got}, expected {expect['causes']}")
        for relation, a, b in expect["relations"]:
            entry = {"above": {"above": a, "below": b}, "equal": {"equal": [a, b]},
                     "incomparable": "incomparable"}[relation]
            if entry not in payload["grading"]:
                problems.append(f"{e.query}: missing grading entry {entry}")
    return problems


WORKLOADS = {
    "decide-hp": lambda seed: LibraryWorkload("decide-hp", seed, decide_cases),
    "enumerate-ext": lambda seed: LibraryWorkload("enumerate-ext", seed, enumerate_cases),
    "cli-corpus": CliWorkload,
}
