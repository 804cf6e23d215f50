"""Seeded input generation for the four benchmark workloads.

Every workload is a fixed cycle of operation types; the sizes and the
order never change, and the workload seed draws only the contents
(amplitudes, angles, operators, priors and RNG seeds).  ``cycle_cases``
returns one cycle's cases; cycle ``c`` of seed ``s`` always yields the
same cases, and different cycles or seeds yield different contents.  No
two ops in a run share a document, except the fixed bundled scenarios of
``cli-cold`` and the repeats a determinism check asks for.

A case carries the scenario document handed to the program and the
independent data the output checks need (the generated operators
themselves, never anything the program computed).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-cold", "optics-sweep", "retrodict-batch", "bb84-slots")

#: Wall time of one cycle, checks included, measured at the commit that
#: added the benchmark on a shared 2-vCPU Xeon host.  A run of ``seconds``
#: executes round(seconds / cycle time) whole cycles, so it lasts about
#: ``seconds`` there and is the same work on every commit and machine.
NOMINAL_CYCLE_S = {"cli-cold": 10.0, "optics-sweep": 2.6, "retrodict-batch": 9.0,
                   "bb84-slots": 10.0}

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "src" / "qretrodict" / "scenarios"

#: The twelve bundled scenarios, in the order the cold workload runs them.
BUNDLED = (
    "bb84-intercept-resend", "bb84-monte-carlo", "bb84-retrodict",
    "bb84-tables", "biased-qubit", "bus-train", "detector-perfect",
    "detector-single-count", "horse-race", "scissors-eq41",
    "synthesis-single-photon", "vacuum-synthesis",
)

OPTICS_TRUNCATIONS = (8, 16, 24, 32, 40)
OPTICS_KINDS = ("synthesis", "scissors", "detector")
COUNT_PAIRS = tuple((n, m) for n in range(5) for m in range(5) if n + m <= 4)


@dataclass
class Case:
    """One operation: a scenario document plus what its check needs.

    ``text`` is the exact file content handed to the program.  ``name``
    is the operation type (the same in every cycle).  ``expect`` holds
    check data; ``repeat_of`` names an earlier case of the same cycle
    whose output must be byte-identical.
    """

    name: str
    kind: str
    text: str
    expect: dict = field(default_factory=dict)
    repeat_of: int | None = None


def _rng(seed: int, cycle: int, index: int) -> np.random.Generator:
    # SeedSequence takes nonnegative entries; fold a negative seed into range.
    return np.random.default_rng([seed % 2 ** 64, cycle, index])


def _doc_text(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def _complex_pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def _matrix_doc(mat: np.ndarray) -> list:
    return [_complex_pairs(row) for row in mat]


def _unit_vector(rng, size: int) -> np.ndarray:
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


def cycles_for(workload: str, seconds: float) -> int:
    """Number of whole cycles a run of ``seconds`` executes."""
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def cycle_cases(workload: str, seed: int, cycle: int) -> list:
    """All cases of one cycle of ``workload``."""
    try:
        make = _MAKERS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}") from None
    return make(seed, cycle)


# --- cli-cold ---------------------------------------------------------------

def _cold_cases(seed: int, cycle: int) -> list:
    cases = [Case(name=name, kind="bundled",
                  text=(SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8"),
                  expect={"exit": 0, "golden": name})
             for name in BUNDLED]
    rng = _rng(seed, cycle, 0)
    base = (SCENARIO_DIR / "bus-train.json").read_text(encoding="utf-8")
    # Any proper prefix of a JSON object (one that stops before its closing
    # brace) is unparsable.
    cut = int(rng.integers(1, base.rindex("}")))
    cases.append(Case(name="malformed-unparsable", kind="malformed",
                      text=base[:cut], expect={"exit": 2, "stdout": b""}))
    bad_kind = {"schema_version": 1, "kind": f"kind-{rng.integers(1 << 30):08x}",
                "parameters": {}}
    cases.append(Case(name="malformed-schema", kind="malformed",
                      text=_doc_text(bad_kind), expect={"exit": 3, "stdout": b""}))
    p = float(rng.uniform(0.05, 0.95))
    rows = rng.uniform(0.05, 0.95, size=2)
    zero_observed = {
        "schema_version": 1, "kind": "bayes",
        "parameters": {
            "events": ["x", "y"], "priors": [p, 1.0 - p],
            "outcomes": ["seen", "unseen", "never"],
            "conditional": [[float(r), float(1.0 - r), 0.0] for r in rows],
            "observed": "never",
        },
    }
    cases.append(Case(name="malformed-zero-probability", kind="malformed",
                      text=_doc_text(zero_observed), expect={"exit": 4, "stdout": b""}))
    # No bundled scenario emits per-slot records; this op puts the records
    # render path in the cold runs too.
    slots, attack = BB84_SLOTS["r"], ATTACKS[cycle % 2]
    cases.append(Case(name=f"records-{slots}", kind="bb84",
                      text=_bb84_doc(slots, int(rng.integers(0, 2 ** 31)), attack, True),
                      expect={"exit": 0, "slots": slots, "attack": attack, "records": True}))
    return cases


# --- optics-sweep -----------------------------------------------------------

def _optics_cases(seed: int, cycle: int) -> list:
    cases = []
    for n_trunc in OPTICS_TRUNCATIONS:
        for kind in OPTICS_KINDS:
            rng = _rng(seed, cycle, len(cases))
            name = f"{kind}-N{n_trunc}"
            if kind == "detector":
                counts = int(rng.integers(0, 5))
                eta = float(rng.uniform(0.2, 0.95))
                params = {"counts": counts, "efficiency": eta, "truncation": n_trunc}
                expect = {"counts": counts, "eta": eta, "dim": n_trunc + 1}
            else:
                amps = _unit_vector(rng, int(rng.integers(2, 5)))
                theta = float(rng.uniform(0.2, 1.35))
                params = {"reference": _complex_pairs(amps), "theta": theta,
                          "truncation": n_trunc}
                expect = {"amplitudes": amps, "theta": theta, "dim": n_trunc + 1}
                if kind == "synthesis":
                    n, m = COUNT_PAIRS[int(rng.integers(len(COUNT_PAIRS)))]
                    params.update(counts_b=n, counts_c=m)
                    expect["support"] = n + m
            doc = {"schema_version": 1, "kind": kind, "parameters": params}
            cases.append(Case(name=name, kind=kind, text=_doc_text(doc), expect=expect))
    return cases


# --- retrodict-batch --------------------------------------------------------

def _random_unitary(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unbiased_source(rng, d: int, k: int):
    """Uniform priors over the vectors of k/d orthonormal bases."""
    bases = [np.eye(d, dtype=complex)] + [_random_unitary(rng, d) for _ in range(k // d - 1)]
    vectors = [basis[:, i] for basis in bases for i in range(d)]
    return np.full(k, 1.0 / k), vectors


def _biased_source(rng, d: int, k: int):
    """Random priors over random pure states."""
    return rng.dirichlet(np.ones(k)), [_unit_vector(rng, d) for _ in range(k)]


def _rank_one_pom(rng, d: int, k: int) -> np.ndarray:
    """k random rank-1 elements W_b W_b^dagger with W = S^(-1/2) V, S = V V^dagger."""
    v = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    w_vals, w_vecs = np.linalg.eigh(v @ v.conj().T)
    w = (w_vecs / np.sqrt(w_vals)) @ w_vecs.conj().T @ v
    return np.einsum("ib,jb->bij", w, w.conj())


#: Ops per cycle for each (d, events = outcomes).  Op times grow with each
#: size, and at d >= 8 biased sources often take longer than unbiased ones, so
#: with equal counts the median falls in a gap between two clusters of
#: op times and jumps with the host's speed.  These counts put the median
#: in the middle of the d=4, k=8 ops (12 ops below them, 12 above), where
#: both sources cost the same, and, at three cycles a run, the tail (rank
#: n-10) among the slower half of the d=16, k=16 ops, with the d=16, k=32
#: ops beyond it.  The larger sizes still take most of the time.
RETRODICT_MIX = {(4, 4): 12, (4, 8): 8, (8, 8): 2, (8, 16): 2, (16, 16): 6, (16, 32): 2}
RETRODICT_SOURCES = ("unbiased", "biased")


def _spread(counts: dict) -> list:
    """Each key repeated counts[key] times, spread evenly over one cycle."""
    slots = [((i + 0.5) / n, rank, key) for rank, (key, n) in enumerate(counts.items())
             for i in range(n)]
    return [key for _, _, key in sorted(slots)]


def _retrodict_cases(seed: int, cycle: int) -> list:
    cases = []
    for d, k in _spread(RETRODICT_MIX):
        # Sources alternate over each size's ops, continuing across cycles.
        before = sum(1 for c in cases if c.expect["size"] == (d, k))
        source = RETRODICT_SOURCES[(cycle * RETRODICT_MIX[d, k] + before) % 2]
        rng = _rng(seed, cycle, len(cases))
        make_source = _unbiased_source if source == "unbiased" else _biased_source
        priors, vectors = make_source(rng, d, k)
        states = np.array([np.outer(v, v.conj()) for v in vectors])
        pom = _rank_one_pom(rng, d, k)
        doc = {"schema_version": 1, "kind": "retrodict", "parameters": {
            "events": [{"label": f"e{a}", "prior": float(priors[a]),
                        "state": _matrix_doc(states[a])} for a in range(k)],
            "pom": [{"label": f"o{b}", "element": _matrix_doc(pom[b])}
                    for b in range(k)],
        }}
        cases.append(Case(name=f"{source}-d{d}-k{k}", kind="retrodict",
                          text=_doc_text(doc),
                          expect={"priors": priors, "states": states, "pom": pom,
                                  "source": source, "size": (d, k)}))
    return cases


# --- bb84-slots -------------------------------------------------------------

def _bb84_doc(slots: int, rng_seed: int, attack: str, records: bool) -> str:
    return _doc_text({"schema_version": 1, "kind": "bb84", "parameters": {
        "slots": slots, "seed": rng_seed, "attack": attack,
        "include_records": records}})


#: One bb84-slots cycle: ``t`` a tally-only run at 10^5 slots, ``T`` one at
#: 10^6 slots, ``r`` a records run at 10^4 slots.  Attacks alternate between
#: none and intercept_resend within each letter.  Twelve 10^5 tallies, four
#: record runs and two 10^6 tallies put both the median and the tail op
#: inside the 10^5 tallies, which have enough samples per run to be
#: steady; the 10^6 tallies still take most of the time.
BB84_CYCLE = "trtttTtrtttrtttTtr"
BB84_SLOTS = {"t": 10 ** 5, "T": 10 ** 6, "r": 10 ** 4}
ATTACKS = ("none", "intercept_resend")


def _bb84_cases(seed: int, cycle: int) -> list:
    rng = _rng(seed, cycle, 0)
    seen = {letter: 0 for letter in BB84_SLOTS}
    records_at = []
    cases = []
    for letter in BB84_CYCLE:
        slots, count = BB84_SLOTS[letter], seen[letter]
        seen[letter] += 1
        attack = ATTACKS[count % 2]
        records = letter == "r"
        rng_seed = int(rng.integers(0, 2 ** 31))
        repeat_of = None
        if records:
            records_at.append(len(cases))
            # The second half of the record runs reruns the first half's
            # documents: equal seeds must give byte-identical output.
            half = BB84_CYCLE.count("r") // 2
            if count >= half:
                repeat_of = records_at[count - half]
        text = (cases[repeat_of].text if repeat_of is not None
                else _bb84_doc(slots, rng_seed, attack, records))
        cases.append(Case(name=f"{'records' if records else 'tally'}-{slots}-{attack}",
                          kind="bb84", text=text,
                          expect={"slots": slots, "attack": attack, "records": records},
                          repeat_of=repeat_of))
    return cases


_MAKERS = {
    "cli-cold": _cold_cases,
    "optics-sweep": _optics_cases,
    "retrodict-batch": _retrodict_cases,
    "bb84-slots": _bb84_cases,
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
