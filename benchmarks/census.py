"""Byte-identity census of the CLI: one line per run, to diff two trees.

Run from the repository root (not part of the tier-1 suite)::

    PYTHONPATH=src python benchmarks/census.py > census.txt

and compare two trees with ``diff``.  Each run is ``cli.main(["run", path,
"--format", fmt])`` in this process, as JSON and as CSV, and prints one
line: the document's name, the format, the exit code, and the SHA-256 of
the bytes written to standard output and to standard error.

The documents: the twelve bundled scenarios; every ``cli-cold``,
``optics-sweep`` and ``retrodict-batch`` document of seeds 1-3, cycles
0-2, from ``perfbench/workloads.py``; ``bb84`` at 1, 10^4 and 10^6 slots,
with and without records, under both attacks; intake faults of the
``[re, im]`` matrices and of the numbers read beside them, and documents
whose numbers overflow near the top of the double range; ``bayes``
documents whose joint entries fall below the normal double range; and
byte-level intake documents: CR, CRLF and mixed line ends, a byte-order
mark, bytes that are not UTF-8, parse errors after CR and CRLF lines, a
seed of more digits than Python converts to an int by default, and
documents at the byte cap, the ``retrodict`` cell bound and its overlap
bound, and one past each; documents at the edge of a verdict: biased
outcomes of weight just above ``TRACE_TOL`` and of zero overlaps, schema
rejections of a long string and a long list, and detector counts up to
64.

Every document is written as bytes to one fixed path, because a parse
error's message names the path.  A run holds an exclusive lock on a file
beside that path from start to end, so a second run started meanwhile
waits for it instead of reading its documents.  Standard output and
standard error are each a text layer over a binary buffer, as a
process's are, so that a writer that takes the binary layer runs as it
does in a real process.
"""

import contextlib
import fcntl
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from qretrodict import cli  # noqa: E402

SEEDS = (1, 2, 3)
CYCLES = (0, 1, 2)
WORKLOADS = ("cli-cold", "optics-sweep", "retrodict-batch")
FORMATS = ("json", "csv")
#: A JSON integer no double can hold.
HUGE = 10 ** 400
#: The longest scenario file the CLI reads (``cli.SCENARIO_BYTE_CAP``),
#: written out so that the documents stay the same bytes on every tree.
BYTE_CAP = 16 * 2 ** 20


def _qubit(*diagonal):
    return [[[diagonal[i], 0.0] if i == j else [0.0, 0.0] for j in range(2)]
            for i in range(2)]


def _retrodict(events, pom=None):
    """A ``retrodict`` document on a qubit; ``events`` and ``pom`` are
    ``(prior, state)`` and element lists, the standard basis by default."""
    pom = pom or [_qubit(1.0, 0.0), _qubit(0.0, 1.0)]
    return {"kind": "retrodict", "parameters": {
        "events": [{"label": f"e{i}", "prior": prior, "state": state}
                   for i, (prior, state) in enumerate(events)],
        "pom": [{"label": f"o{i}", "element": element}
                for i, element in enumerate(pom)]}}


def _optics(kind, reference, theta=0.5):
    params = {"reference": reference, "theta": theta, "truncation": 4}
    if kind == "synthesis":
        params.update(counts_b=1, counts_c=0)
    return {"kind": kind, "parameters": params}


def _faults():
    """Intake fault documents, two that pass with unusual entries, and five
    whose numbers overflow while they are checked or run."""
    up, down = _qubit(1.0, 0.0), _qubit(0.0, 1.0)
    big = 1.7e308  # the sum of two is beyond the double range
    ragged = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]
    huge_state = [[[HUGE, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    nan_state = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    return {
        "huge-state": _retrodict([(0.5, huge_state), (0.5, down)]),
        "huge-element": _retrodict([(0.5, up), (0.5, down)],
                                   [_qubit(1.0, 0.0), [[[0, 0], [0, 0]], [[0, 0], [0, -HUGE]]]]),
        "huge-prior": _retrodict([(HUGE, up), (0.5, down)]),
        "huge-prior-after-ragged": _retrodict([(0.5, ragged), (HUGE, down)]),
        "huge-prior-before-nan": _retrodict([(HUGE, nan_state), (0.5, down)]),
        "huge-then-ragged": _retrodict([(0.5, [[[1, 0], [0, 0]], [[HUGE, 0]]]),
                                        (0.5, down)]),
        "huge-reference-synthesis": _optics("synthesis", [[1.0, 0.0], [0.0, HUGE]]),
        "huge-reference-scissors": _optics("scissors", [[HUGE, 0.0]]),
        "huge-reference-and-theta": _optics("synthesis", [[HUGE, 0.0]], theta=HUGE),
        "ragged": _retrodict([(0.5, up), (0.5, ragged)]),
        "nonsquare": _retrodict([(0.5, up[:1]), (0.5, down)]),
        "nan": _retrodict([(0.5, nan_state), (0.5, down)]),
        "integer-entries": _retrodict([(0.5, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]),
                                       (0.5, [[[0, 0], [0, 0]], [[0, 0], [1, 0]]])]),
        "integer-reference": _optics("scissors", [[0, 0], [1, 0]]),
        "near-max-asymmetric-state": _retrodict(
            [(0.5, [[[big, 0], [big, 0]], [[-big, 0], [0, 0]]]), (0.5, down)]),
        "near-max-state-trace": _retrodict([(0.5, _qubit(big, big)), (0.5, down)]),
        "near-max-element": _retrodict([(0.5, up), (0.5, down)],
                                       [[[[big, 0], [big, big]], [[big, -big], [-big, 0]]], down]),
        "near-max-priors": {"kind": "bayes", "parameters": {
            "events": ["a", "b"], "priors": [big, big], "outcomes": ["o"],
            "conditional": [[1], [1]]}},
        "near-max-theta": {"kind": "synthesis", "parameters": {
            "reference": [[0.6, 0], [0.8, 0]], "counts_b": 2, "counts_c": 1, "theta": big,
            "truncation": 4}},
    }


def _subnormal():
    """``bayes`` documents whose outcome ``x`` has conditionals of 1e-320 or
    5e-324, so that every joint entry of its column is subnormal."""
    docs = {}
    for priors, entry in (([0.3, 0.7], 1e-320), ([0.5, 0.5], 5e-324)):
        params = {"events": ["a", "b"], "priors": priors, "outcomes": ["x", "y"],
                  "conditional": [[entry, 1.0], [entry, 1.0]]}
        docs[f"{entry!r}"] = {"kind": "bayes", "parameters": params}
        docs[f"{entry!r}-observed"] = {"kind": "bayes", "parameters": dict(params, observed="x")}
    return docs


def _of_shape(k, m, d=1):
    """A ``retrodict`` document of k events (states I/d of prior 1/k) and m
    POM elements I/m on dimension d."""
    def matrix(value):
        return [[[value, 0] if i == j else [0, 0] for j in range(d)] for i in range(d)]

    return json.dumps({"kind": "retrodict", "parameters": {
        "events": [{"label": f"e{i}", "prior": 1 / k, "state": matrix(1 / d)}
                   for i in range(k)],
        "pom": [{"label": f"b{j}", "element": matrix(1 / m)} for j in range(m)]}}).encode()


def _intake():
    """Byte-level documents: a bundled scenario with other line ends, a
    byte-order mark and bytes that are not UTF-8, parse errors whose line
    and column count translated line ends, and an integer of more digits
    than Python converts by default, which ``json.dumps`` cannot write;
    then documents at each size bound and one past it: that scenario padded
    to the byte cap, and ``retrodict`` shapes at the cell and overlap
    bounds; then documents at the edge of a verdict: a biased outcome of
    weight just above ``TRACE_TOL`` whose overlaps sum to exactly 1e-12, a
    biased outcome whose overlaps are all exactly zero, schema rejections
    of a 1 MB string and a 400 KB list, and detector counts 4, 8 and 64 at
    N = 64."""
    text = (workloads.SCENARIO_DIR / "bus-train.json").read_bytes()
    lines = text.split(b"\n")
    mixed = b"".join(line + (b"\r\n", b"\r", b"\n")[i % 3]
                     for i, line in enumerate(lines[:-1])) + lines[-1]
    # Past the first 8 KiB, the default buffer size: a reader that decoded
    # in chunks would name another position.
    padded = text.rstrip()[:-1] + b" " * 9000 + b', "x": "\xff"}'
    up = _qubit(1.0, 0.0)
    edges = {
        "biased-weight-just-above-trace-tol": _retrodict(
            [(0.14398180055736376, _qubit(0.6493617754508143, 0.3506382245491857)),
             (0.8560181994426362, _qubit(0.31646540577483634, 0.6835345942251636))],
            [_qubit(2.7442640290106694e-12, 0.0), _qubit(0.9999999999972558, 1.0)]),
        "biased-outcome-of-zero-overlaps": _retrodict([(0.3, up), (0.7, up)]),
        "kind-of-a-million-characters": {"kind": "x" * 10 ** 6},
        "list-of-100000-objects": [{}] * 10 ** 5,
        **{f"detector-count-{n}-N64": {"kind": "detector", "parameters": {
            "counts": n, "efficiency": 0.7, "truncation": 64}} for n in (4, 8, 64)},
    }
    return {
        "crlf": text.replace(b"\n", b"\r\n"),
        "cr": text.replace(b"\n", b"\r"),
        "mixed": mixed,
        "cr-at-end": text.rstrip() + b"\r",
        "bom": b"\xef\xbb\xbf" + text,
        "invalid-utf8-past-8k": padded,
        "truncated-multibyte": text.rstrip() + b"\xe2\x82",
        "parse-error-after-crlf": b'{\r\n  "kind": "bayes",\r\r\n  "parameters": ,\r\n}',
        "parse-error-after-cr": b'{\r  "kind": "bayes",\r\r  "parameters": ,\r}',
        "cr-in-string": b'{"kind": "bayes",\r\n "parameters": {"events": ["a\rb"]}}',
        "seed-past-digit-limit": b'{"kind": "bb84", "parameters": {"slots": 100, "seed": '
                                 + b"9" * 4301 + b"}}",
        "at-byte-cap": text + b" " * (BYTE_CAP - len(text)),
        "past-byte-cap": text + b" " * (BYTE_CAP + 1 - len(text)),
        "at-cell-bound": _of_shape(1000, 1000),
        "past-cell-bound": _of_shape(1001, 1000),
        "at-overlap-bound": _of_shape(1000, 1000, 16),
        "past-overlap-bound": _of_shape(1000, 1000, 17),
        **{name: json.dumps(doc).encode() for name, doc in edges.items()},
    }


def documents():
    """``(name, data)`` of every document of the census, its bytes, in a
    fixed order."""
    for name in workloads.BUNDLED:
        yield name, (workloads.SCENARIO_DIR / f"{name}.json").read_bytes()
    for workload in WORKLOADS:
        for seed in SEEDS:
            for cycle in CYCLES:
                for i, case in enumerate(workloads.cycle_cases(workload, seed, cycle)):
                    yield f"{workload}/s{seed}c{cycle}/{i}-{case.name}", case.text.encode()
    for slots in (1, 10 ** 4, 10 ** 6):
        for records in (False, True):
            for attack in workloads.ATTACKS:
                name = f"bb84-{slots}-{attack}{'-records' if records else ''}"
                yield name, json.dumps({"kind": "bb84", "parameters": {
                    "slots": slots, "seed": 7, "attack": attack,
                    "include_records": records}}).encode()
    for name, doc in _faults().items():
        yield f"fault-{name}", json.dumps(doc).encode()
    for name, doc in _subnormal().items():
        yield f"subnormal-{name}", json.dumps(doc).encode()
    for name, data in _intake().items():
        yield f"intake-{name}", data


def _run(path: Path, fmt: str) -> tuple:
    """Exit code and the bytes on standard output and standard error."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path), "--format", fmt])
    out.flush()
    err.flush()
    return code, out.buffer.getvalue(), err.buffer.getvalue()


def main() -> int:
    path = Path(tempfile.gettempdir()) / "qretrodict-census.json"
    with open(path.with_suffix(".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            for name, data in documents():
                path.write_bytes(data)
                for fmt in FORMATS:
                    code, out, err = _run(path, fmt)
                    print(name, fmt, code, hashlib.sha256(out).hexdigest(),
                          hashlib.sha256(err).hexdigest(), flush=True)
        finally:
            path.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
