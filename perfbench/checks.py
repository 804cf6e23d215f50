"""Output checks that reach each answer by a route of their own.

Every check takes a generated case and the program's output and returns
a list of problems; an empty list means the output is correct.  None of
them calls into ``qretrodict``: the expected values come from the
generated operators, closed forms or digests recorded from the seed
commit's CLI.

- cli-cold: exit code, and the SHA-256 of stdout against ``golden.json``;
  its generated BB84 records op gets the bb84-slots checks.
- retrodict-batch: predictive table Tr(rho_a Pi_b) and posteriors from
  Bayes on J[a,b] = p_a Tr(rho_a Pi_b), both by one numpy einsum.
- optics-sweep: detector diagonal eta^(n+1) C(k,n) (1-eta)^(k-n); scissors
  output |c0 cos(theta), c1 sin(theta)>; synthesis state of unit trace,
  positive and supported on at most n+m photons.
- bb84-slots: counts sum to the slots; honest error rate exactly 0;
  intercept-resend rate within 5 sigma of 1/4; records agree with counts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import digest

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())

VALUE_TOL = 1e-9

_BASIS_OF = {"L": "circular", "R": "circular", "V": "linear", "H": "linear"}
_LABELS = ("L", "R", "V", "H")


def check(case, stdout: bytes, exit_code: int) -> list:
    """Problems with one op's result; ``exit_code`` is 0 for in-process success."""
    expected_exit = case.expect.get("exit", 0)
    if exit_code != expected_exit:
        return [f"exit code {exit_code}, expected {expected_exit}"]
    if case.kind == "bundled":
        got = digest(stdout)
        want = GOLDEN[case.expect["golden"]]
        return [] if got == want else [f"stdout digest {got[:12]} != golden {want[:12]}"]
    if case.kind == "malformed":
        return [] if stdout == case.expect["stdout"] else ["unexpected stdout"]
    outputs = json.loads(stdout)["outputs"]
    return _KIND_CHECKS[case.kind](case.expect, outputs)


def _close(got, want, what: str, tol: float = VALUE_TOL) -> list:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err <= tol else [f"{what}: max deviation {err:.3e}"]


def _operator(entry) -> np.ndarray:
    pairs = np.asarray(entry["matrix"], dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def _table_values(table, rows, cols, what: str):
    if table["rows"] != rows or table["cols"] != cols:
        return None, [f"{what}: labels differ"]
    return table["values"], []


def _check_retrodict(expect, outputs) -> list:
    priors, states, pom = expect["priors"], expect["states"], expect["pom"]
    events = [f"e{a}" for a in range(len(priors))]
    outcomes = [f"o{b}" for b in range(len(pom))]
    born = np.einsum("aij,bji->ab", states, pom).real
    joint = priors[:, None] * born
    posterior = (joint / joint.sum(axis=0)).T
    problems = []
    for name, rows, cols, want in (("predictive", events, outcomes, born),
                                   ("retrodictive", outcomes, events, posterior)):
        table = outputs["tables"].get(name)
        if table is None:
            problems.append(f"missing table {name}")
            continue
        values, bad = _table_values(table, rows, cols, name)
        problems += bad or _close(values, want, name)
    return problems


def _check_detector(expect, outputs) -> list:
    n, eta, dim = expect["counts"], expect["eta"], expect["dim"]
    want = np.array([eta ** (n + 1) * math.comb(k, n) * (1.0 - eta) ** (k - n)
                     if k >= n else 0.0 for k in range(dim)])
    op = _operator(outputs["operators"]["retro_state"])
    return (_close(op.real, np.diag(want), "detector state (real)")
            + _close(op.imag, np.zeros((dim, dim)), "detector state (imag)")
            + _close(outputs["arrays"]["photon_number_weights"]["values"], [want],
                     "photon_number_weights"))


def _check_scissors(expect, outputs) -> list:
    amps, theta, dim = expect["amplitudes"], expect["theta"], expect["dim"]
    ket = np.zeros(dim, dtype=complex)
    ket[0] = amps[0] * math.cos(theta)
    ket[1] = amps[1] * math.sin(theta)
    ket /= np.linalg.norm(ket)
    want = np.outer(ket, ket.conj())
    op = _operator(outputs["operators"]["output_state"])
    return _close(op.real, want.real, "scissors state (real)") + \
        _close(op.imag, want.imag, "scissors state (imag)")


def _check_synthesis(expect, outputs) -> list:
    op = _operator(outputs["operators"]["retro_state"])
    support = expect["support"]
    problems = []
    if op.shape != (expect["dim"], expect["dim"]):
        return [f"synthesis state has shape {op.shape}"]
    if abs(np.trace(op).real - 1.0) > VALUE_TOL:
        problems.append(f"synthesis trace {np.trace(op).real!r}")
    problems += _close(op.real, op.real.T, "synthesis hermiticity (real)")
    problems += _close(op.imag, -op.imag.T, "synthesis hermiticity (imag)")
    smallest = float(np.linalg.eigvalsh((op + op.conj().T) / 2.0)[0])
    if smallest < -VALUE_TOL:
        problems.append(f"synthesis state has eigenvalue {smallest:.3e}")
    outside = np.abs(op).copy()
    outside[:support + 1, :support + 1] = 0.0
    if outside.max() > VALUE_TOL:
        problems.append(f"synthesis state leaks beyond {support} photons")
    return problems


def _check_bb84(expect, outputs) -> list:
    slots = expect["slots"]
    counts = np.asarray(outputs["arrays"]["outcome_counts"]["values"], dtype=np.int64)
    scalars = outputs["scalars"]
    problems = []
    if counts.shape != (4, 4) or int(counts.sum()) != slots:
        problems.append(f"outcome counts sum to {int(counts.sum())}, expected {slots}")
    same, errors = scalars["same_basis_slots"], scalars["same_basis_errors"]
    rate = scalars["same_basis_error_rate"]
    if same <= 0 or rate != errors / same:
        problems.append(f"error rate {rate!r} != {errors}/{same}")
    if expect["attack"] == "none":
        if errors != 0 or rate != 0.0:
            problems.append(f"honest channel shows error rate {rate!r}")
    else:
        sigma = math.sqrt(0.25 * 0.75 / max(same, 1))
        if abs(rate - 0.25) > 5 * sigma:
            problems.append(f"intercept-resend error rate {rate!r} not within 5 sigma of 1/4")
    records = outputs.get("records")
    if not expect["records"]:
        return problems + (["records emitted though not requested"] if records else [])
    if records is None or len(records) != slots:
        return problems + ["records missing or of the wrong length"]
    tally = np.zeros((4, 4), dtype=np.int64)
    same_r = errors_r = 0
    for rec in records:
        alice, basis, outcome = rec["alice_choice"], rec["bob_basis"], rec["bob_outcome"]
        if _BASIS_OF.get(outcome) != basis:
            return problems + [f"record outcome {outcome!r} outside basis {basis!r}"]
        tally[_LABELS.index(alice), _LABELS.index(outcome)] += 1
        if _BASIS_OF[alice] == basis:
            same_r += 1
            errors_r += alice != outcome
    if not np.array_equal(tally, counts):
        problems.append("records disagree with outcome counts")
    if (same_r, errors_r) != (same, errors):
        problems.append("records disagree with same-basis tallies")
    return problems


_KIND_CHECKS = {
    "retrodict": _check_retrodict,
    "detector": _check_detector,
    "scissors": _check_scissors,
    "synthesis": _check_synthesis,
    "bb84": _check_bb84,
}
