"""Benchmark worker: one process that sets up the program and runs a workload.

``python perfbench/worker.py setup`` imports ``qretrodict.cli``, runs the
warm-up and prints the set-up time as JSON.  ``python perfbench/worker.py
run ...`` does the same set-up and then runs the whole cycles of the
workload that ``--seconds`` calls for, checking every output; it writes its
per-op records to ``<workdir>/result.json`` and, when traced, its spans
to ``<workdir>/spans.json``.  ``perfbench/run.py`` starts these
processes and turns their records into metrics.

Nothing that imports numpy is loaded before the set-up clock stops, so
the set-up time includes every import the program needs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = ROOT / "src" / "qretrodict" / "scenarios"

#: One scenario per kind (two for retrodict: its biased and unbiased
#: pathways; two for bb84: a tally and a run that emits its records); the
#: set-up runs each once.  In a traced run this also puts a little time
#: on every layer, so no layer figure is zero.
WARMUP = tuple(SCENARIOS / f"{name}.json" for name in (
    "bus-train", "biased-qubit", "bb84-retrodict", "detector-perfect",
    "synthesis-single-photon", "scissors-eq41", "bb84-monte-carlo",
)) + (HERE / "warmup-bb84-records.json",)

COLD_TIMEOUT_S = 60


def _pipeline(cli, path):
    """The CLI's in-process pipeline: load+validate, execute, render."""
    result = cli.execute(cli.load_scenario(path))
    return cli.render_json(result).encode(), result


def set_up(tracer=None):
    """Import the CLI and warm up each scenario kind.

    Returns (cli, seconds, records the warm-up emitted).
    """
    start = time.perf_counter()
    if tracer is None:
        import qretrodict.cli as cli
    else:
        with tracer.span("cli.import"):
            import qretrodict.cli as cli
        tracer.install()
        tracer.op = "setup"
    records = sum(len(_pipeline(cli, path)[1].records or ()) for path in WARMUP)
    return cli, time.perf_counter() - start, records


def child_env() -> dict:
    """Environment for started processes: ``src`` on the path, bytecode cached.

    Bytecode caching is switched on whatever the caller's setting, so cold
    runs import compiled modules as an installed package would.
    """
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class InProcessRunner:
    """Runs one case through the CLI pipeline inside this process.

    Each op starts on the next usable core in turn.  On a shared host
    every core changes speed on its own, for seconds at a time, and a
    busy single-threaded process otherwise stays on one core for the
    whole run, so its figures would follow that one core.  The move
    pins this thread to the core and then lifts the pin at once, so the
    op itself may run anywhere and OpenBLAS threads are left alone.
    """

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        self.cpus = sorted(os.sched_getaffinity(0))

    def _start_on(self, turn):
        os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})
        os.sched_setaffinity(0, self.cpus)

    def _timed(self, path):
        # Start every op from an empty collector, so the benchmark's own
        # allocations (generating inputs, checking outputs) never decide
        # which op pays for a full garbage collection.
        gc.collect()
        start = time.perf_counter()
        try:
            out, result = _pipeline(self.cli, path)
            code, records = 0, len(result.records or ())
        except Exception as exc:  # a failed op is counted, the run goes on
            out, code, records = b"", f"{type(exc).__name__}: {exc}", 0
        return out, code, time.perf_counter() - start, records

    def _plain(self, path):
        self.tracer.uninstall()
        return self._timed(path)

    def _traced(self, path, op_id):
        self.tracer.install()
        self.tracer.op = op_id
        with self.tracer.span("bench.op"):
            return self._timed(path)

    def run(self, path, op_id, turn):
        self._start_on(turn)
        if self.tracer is None:
            out, code, latency, records = self._timed(path)
            return {"out": out, "code": code, "latency_s": latency, "records": records}
        # Alternate which run goes first, so neither gets the warmer caches.
        if op_id % 2:
            plain, _, latency, _ = self._plain(path)
        out, code, traced, records = self._traced(path, op_id)
        if not op_id % 2:
            plain, _, latency, _ = self._plain(path)
        return {"out": out, "code": code, "latency_s": latency, "traced_s": traced,
                "records": records, "plain": plain}


class ColdRunner:
    """Runs one case as ``python -m qretrodict.cli run <file>`` in a fresh process."""

    def __init__(self, tracer, workdir: Path):
        self.tracer = tracer
        self.workdir = workdir
        self.env = child_env()

    def _timed(self, argv):
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, env=self.env,
                                  timeout=COLD_TIMEOUT_S, cwd=ROOT)
            out, code = proc.stdout, proc.returncode
        except subprocess.TimeoutExpired:
            out, code = b"", "timeout"
        return out, code, time.perf_counter() - start

    def run(self, path, op_id, turn):
        plain_argv = [sys.executable, "-m", "qretrodict.cli", "run", str(path)]
        out, code, latency = self._timed(plain_argv)
        record = {"out": out, "code": code, "latency_s": latency,
                  "records": _emitted_records(out) if code == 0 else 0}
        if self.tracer is None:
            return record
        spans_path = self.workdir / "cold-spans.json"
        traced_out, traced_code, traced = self._timed(
            [sys.executable, str(HERE / "traced_cli.py"), str(path), str(spans_path),
             str(op_id)])
        if spans_path.exists():
            offset = len(self.tracer.spans)
            for span in json.loads(spans_path.read_text()):
                span[3] = span[3] + offset if span[3] >= 0 else -1
                self.tracer.spans.append(span)
            spans_path.unlink()
        record.update(out=traced_out, code=traced_code, traced_s=traced, plain=out)
        return record


def _emitted_records(out: bytes) -> int:
    return len(json.loads(out)["outputs"].get("records") or ())


def _machine() -> dict:
    from importlib import metadata

    def first_line(path, key):
        try:
            with open(path, encoding="utf-8") as fh:
                return next((line.split(":", 1)[1].strip() for line in fh
                             if line.startswith(key)), "unknown")
        except OSError:
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "mem_total": first_line("/proc/meminfo", "MemTotal"),
        "python": sys.version.split()[0],
        **{name: metadata.version(name) for name in ("numpy", "scipy", "jsonschema")},
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def run_workload(args) -> dict:
    workdir = Path(args.workdir)
    tracer = Tracer() if args.trace else None
    cli, setup_s, warmup_records = set_up(tracer)
    import checks
    import workloads
    from workloads import digest

    runner = (ColdRunner(tracer, workdir) if args.workload == "cli-cold"
              else InProcessRunner(cli, tracer))
    doc_path = workdir / "scenario.json"
    ops = []
    # A traced run executes every op twice, so it runs half the cycles.
    seconds = args.seconds / 2 if args.trace else args.seconds
    planned = workloads.cycles_for(args.workload, seconds)
    deadline = time.monotonic() + args.budget
    for cycle in range(planned):
        if cycle and time.monotonic() > deadline:
            break  # a much slower program reports the whole cycles it did
        digests = []
        for index, case in enumerate(workloads.cycle_cases(args.workload, args.seed, cycle)):
            doc_path.write_text(case.text, encoding="utf-8")
            op_id = len(ops)
            # Index plus cycle, so each op type alternates between cores
            # from one cycle to the next, whatever the cycle's length.
            record = runner.run(doc_path, op_id, index + cycle)
            out = record.pop("out")
            problems = checks.check(case, out, record.pop("code"))
            if "plain" in record and record.pop("plain") != out:
                problems.append("tracing changed the output")
            digests.append(digest(out))
            if case.repeat_of is not None and digests[-1] != digests[case.repeat_of]:
                problems.append(f"output differs from the equal-seed op {case.repeat_of}")
            record.update(op=op_id, cycle=cycle, name=case.name,
                          doc_bytes=len(case.text.encode()), out_bytes=len(out),
                          slots=case.expect.get("slots", 0), problems=problems[:3])
            ops.append(record)
    if tracer is not None:
        tracer.uninstall()
        tracer.export(workdir / "spans.json")
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    return {"setup_s": setup_s, "ops": ops, "machine": _machine(),
            "cycles_planned": planned, "warmup_records": warmup_records,
            "peak_rss_kb": resource.getrusage(who).ru_maxrss}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup", help="time the set-up alone and print it as JSON")
    run = sub.add_parser("run", help="run one workload and write its records")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--workdir", required=True)
    run.add_argument("--budget", type=float, required=True,
                     help="seconds after set-up past which no new cycle starts")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps({"setup_s": set_up()[1]}))
        return 0
    result = run_workload(args)
    (Path(args.workdir) / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
