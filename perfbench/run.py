"""Benchmark of the qretrodict CLI pipeline: import, load+validate, execute, render.

Usage, from the repository root:

    python3 perfbench/run.py --workload optics-sweep --seed 1 --seconds 20 --trace 0

Workloads: cli-cold, optics-sweep, retrodict-batch, bb84-slots (see
perfbench/README.md).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced
run.  The program is driven from outside only: ``python -m
qretrodict.cli`` for cold runs and the public functions of
``qretrodict.cli`` in process, with ``src`` put on ``PYTHONPATH``.

Stdout ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it holds the run's details and machine
information; the lines above are a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import report
from worker import ROOT, child_env
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

#: Set-up-only processes started besides the worker; setup_s is the
#: median over them and the worker's own set-up.
EXTRA_SETUPS = 4

#: Every process this run starts must end within this many seconds in all.
RUN_BUDGET_S = 170

#: The worker starts no new cycle after this many times ``--seconds``
#: (and never after WORK_LIMIT_S), so a program several times slower
#: still ends in time and reports the whole cycles it did.
WORK_FACTOR = 3
WORK_LIMIT_S = 110


def _python(args, deadline):
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, env=child_env(), cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)


#: Figures printed in the table but kept out of the result's metrics,
#: which must hold every metric on every workload and never a zero.
DETAIL_UNITS = {"failed_ratio": "ratio", "slots_per_s": "1/s"}


def _print_table(metrics: dict, details: dict):
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    rows += [(name, details[name], unit) for name, unit in DETAIL_UNITS.items() if name in details]
    for name, value, unit in rows:
        print(f"{name:48s} {value:16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qretrodict" / "cli.py").is_file():
        print(f"error: no qretrodict sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [json.loads(_python(["setup"], deadline).stdout)["setup_s"]
                  for _ in range(EXTRA_SETUPS)] if not args.trace else []
        _python(["run", "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--workdir", str(workdir),
                 "--budget", str(min(WORK_FACTOR * args.seconds, WORK_LIMIT_S))], deadline)
        result = json.loads((workdir / "result.json").read_text())
        if args.trace:
            metrics = report.per_layer(result, report.load_spans(workdir / "spans.json"))
            details = {}
        else:
            metrics, details = report.end_to_end(result, setups + [result["setup_s"]])
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr.decode(errors="replace"))
        print(f"error: benchmark worker exited with {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("error: benchmark worker timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    failed = [op for op in ops if op["problems"]]
    for op in failed[:5]:
        print(f"FAILED op {op['op']} ({op['name']}): {'; '.join(op['problems'])}",
              file=sys.stderr)
    _print_table(metrics, details)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **details, "machine": result["machine"]}))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
