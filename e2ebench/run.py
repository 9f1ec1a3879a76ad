"""End-to-end benchmark of planning and fleet what-ifs.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload plan-warm --seed 1 \
        --seconds 20 --trace 0

Workloads (one seeded closed-loop caller each; see README.md):

* ``plan-warm``    planning queries on four grids evaluated in set-up,
                   through ``PlanningService.dispatch``;
* ``plan-http``    planning requests to a ``repro service`` subprocess,
                   each on a new connection and on a kept-alive one;
* ``plan-cold``    planning queries that each name a new grid;
* ``fleet-whatif`` goodput frontier + cheapest fleet over five designs.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` every workload runs
for a quarter of ``--seconds`` with spans recorded around the
program's layers, and the JSON holds the per-layer metrics.  Lines
before it say what was measured, with raw and calibration times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plan-warm", "plan-http", "plan-cold", "fleet-whatif")

#: ``plan-warm`` runs as this many slices, each in a fresh process with
#: its own set-up: how fast its small queries run moves by 10-18 % from
#: one process to the next (see README.md), and averaging four
#: processes per run halves that.
WARM_PROCESSES = 4


def _run(name, seed, seconds, speed, workdir, log=None, setups=None):
    from fleet_whatif import fleet_whatif
    from http_edge import plan_http
    from planning import plan_cold, plan_warm

    extra = {} if setups is None else {"setups": setups}
    if name == "plan-warm":
        return plan_warm(seed, seconds, speed, log)
    if name == "plan-http":
        return plan_http(seed, seconds, speed, ROOT, workdir, log, **extra)
    if name == "plan-cold":
        return plan_cold(seed, seconds, speed, log, **extra)
    return fleet_whatif(seed, seconds, speed, log, **extra)


def _split(name, seed, seconds, speed, parts):
    """Run ``name`` as ``parts`` slices in child processes; merged."""
    from common import Outcome

    outs = []
    for part in range(parts):
        child = subprocess.run(
            [
                sys.executable,
                __file__,
                "--workload",
                name,
                "--seed",
                str(seed),
                "--seconds",
                repr(seconds / parts),
                "--part",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        if child.returncode:
            sys.stderr.write(child.stderr)
            raise SystemExit(child.returncode)
        result = json.loads(child.stdout.splitlines()[-1])
        speed.samples_ms += result.pop("calib_ms")
        result["notes"] = [f"process {part + 1}: {n}" for n in result["notes"]]
        outs.append(Outcome(**result))
    out = Outcome.merge(outs)
    out.figures["plan_p50_ms"] = (out.p(50), "ms")
    out.figures["plan_p99_ms"] = (out.p(99), "ms")
    out.figures["plan_qps"] = (out.rate, "1/s")
    return out


def end_to_end(out) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics every workload reports."""
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
        "op_p50_ms": (out.p(50), "ms"),
        "ops_per_s": (out.rate, "1/s"),
    }


def _summary(out) -> None:
    state = "yes" if not out.problems else "NO"
    print(
        f"[{out.workload}] attempted {out.attempted}, failed {out.failed}, "
        f"answers correct: {state}"
    )
    setups = " ".join(f"{s:.3f}" for s in out.setup_s)
    print(f"  set-up runs (normalised s): {setups}")
    if out.op_ms:
        raw = statistics.median(out.raw_ms) if out.raw_ms else float("nan")
        print(
            f"  op latency p50 {out.p(50):.4f} ms normalised, "
            f"{raw:.4f} ms raw, over {len(out.op_ms)} ops"
        )
    for name, (value, unit) in out.figures.items():
        print(f"  {name} = {value:.4f} {unit}")
    for note in out.notes:
        print(f"  {note}")
    for text in out.problems:
        print(f"  CHECK FAILED: {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one slice of a split workload: print its raw outcome and stop
    parser.add_argument("--part", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".e2ebench"
    workdir.mkdir(exist_ok=True)

    from hostspeed import REFERENCE_MS, HostSpeed
    from tracing import SpanLog

    speed = HostSpeed()
    metrics: dict[str, tuple[float, str]] = {}
    if args.part:
        out = _run(args.workload, args.seed, args.seconds, speed, workdir)
        part = json.loads(out.to_json())
        part["calib_ms"] = speed.samples_ms
        print(json.dumps(part))
        return 0
    if args.trace:
        outcomes = []
        for name in WORKLOADS:
            log = SpanLog()
            out = _run(
                name, args.seed, args.seconds / 4, speed, workdir, log, 1
            )
            log.write(workdir / f"spans-{name}.jsonl")
            outcomes.append(out)
            metrics.update(out.layers)
        metrics["host.calib_ms"] = (speed.median_ms(), "ms")
    else:
        if args.workload == "plan-warm":
            out = _split(
                args.workload, args.seed, args.seconds, speed, WARM_PROCESSES
            )
        else:
            out = _run(args.workload, args.seed, args.seconds, speed, workdir)
        outcomes = [out]
        metrics.update(end_to_end(out))
    for out in outcomes:
        _summary(out)
    print(
        f"host: calibration kernel median {speed.median_ms():.3f} ms over "
        f"{len(speed.samples_ms)} runs (min {min(speed.samples_ms):.3f}, "
        f"max {max(speed.samples_ms):.3f}); reference {REFERENCE_MS} ms"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": all(not out.problems for out in outcomes),
        "attempted": sum(out.attempted for out in outcomes),
        "failed": sum(out.failed for out in outcomes),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
