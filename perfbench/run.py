"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload wordcount --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs in a fresh interpreter
(``measure.py``) with ``src/`` on its path; this process checks that
its stderr stayed clean, prints every metric with its unit, and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced round, and writes the round's
spans as Chrome trace-event JSON plus a summary under ``perfbench/out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
WORKLOADS = ("wordcount", "wordcount-pooled", "campus", "dataflow")
#: The workload child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170


def run_child(args) -> tuple[int, str, str]:
    src = Path.cwd() / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    child = subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"workload did not finish within {CHILD_TIMEOUT_S} s\n"
        _kill_group(child.pid)
        child.communicate()
        return 1, out, err
    finally:
        # Pool workers the child may have left behind share its group.
        _kill_group(child.pid)
    return child.returncode, out, err


def _kill_group(pgid: int) -> None:
    """Kill what is left of the child's process group, and wait (up
    to five seconds) until none of it is left."""
    deadline = time.monotonic() + 5.0
    sig = signal.SIGKILL
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        sig = 0
        time.sleep(0.05)


def verdicts(workload: str, metrics: dict, layer_self_s: dict, wall: float) -> list[str]:
    """Confirm or refute ``predictions.json`` for this workload from the
    traced round: a layer is exercised when its self time (or its
    evidence metric) is at least ``owns_share`` of the traced wall."""
    spec = json.loads((HERE / "predictions.json").read_text())
    lines = []
    for layer, prediction in sorted(spec["layers"].items()):
        evidence = prediction.get("evidence")
        if evidence is None or metrics[evidence]["unit"] == "s":
            seconds = layer_self_s.get(layer, 0.0) if evidence is None else metrics[evidence]["value"]
            share = seconds / wall if wall else 0.0
            exercised = share >= spec["owns_share"]
            shown = f"{share:7.2%} of traced wall"
        else:
            amount = metrics[evidence]["value"]
            exercised = amount > 0
            shown = f"{evidence} = {amount:g}"
        if workload in prediction.get("moves", {}):
            verdict = "confirmed" if exercised else "refuted"
            claim = f"should move {', '.join(prediction['moves'][workload])}"
        elif workload in prediction.get("idle_on", ()):
            verdict = "refuted" if exercised else "confirmed"
            claim = "should stay idle"
        elif workload in prediction.get("guards", ()):
            verdict, claim = "guard", "runs here; should not change"
        elif workload in prediction.get("in_workers", ()):
            verdict, claim = "unseen", "runs in pool workers, untraced"
        else:
            continue
        lines.append(f"{verdict:9s} {layer:12s} {shown}; {claim}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    code, out, err = run_child(args)
    if code != 0:
        sys.stderr.write(err)
        sys.stderr.write(f"perfbench: workload exited with code {code}\n")
        return code or 1
    result = json.loads(out.strip().splitlines()[-1])
    failures = list(result["failures"])
    if err.strip():
        failures.append("stderr not clean: " + err.strip().splitlines()[-1])
        sys.stderr.write(err)
    attempted = result["attempted"]
    failed = min(attempted, result["failed"] + (1 if err.strip() else 0))
    info = result["info"]

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"host_cores {info['host_cores']}  python {info['python']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']}")
    if not args.trace:
        print(
            f"  op_tail_s is p{info['op_tail_percentile']:.1f} of "
            f"{info['op_samples']} operations ({info['rounds']} rounds)"
        )
    print(f"  failed_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    for message in failures:
        print(f"  FAILED: {message}")
    summary = {**result, "failures": failures, "failed": failed, "stderr": err}
    if args.trace:
        wall = result["metrics"]["trace.wall_s"]["value"]
        summary["verdicts"] = verdicts(
            args.workload, result["metrics"], info["layer_self_s"], wall
        )
        for line in summary["verdicts"]:
            print(f"  {line}")
        print(f"  spans: {info['trace_file']}")
    OUT_DIR.mkdir(exist_ok=True)
    summary_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"  summary: {summary_path.relative_to(Path.cwd())}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
