#!/usr/bin/env python3
"""rotorkit benchmark: CLI workloads timed end to end, or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root.  Every command of a workload runs in a fresh
``python`` child that imports ``rotorkit.cli`` from ``src`` and calls
``cli.main(argv)``, so the kernel cache and peak RSS start cold, as they do
for a user.  ``--trace 0`` repeats the workload's command sequence for
``--seconds`` and reports the end-to-end metrics (medians over the
sequences).  ``--trace 1`` runs the sequence traced, untraced, traced and
reports the per-layer metrics from the two traced sequences, plus the
tracing overhead.  Every payload is checked (see verdicts.py); the last
stdout line is the JSON result, and the exit code is non-zero if any check
failed.  README.md explains the workloads and how to read the output.
"""

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import verdicts
from tracer import nesting_errors, self_times
from workloads import WORKLOADS, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
TRACE_DIR = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed past this

END_TO_END = (("run_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
              ("pass_ratio", "ratio"))


class OutOfTime(RuntimeError):
    """The run's time limit came before the next child could start."""


class Session:
    """Starts the children of one benchmark run and checks what they return."""

    def __init__(self, deadline):
        self.deadline = deadline
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]]
                             if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.payloads = {}  # (argv) -> first payload seen in this run
        self.next_id = 0

    def child(self, spec):
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            raise OutOfTime("no time left for another child process")
        try:
            proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return None, f"killed after {timeout:.0f} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            return None, f"child exited {proc.returncode}: {tail}"
        return json.loads(lines[-1]), None

    def command(self, argv, trace):
        cid = self.next_id
        self.next_id += 1
        res, err = self.child({"argv": argv, "trace": trace})
        rec = {"id": cid, "argv": argv, "trace": trace}
        if res is None:
            rec["problems"] = [err]
            return rec
        rec.update(res)
        probs = verdicts.problems(res["code"], res["payload"])
        first = self.payloads.setdefault(tuple(argv), res["payload"])
        if first != res["payload"]:
            probs.append("payload differs from an earlier run of the same "
                          "command and seed")
        if trace:
            if not res["restored"]:
                probs.append("tracer left a wrapper in place")
            if nesting_errors(res["spans"]):
                probs.append("spans not nested inside their parents")
            if min(self_times(res["spans"]), default=0.0) < -1e-9:
                probs.append("negative self time")
        rec["problems"] = probs
        return rec

    def sequence(self, workload, seed, trace):
        cmds = [self.command(argv, trace) for argv in commands(workload, seed)]
        timed = [c for c in cmds if "run_s" in c]
        return {"commands": cmds,
                "run_s": sum(c["run_s"] for c in timed),
                "peak_rss_mb": max((c["max_rss_kb"] / 1024.0 for c in timed),
                                   default=0.0)}


def host_snapshot():
    """Load average and steal ticks; read-only."""
    with open("/proc/stat") as fh:
        cpu = fh.readline().split()
    return {"loadavg": list(os.getloadavg()), "steal_ticks": int(cpu[8]),
            "cpu_ticks": sum(int(v) for v in cpu[1:])}


def environment(probe):
    nproc = len(os.sched_getaffinity(0))
    env = {"nproc": nproc}
    if probe is not None:
        env.update(probe)
        threads = [b.get("threads") for b in probe["openblas"]]
        env["blas_threads_within_nproc"] = all(t is not None and t <= nproc
                                               for t in threads)
    return env


def _spread(values):
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


MIN_SEQUENCES = 2  # every median has at least two samples


def measure(workload, seed, seconds, session):
    """End-to-end run: repeat the sequence while another fits in ``seconds``."""
    seqs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        seqs.append(session.sequence(workload, seed, trace=False))
        now = time.monotonic()
        wall = now - t0
        if now + wall > session.deadline - 5.0:
            break
        if len(seqs) >= MIN_SEQUENCES and now - start + wall > seconds:
            break
    cmds = [c for s in seqs for c in s["commands"]]
    passed = sum(1 for c in cmds if not c["problems"])
    samples = {
        "run_s": [s["run_s"] for s in seqs],
        "peak_rss_mb": [s["peak_rss_mb"] for s in seqs],
        "setup_s": [c["import_s"] for c in cmds if "import_s" in c],
    }
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    values["pass_ratio"] = passed / len(cmds)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in END_TO_END}
    detail = {"sequences": len(seqs),
              "samples": {k: _spread(v) for k, v in samples.items() if v}}
    return cmds, metrics, detail, []


def trace(workload, seed, session):
    """Traced run: traced, untraced, traced; per-layer metrics and checks."""
    first = session.sequence(workload, seed, trace=True)
    plain = session.sequence(workload, seed, trace=False)
    second = session.sequence(workload, seed, trace=True)
    traced = [first, second]
    cmds = [c for s in (first, plain, second) for c in s["commands"]]
    failures = []
    per_seq = []
    fired = set()
    for seq in traced:
        done = [dict(c, payload_bytes=len(c["payload"].encode()))
                for c in seq["commands"] if "spans" in c]
        if len(done) != len(seq["commands"]):
            failures.append("a traced command produced no spans")
            continue
        vals, f = layers.sequence_values(done)
        per_seq.append(vals)
        fired |= f
        missing = layers.unmeasured(workload, f)
        if missing:
            failures.append("unmeasured: " + ", ".join(missing))
    values, mismatched = layers.combine(per_seq) if per_seq else ({}, [])
    if mismatched:
        failures.append("counts differ between the two traced runs: "
                        + ", ".join(mismatched))
    overhead = statistics.median([s["run_s"] for s in traced]) - plain["run_s"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in layers.METRICS}
    metrics[layers.TRACE_OVERHEAD["name"]] = {
        "value": overhead, "unit": layers.TRACE_OVERHEAD["unit"]}
    bypassed = [m["name"] for m in layers.METRICS
                if not any(layers.matches(f, m["spans"]) for f in fired)]
    detail = {"run_s": {"traced": [s["run_s"] for s in traced],
                        "untraced": plain["run_s"]},
              "spans": [len(c.get("spans", ())) for c in cmds if c["trace"]],
              "not_entered_by_this_workload": bypassed}
    _write_spans(workload, seed, traced)
    return cmds, metrics, detail, failures


def _write_spans(workload, seed, traced):
    """One JSON list per span: sequence, command, index, name, start, end,
    parent index, self time.  gzip keeps the identities trace near 2 MB."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for k, seq in enumerate(traced):
            for c in seq["commands"]:
                spans = c.get("spans", [])
                for i, (s, own) in enumerate(zip(spans, self_times(spans))):
                    fh.write(json.dumps([k, c["id"], i, s[0], s[1], s[2],
                                         s[3], own]) + "\n")


def run_workload(workload, seed, seconds, traced):
    session = Session(time.monotonic() + RUN_LIMIT_S)
    before = host_snapshot()
    probe, err = session.child({"probe": True})  # also warms the file cache
    try:
        if traced:
            cmds, metrics, detail, failures = trace(workload, seed, session)
        else:
            cmds, metrics, detail, failures = measure(workload, seed, seconds,
                                                      session)
    except OutOfTime as exc:
        return None, {"workload": workload, "error": str(exc)}
    failed = [c for c in cmds if c["problems"]]
    failures += [f"{' '.join(c['argv'])}: {'; '.join(c['problems'])}"
                 for c in failed]
    if err:
        failures.append(f"environment probe: {err}")
    result = {"correct": not failures, "attempted": len(cmds),
              "failed": len(failed), "metrics": metrics}
    detail.update(workload=workload, seed=seed, trace=int(traced),
                  failures=failures,
                  environment=dict(environment(probe), start=before,
                                   end=host_snapshot()))
    return result, detail


def _table(workload, result, detail, out):
    out.write(f"{workload}: {'ok' if result['correct'] else 'FAILED'}, "
              f"{result['failed']} of {result['attempted']} commands failed\n")
    samples = detail.get("samples", {})
    for name, m in result["metrics"].items():
        extra = ""
        if name in samples:
            s = samples[name]
            extra = f"  (n={s['n']}, min {s['min']:.6g}, max {s['max']:.6g})"
        out.write(f"  {name:34s} {m['value']:>14.6g} {m['unit']}{extra}\n")
    for f in detail.get("failures", []):
        out.write(f"  FAIL {f}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "rotorkit" / "cli.py").is_file():
        sys.stderr.write(f"error: no rotorkit sources under {SRC}; run from "
                         "a full checkout of the repository\n")
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, detail = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace))
        if result is None:
            sys.stderr.write(f"error: {name}: {detail['error']}\n")
            return 1
        sys.stdout.write(json.dumps({"detail": detail}) + "\n")
        _table(name, result, detail, sys.stderr)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, val in result["metrics"].items():
            key = metric if len(names) == 1 else f"{name}/{metric}"
            combined["metrics"][key] = val
    sys.stdout.write(json.dumps(combined) + "\n")
    sys.stdout.flush()
    if not combined["correct"]:
        sys.stderr.write("FAILED: a command failed its correctness checks\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
