"""The horadam-sums benchmark: one command for all workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see LAYERS.md): ``catalog-sweep``, ``deep-oracle`` and
``large-index``. Each run is one client in a closed loop, in a fresh
interpreter started by this script.

A run may be split into parts, one fresh worker each. Latencies are scaled
to a fixed reference speed of the host, and each request key's latency is
its median over the key's repetitions (see LAYERS.md).
``--trace 0`` measures the end-to-end metrics. Set-up is timed from process
start to the worker's READY line, scaled to the reference host speed, for
every measuring worker and for extra set-up-only workers up to seven
samples, and reported as the median.
``--trace 1`` runs the workload untraced and then traced, and reports the
per-layer metrics of the traced run with ``trace.overhead_ratio``.

The last line of standard output is the result object; the line before it
stamps the run (Python, nproc, platform, commit, seed) and carries the
deterministic counts and sample counts. Exits 1 if any output is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from reference import host_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(deadline: float, args, mode: str, part: int = 0):
    """Start one worker; returns (set-up seconds scaled to the reference
    host speed, parsed result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--part", str(part), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    scale = host_scale()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))[0]:
            raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
        ready = proc.stdout.readline()
        setup_s = (time.perf_counter() - start) * scale
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {args.workload} ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{mode} worker for {args.workload} failed (exit {proc.returncode})")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def run_parts(deadline: float, args, mode: str):
    """Run every part of the workload, one fresh worker each, in order."""
    setups, results = [], []
    while not results or len(results) < results[0]["parts"]:
        setup_s, result = spawn(deadline, args, mode, len(results))
        setups.append(setup_s)
        results.append(result)
    return setups, results


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the library sources, naming the code under test without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "git_commit": git_commit(), "src_sha256": src_digest()}


def end_to_end(args, deadline: float):
    setups, parts = run_parts(deadline, args, "measure")
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(deadline, args, "setup")[0])
    samples = {}
    for part in parts:
        for key, values in part["samples"].items():
            samples.setdefault(key, []).extend(values)
    # each key's median over its repetitions, of latencies already scaled to
    # the reference speed (workloads.Outcome); a burst of host load that
    # slows one repetition leaves it unchanged
    typical_ms = [statistics.median(values) * 1e3 for values in samples.values()]
    deciles = statistics.quantiles(typical_ms, n=10)
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    ok_ratio = (attempted - failed) / attempted
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": ok_ratio * len(typical_ms) * 1e3 / sum(typical_ms),
        "latency_p50_ms": deciles[4],
        "latency_p90_ms": deciles[8],
        "peak_rss_mb": statistics.median(part["peak_rss_mb"] for part in parts),
        "ok_ratio": ok_ratio,
    }
    references = [value for part in parts for value in part["reference_s"]]
    detail = {"request_keys": len(samples),
              "samples": sum(len(values) for values in samples.values()),
              "setup_samples_s": setups,
              "unscaled_throughput_per_s": attempted / sum(part["elapsed_s"] for part in parts),
              "reference_ms": {"median": statistics.median(references) * 1e3,
                               "samples": len(references)},
              "parts": [{"elapsed_s": part["elapsed_s"], "scaled_s": part["scaled_s"],
                         "peak_rss_mb": part["peak_rss_mb"], "new_terms": part["new_terms"],
                         "counts": part["counts"]}
                        for part in parts]}
    return attempted, failed, metrics, detail, []


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(parts: list, names: list) -> tuple:
    """Per-layer values summed over the parts, keyed as in BENCHMARK.json;
    ``names`` supplies the per-tag rhs layers a workload never enters."""
    calls, self_ns, counts = Counter(), Counter(), Counter()
    for part in parts:
        calls.update(part["layers"]["calls"])
        self_ns.update(part["layers"]["self_ns"])
        counts.update(part["trace_counts"])
        counts["bytes_out"] += part["counts"].get("bytes_out", 0)
        counts["new_terms"] += part["new_terms"]

    def ms(layer: str) -> float:
        return self_ns[layer] / 1e6

    rhs = "identities.evaluate_rhs."
    metrics = {
        "sequences.term.calls": calls["sequences.term"],
        "sequences.term.self_ms": ms("sequences.term"),
        "sequences.term.new_terms": counts["new_terms"],
        "sequences.term.hit_ratio": _ratio(counts["term.hits"], calls["sequences.term"]),
        "sequences.companion.calls": calls["sequences.companion"],
        "sequences.companion.self_ms": ms("sequences.companion"),
        "combinatorics.binom.calls": calls["combinatorics.binom"],
        "combinatorics.binom.self_ms": ms("combinatorics.binom"),
        "exactnum.quad.ops": calls["exactnum.quad"],
        "exactnum.quad.self_ms": ms("exactnum.quad"),
        "nestedcore.oracle_nested.calls": calls["nestedcore.oracle_nested"],
        "nestedcore.oracle_nested.self_ms": ms("nestedcore.oracle_nested"),
        "nestedcore.summand.calls": calls["nestedcore.summand"],
        "nestedcore.summand.self_ms": ms("nestedcore.summand"),
        "nestedcore.oracle_terms": counts["oracle_terms"],
        "identities.instance.calls": calls["identities.instance"],
        "identities.instance.self_ms": ms("identities.instance"),
        "identities.skipped_ratio": _ratio(counts["instance.invalid"],
                                           calls["identities.instance"]),
        "identities.lhs_spec.self_ms": ms("identities.lhs_spec"),
        "identities.evaluate_rhs.self_ms": sum(ms(layer) for layer in self_ns
                                               if layer.startswith(rhs)),
        "identities.closed_terms": counts["closed_terms"],
        "identities.verify.self_ms": ms("identities.verify"),
        "cli.emit.self_ms": ms("cli.emit"),
        "cli.bytes_out": counts["bytes_out"],
    }
    for name in names:
        if name.startswith(rhs) and name.endswith(".self_ms"):
            metrics.setdefault(name, ms(name[:-len(".self_ms")]))
    return metrics, dict(sorted(calls.items())), dict(sorted(counts.items()))


def per_layer(args, deadline: float, names: list):
    _, plain = run_parts(deadline, args, "measure")
    _, traced = run_parts(deadline, args, "trace")
    metrics, calls, counts = layer_metrics(traced, names)
    untraced_s = sum(part["scaled_s"] for part in plain)
    traced_s = sum(part["scaled_s"] for part in traced)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    errors = [error for part in traced for error in part["cross_check_errors"]]
    if calls.get("nestedcore.summand", 0) != counts.get("verify.summand_calls", 0):
        errors.append("summand calls made outside verify")
    attempted = sum(part["attempted"] for part in plain + traced)
    failed = sum(part["failed"] for part in plain + traced)
    detail = {"spans": sum(part["layers"]["spans"] for part in traced),
              "traced_requests": sum(part["layers"]["requests"] for part in traced),
              "scaled_s": {"untraced": untraced_s, "traced": traced_s},
              "calls": calls, "counts": counts, "cross_check_errors": errors}
    return attempted, failed, metrics, detail, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            outcome = per_layer(args, deadline, [m["name"] for m in listed])
        else:
            outcome = end_to_end(args, deadline)
        attempted, failed, metrics, detail, errors = outcome
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"run.py: the run did not produce {missing}", file=sys.stderr)
        return 1
    correct = not errors and failed == 0
    print(json.dumps({"stamp": stamp(args), **detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
