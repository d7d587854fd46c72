"""One part of a benchmark run, in a fresh interpreter; started by run.py.

    worker.py --workload NAME --seed N --seconds S --part K --mode setup|measure|trace

The worker imports the library from the checkout's ``src/``, builds the
seeded inputs and warms up, then prints ``READY`` so the parent can time
set-up. ``setup`` mode stops there. The other modes run part K of the
workload and print one JSON line with the outcome; ``trace`` mode records
spans first.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def memo_terms() -> int:
    """Terms held by every memoised sequence; 0 if the library keeps none."""
    from horadam_sums.sequences import HoradamSequence
    shared = getattr(HoradamSequence, "_shared", {})
    return sum(len(getattr(seq, "_memo", ())) for seq in list(shared.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import horadam_sums
    if Path(horadam_sums.__file__).resolve().parent != SRC / "horadam_sums":
        print(f"worker: imported horadam_sums from {horadam_sums.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.part)
    workload.warm_up()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = workloads.NullTracer()
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    memo_before = memo_terms()
    outcome = workload.run(tracer).as_dict()
    outcome["parts"] = workload.parts
    outcome["new_terms"] = memo_terms() - memo_before
    outcome["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode == "trace":
        layers = tracer.per_layer()
        outcome.update(layers=layers, trace_counts=dict(tracer.counts),
                       cross_check_errors=tracer.cross_check_errors[:20])
        del outcome["samples"]
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
