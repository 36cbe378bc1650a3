"""The benchmark spine: four workloads, one command.

    python3 benchmarks/spine/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints its metrics by name; the
last line is the result as one JSON object (``--trace 0``: the
end-to-end metrics, ``--trace 1``: the per-layer metrics of a traced
window).  Without ``--workload`` every workload runs, untraced and
traced, each in a fresh subprocess.  ``--check`` repeats the untraced
runs over seeds and judges spread and drift against the bounds;
``--smoke`` is a one-minute pass over everything.  See README.md.

Metric names, units and bounds are declared in ``BENCHMARK.json`` at the
root of the checkout; a run that measures more or less than that fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from spec import END_TO_END, PER_LAYER, SPEC, WORK, WORKLOAD_NAMES, import_system


def print_metrics(result: dict) -> None:
    print(
        f"# {result['workload']} seed={result['seed']} "
        f"scenario_seed={result['scenario_seed']} trace={result['trace']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"granted={result['granted']} denied={result['denied']}"
    )
    raw = result["as_measured"]
    print(
        f"# as measured here: request_latency_p50_s={raw['request_latency_p50_s']:.4f} "
        f"throughput_rps={raw['throughput_rps']:.4f}; the reference slice took "
        f"{raw['host_slowdown_ratio']:.3f}x its reference time on this host"
    )
    for declared, measured in (
        (END_TO_END, result["end_to_end"]), (PER_LAYER, result["per_layer"])
    ):
        for name, value in measured.items():
            print(f"{name:45s} {value:>16.6f} {declared[name]['unit']}")
    for problem in result["problems"]:
        print(f"INCORRECT: {problem}")


def contract_line(result: dict) -> str:
    """The one JSON object the benchmark contract asks for."""
    declared, measured = (
        (PER_LAYER, result["per_layer"]) if result["trace"]
        else (END_TO_END, result["end_to_end"])
    )
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": declared[name]["unit"]}
            for name, value in measured.items()
        },
    })


def in_subprocess(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh interpreter; its full result."""
    WORK.mkdir(exist_ok=True)
    out = WORK / f"result-{name}-{seed}-{trace}.json"
    out.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        stdout=subprocess.PIPE, text=True,
    )
    if not out.exists():
        raise SystemExit(f"{name} (seed {seed}, trace {trace}) died:\n{done.stdout}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result


def run_all(names, seed: int, seconds: float) -> list:
    results = []
    for name in names:
        for trace in (0, 1):
            result = in_subprocess(name, seed, seconds, trace)
            # The traced run's end-to-end half is its untraced window; the
            # numbers to quote are the untraced run's.
            if trace:
                result["end_to_end"] = {}
            print_metrics(result)
            results.append(result)
    return results


def smoke(names, seed: int) -> list:
    """One traced run per workload, one cycle per caller and window."""
    results = [in_subprocess(name, seed, 0.0, 1) for name in names]
    for result in results:
        print_metrics(result)
    return results


def spread(values: list) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check(names, seed: int, seconds: float, runs: int) -> list:
    """Two sets of ``runs`` untraced runs over consecutive seeds.

    Passes when, for every workload and end-to-end metric, the spread of
    each set is within the bound (``setup_s`` excepted) and the second
    set's median is no worse than the first's by more than the bound.
    Returns every run's result plus one ``{"correct": passed}`` verdict.
    """
    ok = True
    every_run = []
    for name in names:
        sets = []
        for _ in range(2):
            results = [
                in_subprocess(name, seed + i, seconds, 0) for i in range(runs)
            ]
            every_run += results
            sets.append(results)
        for metric, declared in END_TO_END.items():
            bound = declared["bound"]
            medians, spreads = [], []
            for results in sets:
                values = [r["end_to_end"][metric] for r in results]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            drift = medians[1] / medians[0] - 1
            if declared["better"] == "higher":
                drift = -drift
            fine = drift <= bound and (
                metric == "setup_s" or max(spreads) <= bound
            )
            ok &= fine
            print(
                f"{name:16s} {metric:24s} median {medians[0]:.6g} -> {medians[1]:.6g} "
                f"{declared['unit']:4s} worse by {drift:+.4f}  "
                f"spread {spreads[0]:.4f} {spreads[1]:.4f}  bound {bound}  "
                f"{'ok' if fine else 'OUT OF BOUND'}"
            )
    return every_run + [{"correct": ok}]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="span file of a traced run")
    parser.add_argument("--out", help="write the full result(s) here as JSON")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--runs", type=int, default=10, help="runs per --check set")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    import_system()

    names = [args.workload] if args.workload else WORKLOAD_NAMES
    if args.check:
        results = check(names, args.seed, args.seconds, args.runs)
    elif args.smoke:
        results = smoke(names, args.seed)
    elif args.workload is None:
        results = run_all(names, args.seed, args.seconds)
    else:
        from measure import run_workload

        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.trace_out
        )
        results = [result]
        print_metrics(result)
    single = bool(args.workload) and not (args.check or args.smoke)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results[0] if single else results, fh, indent=1)
    if single:
        print(contract_line(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
