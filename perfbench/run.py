"""End-to-end and per-layer benchmark of the hjblab command line.

    python3 perfbench/run.py --workload corrector-1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere; the repository root is the directory above this file.
Each workload runs in one fresh interpreter (``workload.py``) that
imports ``hjblab.cli`` once and runs the workload's CLI jobs through
``hjblab.cli.run``, one at a time (a closed loop with one client), for
``--seconds`` seconds, checking every job's output.  BLAS/OpenMP pools
are pinned to one thread and ``HJB_THREADS`` is removed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (launch of a
fresh interpreter until ``hjblab.cli`` is imported and the job list is
loaded; the median of several launches), ``wall_s`` (median time of one
pass over the job list), ``peak_rss_mb``, and, on the printed lines only,
``cmd.<subcommand>_s`` and ``failed_frac``.  ``--trace 1`` reports the
per-layer metrics of ``spans.PER_LAYER`` from traced passes, and the
tracing overhead.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--record PATH``
also merges the results into a JSON file such as ``BENCH_0.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import PER_LAYER  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
WORKLOADS = ("corrector-1d", "disk-2d", "certify", "evolve-1d")
SETUP_PROBES = 4        # set-up-only launches before and again after the workload process
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def bench_env() -> dict:
    env = dict(os.environ)
    env.pop("HJB_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def launch(options: list[str], deadline: float) -> dict:
    """Start workload.py in a fresh interpreter and return its JSON result."""
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "workload.py"), *options,
             "--launched", repr(launched)],
            cwd=ROOT, env=bench_env(), capture_output=True, text=True,
            timeout=max(deadline - launched, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"the run exceeded {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    expected = os.path.join(ROOT, "src", "hjblab")
    if os.path.realpath(result["hjblab"]) != os.path.realpath(expected):
        raise BenchError(f"imported hjblab from {result['hjblab']}, not {expected}")
    return result


def pass_seconds(passes: list[dict], jobs) -> tuple[list[float], dict[str, list[float]]]:
    """Per pass: the summed job time, and the summed time of each subcommand."""
    walls = [sum(p["seconds"].values()) for p in passes]
    by_command: dict[str, list[float]] = {}
    for p in passes:
        sums: dict[str, float] = {}
        for job in jobs:
            sums[job.command] = sums.get(job.command, 0.0) + p["seconds"][job.name]
        for command, total in sums.items():
            by_command.setdefault(command, []).append(total)
    return walls, by_command


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from jobs import load_workloads

    workload = load_workloads()[name]
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)]
    deadline = time.monotonic() + RUN_LIMIT_S
    probes = [launch([*common, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    main = launch([*common, "--trace", str(int(trace))], deadline)
    probes += [launch([*common, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    setups = [r["setup_s"] for r in probes + [main]]
    imports = [r["import_s"] for r in probes + [main]]

    passes = main["untraced"] + main["traced"]
    attempted = len(workload.jobs) * len(passes)
    failed = sum(len(p["problems"]) for p in passes)     # jobs whose run or check failed
    failures = [f"{job}: {problem}" for p in passes for job, found in p["problems"].items()
                for problem in found]
    walls, by_command = pass_seconds(main["untraced"], workload.jobs)

    if trace:
        traced_walls, _ = pass_seconds(main["traced"], workload.jobs)
        layers = {}
        for key in main["traced"][0]["layers"]:
            values = [p["layers"][key] for p in main["traced"]]
            if PER_LAYER[key] in ("count", "bytes"):     # counts must repeat exactly
                if len(set(values)) > 1:
                    failures.append(f"{key} differs between traced passes: {values}")
                layers[key] = values[0]
            else:
                layers[key] = statistics.median(values)
        layers["import.hjblab_s"] = statistics.median(imports)
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics = {key: layers[key] for key in PER_LAYER}
        extra = {}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        extra = {f"cmd.{c}_s": statistics.median(t) for c, t in by_command.items()}
    extra["failed_frac"] = failed / attempted
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "passes": len(passes),
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "extra": extra,
        "environment": {"nproc": os.cpu_count(), **main["versions"], "git_sha": git_sha()},
    }


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric in PER_LAYER:
        return PER_LAYER[metric]
    return "fraction" if metric == "failed_frac" else "s"


def report(result: dict) -> None:
    for metric, value in {**result["metrics"], **result["extra"]}.items():
        print(f"{result['workload']:<13} {metric:<26} {value:>14.6g} {unit(metric)}")
    for failure in result["failures"]:
        print(f"{result['workload']:<13} FAILED {failure}")
    print(f"{result['workload']:<13} {result['passes']} passes, environment "
          f"{json.dumps(result['environment'], sort_keys=True)}")


def record(path: str, result: dict, trace: bool) -> None:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        data = {"workloads": {}}
    entry = data["workloads"].setdefault(result["workload"], {})
    key = "per_layer" if trace else "end_to_end"
    entry[key] = {
        "seed": result["seed"],
        "seconds": result["seconds"],
        "passes": result["passes"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "environment": result["environment"],
        "metrics": {m: {"value": v, "unit": unit(m)}
                    for m, v in {**result["metrics"], **result["extra"]}.items()},
    }
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", default=None, help="JSON file to merge the results into")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hjblab", "cli.py")):
        print(f"error: no hjblab sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(result)
            if args.record:
                record(args.record, result, bool(args.trace))
            results.append(result)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = {m: {"value": v, "unit": unit(m)} for m, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{m}": {"value": v, "unit": unit(m)}
                   for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
