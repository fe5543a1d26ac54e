"""Run one workload's job list in this fresh interpreter.

Started by ``run.py`` with the repository root as working directory and
``src`` on ``PYTHONPATH``; prints one JSON object as its last stdout line.

The process imports ``hjblab.cli`` once, loads the job list, and then
repeats the list (in an order drawn from ``--seed``) until ``--seconds``
have passed.  Each job calls ``hjblab.cli.run`` with its own ``--out``
directory, which is removed before and after the job outside the timed
region, and then its output is checked.  With ``--trace 1`` the process
alternates untraced and traced passes over the list; the traced passes
record spans with :class:`spans.Tracer`, and those of the first traced
pass are written to ``.perfbench_work/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

WORK = ".perfbench_work"


def run_pass(cli, jobs, tracer=None) -> dict:
    """One pass over the job list: per-job seconds and check problems."""
    seconds, problems = {}, {}
    for job in jobs:
        out = os.path.join(WORK, job.name)
        shutil.rmtree(out, ignore_errors=True)
        argv = [*job.argv, "--out", out]
        sink = io.StringIO()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                start = time.perf_counter()
                if tracer is None:
                    code = cli.run(argv)
                else:
                    with tracer.span(f"cli.{job.command}"):
                        code = cli.run(argv)
                seconds[job.name] = time.perf_counter() - start
            found = job.check(out) if code == 0 else [f"exit code {code}: {sink.getvalue().strip()}"]
        except Exception:  # a crashing job or an unreadable output is a failed job
            seconds.setdefault(job.name, time.perf_counter() - start)
            found = [traceback.format_exc(limit=3)]
        shutil.rmtree(out, ignore_errors=True)
        if found:
            problems[job.name] = found
    return {"seconds": seconds, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import hjblab.cli as cli
    import_s = time.perf_counter() - start

    import jobs

    workload = jobs.load_workloads()[args.workload]
    order = list(workload.jobs)
    random.Random(args.seed).shuffle(order)
    setup_s = time.monotonic() - args.launched
    result = {"setup_s": setup_s, "import_s": import_s, "hjblab": os.path.dirname(cli.__file__)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import numpy
    import scipy

    import spans

    result["versions"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    os.makedirs(WORK, exist_ok=True)
    untraced, traced = [], []
    began = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, order))
        if args.trace:
            with spans.Tracer() as tracer:
                one = run_pass(cli, order, tracer)
            one["layers"] = tracer.layer_metrics()
            if not traced:
                tracer.write(os.path.join(WORK, f"spans-{args.workload}.npz"))
            traced.append(one)
        if time.perf_counter() - began >= args.seconds:
            break
    result["untraced"] = untraced
    result["traced"] = traced
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
