"""netctrl benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload large-sparse --seed 1 --seconds 12 --trace 0

Steps, each in its own process so that none inflates another's figures:

1. ``gen.py`` writes the seeded inputs (or reuses its cache);
2. fresh interpreters time ``import netctrl`` + ``parse_system`` of the
   inputs, half of them before step 3 and half after, so that they sample
   the host's speed over the whole run (``setup_s`` is their median);
3. ``worker.py`` loads the inputs and asks the questions in a closed loop,
   one at a time, in whole rounds for ``--seconds`` (traced with
   ``--trace 1``);
4. this process checks every distinct answer with ``checks.py``.

Every child runs with one BLAS/OpenMP thread.  The last line printed is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

WORKLOADS = ("large-sparse", "small-batch", "lexi-solve", "numeric-oracle")
# fresh interpreters whose set-up times give setup_s (the worker is one)
SETUP_STARTS = {"large-sparse": 3, "small-batch": 11, "lexi-solve": 11,
                "numeric-oracle": 11}
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "query_p50_s": "s", "queries_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "import_s": "s", "system.parse_s": "s", "system.construct_s": "s",
    "system.adjacency_s": "s", "flow.preprocess_s": "s", "flow.build_s": "s",
    "flow.solve_s": "s", "flow.extract_s": "s", "flow.separator_s": "s",
    "flow.essential_s": "s", "flow.aux_arcs": "count",
    "flow.networks_per_query": "count", "controllability.self_s": "s",
    "controllability.lexi_flows": "count", "numeric.instantiate_s": "s",
    "numeric.transfer_rank_s": "s", "numeric.pointwise_rank_s": "s",
    "numeric.svd_calls": "count", "numeric.zoh_s": "s",
    "numeric.track_self_s": "s", "numeric.track_matrix_mb": "MB",
    "cli.overhead_s": "s", "trace.overhead_s": "s", "trace.unhooked": "count",
}


class BenchError(RuntimeError):
    pass


def child(args, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + os.path.basename(args[0]))
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{os.path.basename(args[0])} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(args[0])} exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    return proc.stdout


def preflight():
    needed = [os.path.join(ROOT, "src", "netctrl", "__init__.py"),
              os.path.join(ROOT, "tests", "oracles.py"),
              os.path.join(ROOT, "samples", "network.sys")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        raise BenchError("not a netctrl checkout; missing " + ", ".join(missing))


def measure(args, deadline):
    gen = [os.path.join(HERE, "gen.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    manifest_path = child(gen, deadline).strip().splitlines()[-1]
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["dir"] = os.path.dirname(manifest_path)
    worker = os.path.join(HERE, "worker.py")
    setups = []

    def starts(count):
        for _ in range(count):
            out = child([worker, manifest_path, "--mode", "setup"], deadline)
            setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])

    extra = 0 if args.trace else SETUP_STARTS[args.workload] - 1
    starts(extra // 2)
    os.makedirs(CACHE, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=CACHE)
    try:
        child([worker, manifest_path, "--mode", "trace" if args.trace else "measure",
               "--seconds", str(args.seconds), "--out", out_dir], deadline)
        starts(extra - extra // 2)
        with open(os.path.join(out_dir, "answers.json"), encoding="utf-8") as fh:
            state = json.load(fh)
        import checks
        problems = checks.check_all(manifest, state["answers"], out_dir)
        if args.trace:
            problems += checks.check_cli(state["cli"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    problems += [f"question {q}: answer changed between rounds"
                 for q in sorted(set(state["mismatched"]))]
    times = state["times"]
    if args.trace:
        metrics = {k: (state["layers"][k], unit) for k, unit in PER_LAYER.items()}
    else:
        setups.append(state["setup_s"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "query_p50_s": (statistics.median(times), "s"),
            "queries_per_s": (len(times) / sum(times), "1/s"),
            "peak_rss_mb": (state["peak_rss_mb"], "MB"),
        }
    failed = len(state["failed"])
    attempted = len(times) + failed + state.get("answered_extra", 0)
    return problems, state, attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="netctrl benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test input sizes")
    args = ap.parse_args(argv)
    os.environ.update(THREADS)  # for the children, and before checks imports numpy
    deadline = time.monotonic() + DEADLINE_S
    try:
        preflight()
        problems, state, attempted, failed, metrics = measure(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for q_id, error in state["failed"][:10]:
        print(f"perfbench: question {q_id} failed: {error}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"perfbench: WRONG {problem}", file=sys.stderr)
    for hook in state.get("unhooked", []):
        print(f"perfbench: no such function to trace, its layer reads without "
              f"it: {hook}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {state['rounds']} rounds, "
          f"{attempted} questions, {failed} failed, "
          f"{'all answers checked' if not problems else f'{len(problems)} wrong'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    by_kind = {}
    for kind, t in zip(state["kinds"], state["times"]):
        by_kind.setdefault(kind, []).append(t)
    for kind, ts in sorted(by_kind.items()):
        print(f"  question {kind:19s} {len(ts):6d} asked, median {statistics.median(ts):.4g} s")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
