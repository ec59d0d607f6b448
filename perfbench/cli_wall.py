"""Wall time of one ``netctrl`` CLI call per subcommand.

    python3 perfbench/cli_wall.py

A reference figure for the README, not a benchmark metric: each call is a
fresh interpreter, so it is roughly ``setup_s`` plus one question.  The graph
subcommands run on the large-sparse input of seed ``SEED`` (generated by
``gen.py`` if needed), the numeric ones on ``samples/network.sys``.  Every
call runs with one BLAS thread; the median wall time of ``REPEATS`` calls
and the exit code are printed per subcommand.
"""

import os
import statistics
import subprocess
import sys
import time

from run import ROOT, THREADS

import gen

CALLS = [
    ("check", "large"), ("solve", "large"), ("classify", "large"),
    ("linking", "large"), ("separator", "large"),
    ("structural", "network"), ("verify", "network"), ("track", "network"),
    ("export-dot", "network"),
]
SEED = 1
REPEATS = 3


def main():
    manifest = gen.generate("large-sparse", SEED)
    files = {"large": os.path.join(os.path.dirname(manifest), "large.sys"),
             "network": os.path.join(ROOT, "samples", "network.sys")}
    env = dict(os.environ, **THREADS, PYTHONPATH=os.path.join(ROOT, "src"),
               NETCTRL_SEED="42")
    for sub, which in CALLS:
        times = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "netctrl.cli", sub,
                                   files[which], "--json"], cwd=ROOT, env=env,
                                  capture_output=True)
            times.append(time.perf_counter() - t)
        print(f"{sub:11s} {which:8s} exit {proc.returncode}  "
              f"median {statistics.median(times):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
