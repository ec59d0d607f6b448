"""Starting netctrl loads numpy but not scipy: small questions never need it."""

import json
import os
import subprocess
import sys
from pathlib import Path

from netctrl import flow

ROOT = Path(__file__).resolve().parent.parent

# every question kind on the three samples, then a CSR-sized question and a
# tracked trajectory; prints the scipy modules loaded after each part, and
# the names that the CSR-sized questions added to or took from flow's module
SCRIPT = r"""
import json, sys
import netctrl
from netctrl import StructuredSystem, UnsolvableError, flow, numeric

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

for name in ("chain", "network", "steering"):
    s = netctrl.parse_system(open(f"samples/{name}.sys").read())
    netctrl.is_functional_target_controllable(s, steering=(1,), targets=(s.n,))
    if s.targets:
        netctrl.solve_mtcp(s)
        netctrl.solve_mtcp(s, prefer_small_index=True)
        try:
            netctrl.classify_nodes(s)
        except UnsolvableError:
            pass
        flow.maximum_linking(s.state_adjacency(), s.available, s.targets)
        flow.minimal_left_separator(s.state_adjacency(), s.available, s.targets)
    if s.explicit_inputs:
        netctrl.is_structurally_controllable(s)
    if s.explicit_inputs and s.explicit_outputs:
        netctrl.is_functional_output_controllable(s)
    numeric.cross_validate(s, trials=2)
small = scipy_modules()
names = set(vars(flow))

n = flow.CSR_MIN_ARCS
chain = tuple((i, i + 1) for i in range(1, n))
large = StructuredSystem(n=n, state_edges=chain, available=(1,), targets=(n,),
                         explicit_inputs=((1,),))
network = netctrl.parse_system(open("samples/network.sys").read())
inst = numeric.instantiate(network)
task = numeric.TrajectoryTask(horizon=0.5, dt=0.01,
                              reference=numeric.default_reference(inst.p))
print(json.dumps({
    "small": small,
    "steering": netctrl.solve_mtcp(large).steering,
    "rank": netctrl.is_structurally_controllable(large).generic_rank,
    "flow_names": sorted(names ^ set(vars(flow))),
    "max_error": numeric.track_trajectory(inst, task).max_error,
    "large": scipy_modules(),
}))
"""


def test_small_questions_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    answers = json.loads(out)
    assert answers["small"] == []
    assert answers["steering"] == [1]
    assert answers["rank"] == flow.CSR_MIN_ARCS
    assert answers["flow_names"] == []
    assert answers["max_error"] < 1e-2
    assert {"scipy.sparse.csgraph", "scipy.linalg"} <= set(answers["large"])
