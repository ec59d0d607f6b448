"""The measured process: loads a workload's inputs and answers its questions.

    python3 perfbench/worker.py MANIFEST --mode setup
    python3 perfbench/worker.py MANIFEST --mode measure --seconds S --out DIR
    python3 perfbench/worker.py MANIFEST --mode trace --seconds S --out DIR

Every mode starts by timing ``import netctrl`` plus ``parse_system`` of the
input files (the set-up).  ``setup`` prints that time and stops.  ``measure``
then asks the manifest's questions in order, one at a time, in whole rounds
until ``S`` seconds have passed, timing each call; it writes the first answer
to each question, the timings and its peak RSS to ``DIR/answers.json``.
``trace`` asks one warm-up round, then does the same rounds untraced, then
repeats them with every public netctrl function wrapped by ``tracer.py`` and
writes the layer figures.

Nothing here is imported before the set-up clock starts except the standard
library, so the set-up time holds netctrl's own imports.
"""

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(manifest, after_import=None):
    """Time ``import netctrl`` and the parsing of every input file.

    ``after_import(netctrl)`` runs between the two, inside the timing."""
    t0 = time.perf_counter()
    import netctrl
    t_import = time.perf_counter() - t0
    if after_import is not None:
        after_import(netctrl)
    expected = os.path.join(ROOT, "src", "netctrl")
    if os.path.dirname(os.path.abspath(netctrl.__file__)) != expected:
        raise SystemExit(f"netctrl was imported from {netctrl.__file__}, "
                         f"not from {expected}")
    systems = {name: netctrl.parse_system(text)
               for name, text in read_texts(manifest).items()}
    return time.perf_counter() - t0, t_import, systems


def read_texts(manifest):
    """The text of every input system, by name.  A ``.bundle`` file holds
    many systems, each after a ``%% name`` line."""
    texts = {}
    for name in manifest["files"]:
        with open(os.path.join(manifest["dir"], name), encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".bundle"):
            for block in text.split("%% ")[1:]:
                sys_name, body = block.split("\n", 1)
                texts[sys_name] = body
        else:
            texts[name] = text
    return texts


def make_call(nc, q, s):
    """A no-argument callable asking question ``q`` of system ``s``.

    Functions are looked up on their modules at call time, so that the
    tracer's wrappers are seen.  Negative verdicts that netctrl reports by
    raising ``UnsolvableError`` are returned as answers.
    """
    ctl, flow, num = nc.controllability, nc.flow, nc.numeric
    kind = q["kind"]

    def classify():
        try:
            return ctl.classify_nodes(s)
        except ctl.UnsolvableError as exc:
            return exc

    def track():
        inst = num.instantiate(s, seed=q["seed"])
        task = num.TrajectoryTask(horizon=q["horizon"], dt=q["dt"],
                                  reference=num.default_reference(inst.p))
        return inst, num.track_trajectory(inst, task)

    calls = {
        "classify": classify,
        "solve": lambda: ctl.solve_mtcp(s),
        "solve_lexi": lambda: ctl.solve_mtcp(s, prefer_small_index=True),
        "separator": lambda: flow.minimal_left_separator(
            s.state_adjacency(), s.available, s.targets),
        "linking": lambda: flow.maximum_linking(
            s.state_adjacency(), s.available, s.targets),
        "check": lambda: ctl.is_functional_target_controllable(
            s, steering=q["steering"]),
        "output_check": lambda: ctl.is_functional_output_controllable(s),
        "structural": lambda: ctl.is_structurally_controllable(s),
        "cross_validate": lambda: num.cross_validate(
            s, trials=q["trials"], seed=q["seed"]),
        "track": track,
    }
    return calls[kind]


def _label(v):
    return f"{v[0]}{v[1]}" if isinstance(v, tuple) else v


def _paths(linking):
    if linking is None:
        return None
    return [[_label(v) for v in path] for path in linking.paths]


def encode(nc, kind, r, arrays):
    """A JSON-ready form of an answer; bulky numeric arrays go to ``arrays``."""
    if kind == "classify":
        if isinstance(r, nc.controllability.UnsolvableError):
            return {"unsolvable": r.achieved_size, "required": r.required}
        return {k: sorted(getattr(r, k)) for k in ("essential", "useful", "useless")}
    if kind in ("solve", "solve_lexi"):
        if isinstance(r, nc.controllability.Unsolvable):
            return {"unsolvable": r.achieved_size, "required": r.required,
                    "paths": _paths(r.best_linking)}
        return {"steering": list(r.steering), "paths": _paths(r.witness)}
    if kind == "separator":
        return {"separator": sorted(r)}
    if kind == "linking":
        return {"paths": _paths(r)}
    if kind in ("check", "output_check"):
        return {"controllable": r.controllable, "size": r.linking_size,
                "required": r.required, "paths": _paths(r.witness)}
    if kind == "structural":
        return {"controllable": r.controllable, "input_connected": r.input_connected,
                "unreachable": list(r.unreachable), "generic_rank": r.generic_rank,
                "n": r.n, "uncovered": list(r.uncovered)}
    if kind == "cross_validate":
        return [[t.seed, t.structural_rank, t.transfer_rank, t.pointwise_rank, t.agree]
                for t in r]
    if kind == "track":
        inst, task = r
        for name in ("A", "B", "C"):
            arrays[name] = getattr(inst, name)
        for name in ("inputs", "outputs", "reference_samples", "times"):
            arrays[name] = getattr(task, name)
        digest = hashlib.sha256(
            b"".join(a.tobytes() for a in arrays.values())).hexdigest()
        return {"max_error": task.max_error, "grid_error": task.grid_error,
                "startup_steps": task.startup_steps, "steps": len(task.inputs),
                "digest": digest}
    raise ValueError(kind)


def run_rounds(nc, manifest, systems, seconds=None, rounds=None):
    """Ask every question once per round, in whole rounds, until ``seconds``
    have passed (or for exactly ``rounds`` rounds)."""
    questions = manifest["questions"]
    calls = [make_call(nc, q, systems[q["system"]]) for q in questions]
    state = {"times": [], "kinds": [], "failed": [], "answers": {},
             "arrays": {}, "mismatched": []}
    start = time.perf_counter()
    done = 0
    while True:
        for q, call in zip(questions, calls):
            t = time.perf_counter()
            try:
                r = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                state["failed"].append([q["id"], f"{type(exc).__name__}: {exc}"])
                continue
            state["times"].append(time.perf_counter() - t)
            state["kinds"].append(q["kind"])
            arrays = {}
            enc = json.dumps(encode(nc, q["kind"], r, arrays), sort_keys=True)
            key = str(q["id"])
            if key not in state["answers"]:
                state["answers"][key] = enc
                if arrays:
                    state["arrays"][key] = arrays
            elif state["answers"][key] != enc:
                state["mismatched"].append(q["id"])
        done += 1
        if rounds is not None and done >= rounds:
            break
        if rounds is None and time.perf_counter() - start >= seconds:
            break
    state["rounds"] = done
    return state


def write_out(out, state, extra):
    import numpy as np  # already loaded by netctrl; not part of any timing

    for key, arrays in state.pop("arrays").items():
        np.savez(os.path.join(out, f"arrays-{key}.npz"), **arrays)
    state.update(extra)
    with open(os.path.join(out, "answers.json"), "w", encoding="utf-8") as fh:
        json.dump(state, fh)


def traced_run(manifest, seconds, out):
    """One warm-up round, untraced rounds for ``seconds``, then as many
    rounds traced."""
    import tracer as tr

    t = tr.Tracer()
    setup_s, import_s, systems = load(manifest, after_import=t.install)
    setup_layers = t.layer_times(0)
    t.uninstall()
    import netctrl as nc
    # One round first, not timed against: the first round in a process also pays
    # for growing the heap, which would read as a negative tracing overhead.
    warm = run_rounds(nc, manifest, systems, rounds=1)
    plain = run_rounds(nc, manifest, systems, seconds=seconds)
    t.install(nc)
    first = len(t.spans)
    traced = run_rounds(nc, manifest, systems, rounds=plain["rounds"])
    layers = t.layer_times(first)
    asked = max(1, len(traced["times"]))
    metrics = {"import_s": import_s}
    for name in tr.SETUP_METRICS[1:]:
        metrics[name] = setup_layers.get(name, 0.0)
    for name in tr.QUERY_METRICS:
        metrics[name] = layers.get(name, 0.0) / asked
    arcs = tr.outermost_builders(t.spans, first)
    metrics["flow.aux_arcs"] = max(arcs, default=0)
    metrics["flow.networks_per_query"] = len(arcs) / asked
    metrics["controllability.lexi_flows"] = tr.lexi_flows(t.spans, first)
    metrics["numeric.svd_calls"] = t.counts.get("numeric.svd_calls", 0) / asked
    # the dense block-Toeplitz matrix of track: steps*p x steps*m doubles
    metrics["numeric.track_matrix_mb"] = max(
        (len(a["inputs"]) ** 2 * a["inputs"].shape[1]
         * a["reference_samples"].shape[1] * 8 / 1e6
         for a in traced["arrays"].values()), default=0.0)
    metrics["cli.overhead_s"], cli = tr.cli_overhead(
        t, nc, os.path.join(ROOT, "samples", "steering.sys"))
    metrics["trace.unhooked"] = len(t.missing)
    t.uninstall()
    metrics["trace.overhead_s"] = (sum(traced["times"]) / asked
                                   - sum(plain["times"]) / max(1, len(plain["times"])))
    for other in (warm, traced):
        for key, enc in other["answers"].items():
            if plain["answers"].get(key) != enc:
                plain["mismatched"].append(int(key))
        plain["mismatched"] += other["mismatched"]
        plain["failed"] += other["failed"]
    plain["answered_extra"] = len(warm["times"]) + len(traced["times"])
    write_out(out, plain, {"setup_s": setup_s, "import_s": import_s,
                           "layers": metrics, "cli": cli,
                           "unhooked": t.missing})
    return 0


def main(argv):
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["dir"] = os.path.dirname(os.path.abspath(args.manifest))

    if args.mode == "trace":
        return traced_run(manifest, args.seconds, args.out)

    setup_s, import_s, systems = load(manifest)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import netctrl as nc
    state = run_rounds(nc, manifest, systems, seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    write_out(args.out, state, {"setup_s": setup_s, "import_s": import_s,
                                "peak_rss_mb": rss_mb})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
