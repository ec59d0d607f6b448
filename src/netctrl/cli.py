"""Command-line front-end.

Decision subcommands (check, solve, classify, structural, verify, track)
encode their verdict in the exit code so shell pipelines can branch: 0 for a
positive answer, 1 for a negative one (not controllable / unsolvable / a
failed trial), 2 for usage, file and argument errors and for inputs too large
for memory.  Computational subcommands (linking, separator, export-dot) exit
0 on success.  All results are reproducible from library calls; the CLI adds
only I/O and formatting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from typing import Optional, Sequence

from . import flow
from .controllability import (
    Unsolvable,
    UnsolvableError,
    classify_nodes,
    is_functional_output_controllable,
    is_functional_target_controllable,
    is_structurally_controllable,
    solve_mtcp,
)
from .numeric import (
    PreconditionError,
    TrajectoryTask,
    cross_validate,
    default_reference,
    instantiate,
    track_trajectory,
    trajectory_to_csv,
)
from .system import (
    ParseError,
    StructuredSystem,
    ValidationError,
    build_graph,
    node_name,
    parse_system,
    serialize_dot,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _default_seed() -> int:
    env = os.environ.get("NETCTRL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"NETCTRL_SEED must be an integer, got {env!r}")
    return 0


def _load(path: str) -> StructuredSystem:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at "
                             f"byte {exc.start}") from None
    return parse_system(text)


def _paths_json(linking: Optional[flow.Linking]) -> Optional[list]:
    if linking is None:
        return None
    return [[_label_str(v) for v in path] for path in linking.paths]


def _label_str(node) -> str:
    return node_name(node) if isinstance(node, tuple) else f"x{node}"


def _paths_text(linking: Optional[flow.Linking]) -> str:
    if linking is None or not linking.paths:
        return "  (none)"
    return "\n".join(
        "  " + " -> ".join(_label_str(v) for v in path) for path in linking.paths
    )


# ---------------------------------------------------------------------------
# Subcommand handlers: each takes the loaded system and the parsed arguments
# and returns (verdict, JSON payload without the command envelope, human
# text); main prints one of the two and maps the verdict to the exit code
# ---------------------------------------------------------------------------

def _cmd_check(sys_: StructuredSystem, args) -> tuple:
    if args.steering is None and args.targets is None and sys_.explicit_inputs \
            and sys_.explicit_outputs:
        verdict = is_functional_output_controllable(sys_)
        what = "functionally output controllable"
    else:
        verdict = is_functional_target_controllable(
            sys_, steering=args.steering, targets=args.targets
        )
        what = "functionally target controllable"
    payload = {
        "controllable": verdict.controllable,
        "max_linking_size": verdict.linking_size,
        "required": verdict.required,
        "witness_paths": _paths_json(verdict.witness),
    }
    if verdict.controllable:
        human = (f"functionally controllable (max linking {verdict.linking_size} "
                 f"= {verdict.required})\nwitness paths:\n"
                 + _paths_text(verdict.witness))
    else:
        human = (f"NOT {what} (max linking {verdict.linking_size} "
                 f"< {verdict.required})")
    return verdict.controllable, payload, human


def _cmd_solve(sys_: StructuredSystem, args) -> tuple:
    result = solve_mtcp(sys_, prefer_small_index=args.prefer_small_index)
    if isinstance(result, Unsolvable):
        payload = {
            "solvable": False,
            "achieved_size": result.achieved_size,
            "required": result.required,
            "steering_set": None,
            "witness_paths": _paths_json(result.best_linking),
        }
        return False, payload, (f"UNSOLVABLE: best linking size "
                                f"{result.achieved_size} < {result.required} targets")
    steering = [_label_str(v) for v in result.steering]
    payload = {
        "solvable": True,
        "steering_set": steering,
        "witness_paths": _paths_json(result.witness),
    }
    human = (f"minimum steering set (size {len(steering)}): " + " ".join(steering)
             + "\nwitness paths:\n" + _paths_text(result.witness))
    return True, payload, human


def _cmd_classify(sys_: StructuredSystem, args) -> tuple:
    try:
        classification = classify_nodes(sys_)
    except UnsolvableError as exc:
        return False, {"solvable": False, "error": str(exc)}, f"UNSOLVABLE: {exc}"
    mapping = {f"x{i}": label for i, label in classification.as_dict().items()}
    human = "\n".join(f"{name}: {label}" for name, label in mapping.items())
    return True, {"solvable": True, "labels": mapping}, human


def _cmd_linking(sys_: StructuredSystem, args) -> tuple:
    linking = flow.maximum_linking(
        sys_.state_adjacency(), sys_.available, sys_.targets
    )
    payload = {"size": linking.size, "paths": _paths_json(linking)}
    return True, payload, (f"maximum linking size {linking.size}\n"
                           + _paths_text(linking))


def _cmd_separator(sys_: StructuredSystem, args) -> tuple:
    sep = flow.minimal_left_separator(
        sys_.state_adjacency(), sys_.available, sys_.targets
    )
    names = [_label_str(v) for v in sorted(sep)]
    payload = {"separator": names, "size": len(names)}
    return True, payload, ("minimal left separator: "
                           + (" ".join(names) if names else "(empty)"))


def _cmd_structural(sys_: StructuredSystem, args) -> tuple:
    report = is_structurally_controllable(sys_)
    unreachable = [f"x{i}" for i in report.unreachable]
    payload = {
        "controllable": report.controllable,
        "input_connected": report.input_connected,
        "unreachable": unreachable,
        "generic_rank": report.generic_rank,
        "n": report.n,
        "uncovered": [f"x{i}" for i in report.uncovered],
    }
    if report.controllable:
        human = (f"structurally controllable (generic rank {report.generic_rank}"
                 f" = n = {report.n})")
    else:
        reasons = []
        if not report.input_connected:
            reasons.append("unreachable states: " + " ".join(unreachable))
        if report.generic_rank < report.n:
            reasons.append(f"generic rank {report.generic_rank} < {report.n}")
        human = "NOT structurally controllable (" + "; ".join(reasons) + ")"
    return report.controllable, payload, human


def _cmd_verify(sys_: StructuredSystem, args) -> tuple:
    reports = cross_validate(
        sys_, trials=args.trials, seed=args.seed, rel_tol=args.tol
    )
    all_agree = all(r.agree for r in reports)
    payload = {
        "trials": [
            {
                "seed": r.seed,
                "structural_rank": r.structural_rank,
                "transfer_rank": r.transfer_rank,
                "pointwise_rank": r.pointwise_rank,
                "agree": r.agree,
            }
            for r in reports
        ],
        "all_agree": all_agree,
    }
    lines = [
        f"seed {r.seed}: structural {r.structural_rank}, transfer "
        f"{r.transfer_rank}, pointwise {r.pointwise_rank} -> "
        + ("agree" if r.agree else "DISAGREE")
        for r in reports
    ]
    lines.append("all trials agree" if all_agree else "some trials disagree")
    return all_agree, payload, "\n".join(lines)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_track(sys_: StructuredSystem, args) -> tuple:
    inst = instantiate(sys_, seed=args.seed)
    task = TrajectoryTask(
        horizon=args.horizon, dt=args.dt, reference=default_reference(inst.p)
    )
    try:
        result = track_trajectory(inst, task)
    except PreconditionError as exc:
        return False, {"tracked": False, "error": str(exc)}, f"REJECTED: {exc}"
    csv_text = trajectory_to_csv(result)
    if args.out:
        _write(args.out, csv_text)
    payload = {
        "tracked": True,
        "steps": len(result.inputs),
        "startup_steps": result.startup_steps,
        "max_error": result.max_error,
        "grid_error": result.grid_error,
        "solver": result.solver,
        "condition": result.condition,
        "csv": args.out,
    }
    human = (
        f"tracked {len(result.inputs)} steps (dt={args.dt}) by {result.solver} "
        f"(condition {result.condition:.3g}); post-startup max "
        f"error {result.max_error:.3e} (grid {result.grid_error:.3e})"
        # without --out the CSV follows the summary line
        + (f"; wrote {args.out}" if args.out else "\n" + csv_text.removesuffix("\n"))
    )
    return True, payload, human


def _cmd_export_dot(sys_: StructuredSystem, args) -> tuple:
    classification = None
    if args.classify:
        classification = classify_nodes(sys_).as_dict()
    dot = serialize_dot(build_graph(sys_), classification)
    if args.out:
        _write(args.out, dot)
        return True, None, f"wrote {args.out}"
    return True, None, dot.removesuffix("\n")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netctrl",
        description="Functional target controllability of structured networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, json_output=True):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="system file (line format or JSON)")
        if json_output:
            p.add_argument("--json", action="store_true",
                           help="machine-readable output")
        p.set_defaults(func=func, json=False)
        return p

    p = add("check", _cmd_check, "decide functional target controllability")
    p.add_argument("--steering", type=int, nargs="+", metavar="i",
                   help="steering nodes (default: the file's available set)")
    p.add_argument("--targets", type=int, nargs="+", metavar="j",
                   help="target nodes (default: the file's target set)")

    p = add("solve", _cmd_solve, "minimum steering set within the available set")
    p.add_argument("--prefer-small-index", action="store_true",
                   help="pick the lexicographically smallest steering set")
    add("classify", _cmd_classify, "label available nodes essential/useful/useless")
    add("linking", _cmd_linking, "maximum available-to-target linking")
    add("separator", _cmd_separator, "minimal left separator")
    add("structural", _cmd_structural, "point-wise structural controllability")

    p = add("verify", _cmd_verify, "numeric cross-validation of the generic rank")
    p.add_argument("--seed", type=int, default=None, help="base RNG seed")
    p.add_argument("--trials", type=int, default=20, help="number of random draws")
    p.add_argument("--tol", type=float, default=1e-9, help="relative rank tolerance")

    p = add("track", _cmd_track, "trajectory-tracking demonstration")
    p.add_argument("--horizon", type=float, default=5.0, help="time horizon")
    p.add_argument("--dt", type=float, default=0.01, help="sampling step")
    p.add_argument("--seed", type=int, default=None, help="instantiation seed")
    p.add_argument("--out", help="write the trajectory CSV to this path")

    p = add("export-dot", _cmd_export_dot, "emit the system graph as DOT",
            json_output=False)
    p.add_argument("--classify", action="store_true",
                   help="style available nodes by classification")
    p.add_argument("--out", help="write DOT to this path instead of stdout")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "seed", "absent") is None:
            args.seed = _default_seed()
        verdict, payload, human = args.func(_load(args.file), args)
        print(json.dumps({"command": args.command, **payload}, indent=2)
              if args.json else human)
    except (ParseError, ValidationError, UnsolvableError, OSError) as exc:
        # an UnsolvableError that reaches here is a request (export-dot
        # --classify) that needs a solvable system, not a verdict
        print(f"netctrl: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print("netctrl: not enough memory" + (f": {exc}" if str(exc) else ""),
              file=_sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if verdict else EXIT_NEGATIVE


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
