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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at "
                             f"byte {exc.start}") from None
    return parse_system(text)


def _emit(payload: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def _paths_json(linking: Optional[flow.Linking]) -> Optional[list]:
    if linking is None:
        return None
    return [[_label_str(v) for v in path] for path in linking.paths]


def _label_str(node) -> str:
    if isinstance(node, tuple) and len(node) == 2 and isinstance(node[0], str):
        return f"{node[0]}{node[1]}"
    return f"x{node}"


def _paths_text(linking: Optional[flow.Linking]) -> str:
    if linking is None or not linking.paths:
        return "  (none)"
    return "\n".join(
        "  " + " -> ".join(_label_str(v) for v in path) for path in linking.paths
    )


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    sys_ = _load(args.file)
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
        "command": "check",
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
    _emit(payload, args.json, human)
    return EXIT_OK if verdict.controllable else EXIT_NEGATIVE


def _cmd_solve(args) -> int:
    sys_ = _load(args.file)
    result = solve_mtcp(sys_)
    if isinstance(result, Unsolvable):
        payload = {
            "command": "solve",
            "solvable": False,
            "achieved_size": result.achieved_size,
            "required": result.required,
            "steering_set": None,
            "witness_paths": _paths_json(result.best_linking),
        }
        human = (f"UNSOLVABLE: best linking size {result.achieved_size} "
                 f"< {result.required} targets")
        _emit(payload, args.json, human)
        return EXIT_NEGATIVE
    payload = {
        "command": "solve",
        "solvable": True,
        "steering_set": [_label_str(v) for v in result.steering],
        "witness_paths": _paths_json(result.witness),
    }
    human = (
        "minimum steering set (size "
        + str(len(result.steering))
        + "): "
        + " ".join(_label_str(v) for v in result.steering)
        + "\nwitness paths:\n"
        + _paths_text(result.witness)
    )
    _emit(payload, args.json, human)
    return EXIT_OK


def _cmd_classify(args) -> int:
    sys_ = _load(args.file)
    try:
        classification = classify_nodes(sys_)
    except UnsolvableError as exc:
        _emit(
            {"command": "classify", "solvable": False, "error": str(exc)},
            args.json,
            f"UNSOLVABLE: {exc}",
        )
        return EXIT_NEGATIVE
    mapping = {f"x{i}": label for i, label in classification.as_dict().items()}
    human = "\n".join(f"{name}: {label}" for name, label in mapping.items())
    _emit({"command": "classify", "solvable": True, "labels": mapping},
          args.json, human)
    return EXIT_OK


def _cmd_linking(args) -> int:
    sys_ = _load(args.file)
    linking = flow.maximum_linking(
        sys_.state_adjacency(), sys_.available, sys_.targets
    )
    payload = {
        "command": "linking",
        "size": linking.size,
        "paths": _paths_json(linking),
    }
    human = f"maximum linking size {linking.size}\n" + _paths_text(linking)
    _emit(payload, args.json, human)
    return EXIT_OK


def _cmd_separator(args) -> int:
    sys_ = _load(args.file)
    sep = flow.minimal_left_separator(
        sys_.state_adjacency(), sys_.available, sys_.targets
    )
    ordered = sorted(sep)
    payload = {
        "command": "separator",
        "separator": [_label_str(v) for v in ordered],
        "size": len(ordered),
    }
    human = "minimal left separator: " + (
        " ".join(_label_str(v) for v in ordered) if ordered else "(empty)"
    )
    _emit(payload, args.json, human)
    return EXIT_OK


def _cmd_structural(args) -> int:
    sys_ = _load(args.file)
    report = is_structurally_controllable(sys_)
    payload = {
        "command": "structural",
        "controllable": report.controllable,
        "input_connected": report.input_connected,
        "unreachable": [f"x{i}" for i in report.unreachable],
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
            reasons.append(
                "unreachable states: "
                + " ".join(f"x{i}" for i in report.unreachable)
            )
        if report.generic_rank < report.n:
            reasons.append(
                f"generic rank {report.generic_rank} < {report.n}"
            )
        human = "NOT structurally controllable (" + "; ".join(reasons) + ")"
    _emit(payload, args.json, human)
    return EXIT_OK if report.controllable else EXIT_NEGATIVE


def _cmd_verify(args) -> int:
    sys_ = _load(args.file)
    reports = cross_validate(
        sys_, trials=args.trials, seed=args.seed, rel_tol=args.tol
    )
    all_agree = all(r.agree for r in reports)
    payload = {
        "command": "verify",
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
    _emit(payload, args.json, "\n".join(lines))
    return EXIT_OK if all_agree else EXIT_NEGATIVE


def _cmd_track(args) -> int:
    sys_ = _load(args.file)
    inst = instantiate(sys_, seed=args.seed)
    task = TrajectoryTask(
        horizon=args.horizon, dt=args.dt, reference=default_reference(inst.p)
    )
    try:
        result = track_trajectory(inst, task)
    except PreconditionError as exc:
        _emit(
            {"command": "track", "tracked": False, "error": str(exc)},
            args.json,
            f"REJECTED: {exc}",
        )
        return EXIT_NEGATIVE
    csv_text = trajectory_to_csv(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    payload = {
        "command": "track",
        "tracked": True,
        "steps": len(result.inputs),
        "startup_steps": result.startup_steps,
        "max_error": result.max_error,
        "grid_error": result.grid_error,
        "csv": args.out,
    }
    human = (
        f"tracked {len(result.inputs)} steps (dt={args.dt}); post-startup max "
        f"error {result.max_error:.3e} (grid {result.grid_error:.3e})"
        + (f"; wrote {args.out}" if args.out else "")
    )
    _emit(payload, args.json, human)
    if not args.out and not args.json:
        print(csv_text, end="")
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    sys_ = _load(args.file)
    classification = None
    if args.classify:
        classification = classify_nodes(sys_).as_dict()
    dot = serialize_dot(build_graph(sys_), classification)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
        print(f"wrote {args.out}")
    else:
        print(dot, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netctrl",
        description="Functional target controllability of structured networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="system file (line format or JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("check", _cmd_check, "decide functional target controllability")
    p.add_argument("--steering", type=int, nargs="+", metavar="i",
                   help="steering nodes (default: the file's available set)")
    p.add_argument("--targets", type=int, nargs="+", metavar="j",
                   help="target nodes (default: the file's target set)")

    add("solve", _cmd_solve, "minimum steering set within the available set")
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

    p = add("export-dot", _cmd_export_dot, "emit the system graph as DOT")
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
    if getattr(args, "seed", "absent") is None:
        try:
            args.seed = _default_seed()
        except ValidationError as exc:
            print(f"netctrl: {exc}", file=_sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, ValidationError, UnsolvableError, OSError) as exc:
        # an UnsolvableError that reaches here is a request (export-dot
        # --classify) that needs a solvable system, not a verdict
        print(f"netctrl: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print("netctrl: not enough memory" + (f": {exc}" if str(exc) else ""),
              file=_sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
