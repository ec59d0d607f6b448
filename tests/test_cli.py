"""Command-line interface: grammar, exit codes, JSON stability."""

import contextlib
import io
import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from netctrl.cli import main

SAMPLES = sorted(str(p) for p in
                 (Path(__file__).parent.parent / "samples").glob("*.sys"))

STEERING_TEXT = """\
n 9
edge 1 2
edge 1 6
edge 2 3
edge 2 5
edge 4 3
edge 4 5
edge 5 6
edge 5 7
edge 5 8
edge 5 9
edge 6 8
edge 6 9
edge 7 8
edge 9 1
available 1 2 3 4
targets 8 9
"""

CHAIN_TEXT = """\
n 4
edge 1 2
edge 2 3
edge 1 4
input 1 1
"""

NETWORK_TEXT = STEERING_TEXT.replace("available 1 2 3 4\ntargets 8 9\n", "") + (
    "input 1 4 7\ninput 2 6 9\noutput 1 8\noutput 2 8 9\n"
)


@pytest.fixture
def steering_file(tmp_path):
    path = tmp_path / "steering.sys"
    path.write_text(STEERING_TEXT)
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.sys"
    path.write_text(CHAIN_TEXT)
    return str(path)


@pytest.fixture
def network_file(tmp_path):
    path = tmp_path / "network.sys"
    path.write_text(NETWORK_TEXT)
    return str(path)


class TestClassify:
    def test_json_mapping(self, steering_file, capsys):
        assert main(["classify", steering_file, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"command": "classify", "solvable": True, "labels": {
            "x1": "essential", "x2": "useful", "x3": "useless", "x4": "useful"
        }}

    def test_unsolvable_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        path.write_text("n 3\navailable 1\ntargets 3\n")
        assert main(["classify", str(path)]) == 1
        assert "UNSOLVABLE" in capsys.readouterr().out

    def test_unsolvable_json_same_envelope(self, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        path.write_text("n 3\navailable 1\ntargets 3\n")
        assert main(["classify", str(path), "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["command"] == "classify" and out["solvable"] is False


class TestSolve:
    def test_steering_example(self, steering_file, capsys):
        assert main(["solve", steering_file]) == 0
        out = capsys.readouterr().out
        assert "size 2" in out
        assert "x1" in out
        assert "->" in out  # witness paths shown

    def test_unsolvable(self, tmp_path, capsys):
        path = tmp_path / "u.sys"
        path.write_text("n 2\navailable 1\ntargets 2\n")
        assert main(["solve", str(path)]) == 1
        assert "UNSOLVABLE" in capsys.readouterr().out


class TestCheck:
    def test_chain_negative(self, chain_file, capsys):
        code = main(["check", chain_file, "--steering", "1",
                     "--targets", "3", "4"])
        assert code == 1
        out = capsys.readouterr().out
        assert "NOT functionally target controllable" in out
        assert "max linking 1 < 2" in out

    def test_chain_singleton_positive(self, chain_file):
        assert main(["check", chain_file, "--steering", "1", "--targets", "3"]) == 0

    def test_network_output_mode(self, network_file, capsys):
        assert main(["check", network_file, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["controllable"] is True
        assert out["max_linking_size"] == 2


class TestLinkingAndSeparator:
    def test_linking(self, steering_file, capsys):
        assert main(["linking", steering_file, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["size"] == 2
        assert out["paths"] == [["x1", "x6", "x8"], ["x2", "x5", "x9"]]

    def test_separator(self, steering_file, capsys):
        assert main(["separator", steering_file, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["separator"] == ["x1", "x5"]
        assert out["size"] == 2


class TestStructural:
    def test_network_positive(self, network_file):
        assert main(["structural", network_file]) == 0

    def test_chain_negative(self, chain_file, capsys):
        assert main(["structural", chain_file, "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["controllable"] is False
        assert out["generic_rank"] == 3


class TestVerify:
    def test_steering_agrees(self, steering_file, capsys):
        assert main(["verify", steering_file, "--trials", "3", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_agree"] is True
        assert len(out["trials"]) == 3
        assert {"seed", "structural_rank", "transfer_rank", "pointwise_rank",
                "agree"} <= set(out["trials"][0])

    def test_seed_env_override(self, steering_file, capsys, monkeypatch):
        monkeypatch.setenv("NETCTRL_SEED", "7")
        assert main(["verify", steering_file, "--trials", "1", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["trials"][0]["seed"] == 7


class TestTrack:
    def test_network_track_to_csv(self, network_file, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        code = main(["track", network_file, "--horizon", "1.0", "--dt", "0.02",
                     "--seed", "42", "--out", str(out_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tracked"] is True
        assert payload["max_error"] < 1e-3
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("t,ref_1")
        assert len(lines) == 52  # header + 51 grid points

    def test_chain_two_targets_rejected(self, tmp_path, capsys):
        path = tmp_path / "f2t.sys"
        path.write_text(CHAIN_TEXT + "targets 3 4\n")
        assert main(["track", str(path), "--horizon", "1.0"]) == 1
        assert "REJECTED" in capsys.readouterr().out


class TestExportDot:
    def test_to_stdout(self, network_file, capsys):
        assert main(["export-dot", network_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"u1" [shape=box];' in out

    def test_classified_to_file(self, steering_file, tmp_path):
        out_path = tmp_path / "g.dot"
        assert main(["export-dot", steering_file, "--classify", "--out",
                     str(out_path)]) == 0
        text = out_path.read_text()
        assert 'class="essential"' in text


class TestErrorsAndDeterminism:
    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/x.sys"]) == 2
        assert "netctrl:" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        path.write_text("edge 1 2\n")
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_json_byte_deterministic(self, steering_file, capsys):
        main(["solve", steering_file, "--json"])
        first = capsys.readouterr().out
        main(["solve", steering_file, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_json_accepted_as_input(self, tmp_path, steering_system, capsys):
        from netctrl import system_to_json

        path = tmp_path / "steering.json"
        path.write_text(system_to_json(steering_system))
        assert main(["separator", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["separator"] == ["x1", "x5"]


class TestRejectedRequests:
    """Requests that cannot be answered exit 2 with one line on stderr;
    exit 1 stays reserved for negative verdicts."""

    @staticmethod
    def one_line_error(capsys, expected):
        err = capsys.readouterr().err
        assert err.startswith("netctrl: ") and err.count("\n") == 1, err
        assert expected in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_without_trials(self, steering_file, trials, capsys):
        assert main(["verify", steering_file, "--trials", trials]) == 2
        self.one_line_error(capsys, "trials must be at least 1")

    @pytest.mark.parametrize("option", ["--dt", "--horizon"])
    def test_track_zero_step(self, network_file, option, capsys):
        assert main(["track", network_file, option, "0"]) == 2
        self.one_line_error(capsys, "must be a finite positive number")

    def test_track_without_targets(self, chain_file, capsys):
        assert main(["track", chain_file]) == 2
        self.one_line_error(capsys, "no targets or outputs")

    def test_export_dot_classify_unsolvable(self, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        path.write_text("n 3\navailable 1\ntargets 3\n")
        assert main(["export-dot", str(path), "--classify"]) == 2
        self.one_line_error(capsys, "no admissible steering set")

    def test_verify_out_of_memory(self, steering_file, monkeypatch, capsys):
        import netctrl.numeric

        def instantiate(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(netctrl.numeric, "instantiate", instantiate)
        assert main(["verify", steering_file]) == 2
        self.one_line_error(capsys, "not enough memory: Unable to allocate")

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "binary.sys"
        path.write_bytes(b"\xff\xfe")
        assert main(["classify", str(path)]) == 2
        self.one_line_error(capsys, "is not UTF-8 text")

    @pytest.mark.parametrize("text", [
        "n 99999999999999999999\n",
        "n 3000000000\nedge 1 2999999999\navailable 1\ntargets 2999999999\n",
    ])
    def test_n_beyond_int32_node_ids(self, tmp_path, text, capsys):
        path = tmp_path / "huge.sys"
        path.write_text(text)
        assert main(["classify", str(path)]) == 2
        self.one_line_error(capsys, "n must be at most 1073741822")

    @pytest.mark.parametrize("horizon, dt, expected", [
        ("1e308", "1e-10", "too many to solve"),
        ("1e308", "1", "too many to solve"),
        ("1e308", "1e308", "overflow the sampled dynamics"),
    ])
    def test_track_step_count_out_of_reach(self, network_file, horizon, dt,
                                           expected, capsys):
        assert main(["track", network_file, "--horizon", horizon,
                     "--dt", dt]) == 2
        self.one_line_error(capsys, expected)

    def test_track_shorter_than_startup(self, steering_file, capsys):
        # the output of the steering example answers its inputs only after
        # three steps
        assert main(["track", steering_file, "--horizon", "0.2",
                     "--dt", "0.1"]) == 2
        self.one_line_error(capsys, "fewer than the 3 startup step(s)")

    @pytest.mark.parametrize("command", ["verify", "track"])
    def test_negative_seed(self, network_file, command, capsys):
        assert main([command, network_file, "--seed", "-1"]) == 2
        self.one_line_error(capsys, "seed must be a non-negative integer")


# --- fuzzing: any argv over any file exits 0, 1 or 2 and never raises ---

DEGENERATE = ["0", "-1", "nan", "inf", "1e308"]


@st.composite
def system_files(draw):
    """A small system with n <= 40, in the line format or as JSON; now and
    then its available and target nodes may fall just outside 1..n."""
    n = draw(st.integers(min_value=1, max_value=40))
    node = st.integers(min_value=1, max_value=n)
    spill = draw(st.sampled_from([0, 0, 0, 1]))
    member = st.integers(min_value=1 - spill, max_value=n + spill)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    available = draw(st.lists(member, max_size=6, unique=True))
    targets = draw(st.lists(member, max_size=4, unique=True))
    inputs = draw(st.lists(st.lists(node, min_size=1, max_size=3, unique=True),
                           max_size=3))
    outputs = draw(st.lists(st.lists(node, min_size=1, max_size=3, unique=True),
                            max_size=3))
    if draw(st.booleans()):
        return json.dumps({"n": n, "state_edges": edges, "available": available,
                           "targets": targets, "explicit_inputs": inputs,
                           "explicit_outputs": outputs}).encode()
    lines = [f"n {n}"] + [f"edge {i} {j}" for i, j in edges]
    lines.append("available " + " ".join(map(str, available)))
    lines.append("targets " + " ".join(map(str, targets)))
    lines += [f"input {k} " + " ".join(map(str, col))
              for k, col in enumerate(inputs, start=1)]
    lines += [f"output {k} " + " ".join(map(str, row))
              for k, row in enumerate(outputs, start=1)]
    return ("\n".join(lines) + "\n").encode()


def option(name, values):
    """``[name, value]`` for one of ``values``, or nothing."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, v]))


NODE_LISTS = st.lists(st.integers(min_value=-1, max_value=42).map(str),
                      min_size=1, max_size=3)
SEED = option("--seed", ["0", "7"] + DEGENERATE)
# --trials <= 3 and, away from the degenerate values, horizon / dt <= 200
# steps (the horizon is always given: the default of 5 is 500 steps at the
# default dt) keep every example quick
OPTIONS = {
    "check": st.tuples(
        st.one_of(st.just([]), NODE_LISTS.map(lambda v: ["--steering", *v])),
        st.one_of(st.just([]), NODE_LISTS.map(lambda v: ["--targets", *v]))),
    "solve": st.tuples(),
    "classify": st.tuples(),
    "linking": st.tuples(),
    "separator": st.tuples(),
    "structural": st.tuples(),
    "verify": st.tuples(SEED, option("--trials", ["1", "2", "3"] + DEGENERATE),
                        option("--tol", ["1e-9", "0.5"] + DEGENERATE)),
    "track": st.tuples(SEED, st.sampled_from(["0.5", "1", "2"] + DEGENERATE)
                       .map(lambda v: ["--horizon", v]),
                       option("--dt", ["0.01", "0.05", "0.1"] + DEGENERATE),
                       option("--out", ["OUT", "MISSING"])),
    "export-dot": st.tuples(st.sampled_from([[], ["--classify"]]),
                            option("--out", ["OUT", "MISSING"])),
}


@st.composite
def invocations(draw):
    """A subcommand, its options, and the file it reads: the path of a
    sample, or the bytes (a generated system or random ones) of a file the
    test writes."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    args = [a for group in draw(OPTIONS[command]) for a in group]
    if draw(st.booleans()):
        args.append("--json")
    source = draw(st.one_of(st.sampled_from(SAMPLES), system_files(),
                            st.binary(max_size=64)))
    return command, args, source


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFuzz:
    @settings(max_examples=500, deadline=None)
    @given(invocations())
    def test_exit_code_contract(self, fuzz_dir, invocation):
        command, args, source = invocation
        if isinstance(source, bytes):
            path = fuzz_dir / "input.sys"
            path.write_bytes(source)
            source = str(path)
        args = [str(fuzz_dir / "out") if a == "OUT" else
                str(fuzz_dir / "missing" / "out") if a == "MISSING" else a
                for a in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, source, *args])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
