"""Command-line interface: grammar, exit codes, JSON stability."""

import json

import pytest

from netctrl.cli import main

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
        assert out == {
            "x1": "essential", "x2": "useful", "x3": "useless", "x4": "useful"
        }

    def test_unsolvable_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        path.write_text("n 3\navailable 1\ntargets 3\n")
        assert main(["classify", str(path)]) == 1
        assert "UNSOLVABLE" in capsys.readouterr().out


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
