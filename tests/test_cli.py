import collections.abc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bpblab
from bpblab import bpbverify
from bpblab.bpbverify import DEFAULT_RESOLUTION, SWEEP_PAIRS, verify_uniform_bpb
from bpblab.cli import main
from bpblab.errors import MalformedInputError
from bpblab.jsonio import parse_operator, parse_space, to_json


@pytest.fixture
def op_file(tmp_path):
    def write(name, rows, dom, cod):
        path = tmp_path / name
        path.write_text(
            json.dumps({"rows": rows, "domain": dom, "codomain": cod})
        )
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


LINF2 = {"p": "inf", "n": 2}


class TestNormCommand:
    def test_norm_and_witness(self, op_file, capsys):
        f = op_file("t.json", [[1, 0], [1, 0]], LINF2, LINF2)
        code, doc = run(capsys, ["norm", "--operator", f, "--no-timestamp"])
        assert code == 0
        assert doc["norm"] == 1.0

    def test_malformed_exponent_names_field(self, op_file, capsys):
        f = op_file("bad.json", [[1, 0], [0, 1]], {"p": "zero", "n": 2}, LINF2)
        code = main(["norm", "--operator", f])
        assert code == 2
        err = capsys.readouterr().err
        assert "domain.p" in err

    @pytest.mark.parametrize("p", ["1e400", float("-inf")])
    def test_exponent_beyond_the_floats_names_field(self, op_file, capsys, p):
        # "1e400" was accepted and norm died in lp_circle with an
        # OverflowError traceback and exit 1; -Infinity was read as inf
        f = op_file("big.json", [[1, 0], [0, 1]], {"p": p, "n": 2}, LINF2)
        assert main(["norm", "--operator", f, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "operator.domain.p" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("side", ["domain", "codomain"])
    def test_bool_dimension_names_field(self, op_file, capsys, side):
        # rows of the shape that n = 1 gives: this ran with exit 0
        spaces = {"domain": LINF2, "codomain": LINF2}
        spaces[side] = {"p": "inf", "n": True}
        rows = [[1], [0]] if side == "domain" else [[1, 0]]
        f = op_file("bad.json", rows, spaces["domain"], spaces["codomain"])
        assert main(["norm", "--operator", f, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"operator.{side}.n" in captured.err

    def test_parse_space_refuses_bool_dimension(self):
        with pytest.raises(MalformedInputError) as exc:
            parse_space({"p": "2", "n": True}, "T.domain")
        assert exc.value.field == "T.domain.n"

    def test_shape_mismatch_names_field(self, op_file, capsys):
        f = op_file("bad.json", [[1, 0]], LINF2, LINF2)
        code = main(["norm", "--operator", f])
        assert code == 2
        assert "rows" in capsys.readouterr().err


class TestAttainAndRoundTrip:
    def test_faces_serialization(self, op_file, capsys):
        f = op_file("t.json", [[1, 0], [1, 0]], LINF2, LINF2)
        code, doc = run(capsys, ["attain", "--operator", f, "--no-timestamp"])
        assert code == 0
        assert doc["kind"] == "faces"
        assert sorted(doc["faces"]) == ["+0", "-0"]

    def test_operator_json_round_trip(self):
        import bpblab

        T = bpblab.operator([[1.0, 0.5], [0.0, -1.0]], bpblab.linf(2), bpblab.l1(2))
        back = parse_operator(to_json(T))
        assert back.close_to(T)
        assert back.domain == T.domain and back.codomain == T.codomain


class TestVerifyCommand:
    def test_certified_exit_zero(self, op_file, capsys, tmp_path):
        f = op_file("t.json", [[1, 0], [1, 0]], LINF2, LINF2)
        code, approx_doc = run(
            capsys,
            ["approx", "--operator", f, "--eps", "0.2", "--construction", "linf", "--no-timestamp"],
        )
        assert code == 0
        a_path = tmp_path / "a.json"
        a_path.write_text(json.dumps(approx_doc["approximant"]))
        code, doc = run(
            capsys,
            ["verify", "--T", f, "--A", str(a_path), "--eps", "0.2", "--no-timestamp"],
        )
        assert code == 0
        assert doc["status"] == "certified" and doc["delta_found"] > 0

    def test_falsified_exit_one(self, op_file, capsys):
        t = op_file("t.json", [[1, 0], [0, 0.97]], {"p": "2", "n": 2}, {"p": "2", "n": 2})
        a = op_file("a.json", [[0.97, 0], [0, 1]], {"p": "2", "n": 2}, {"p": "2", "n": 2})
        code, doc = run(capsys, ["verify", "--T", t, "--A", a, "--eps", "0.5", "--no-timestamp"])
        assert code == 1
        assert doc["status"] == "falsified"
        assert doc["counterexample"] is not None


class TestEnumerationCommands:
    def test_census(self, capsys):
        code, doc = run(capsys, ["enumerate-ext", "--pair", "linf3-l13", "--no-timestamp"])
        assert code == 0
        assert doc["count"] == 90
        assert doc["orbits"] == [18, 72]

    def test_isometries(self, capsys):
        code, doc = run(capsys, ["isometries", "--p", "3", "--n", "2", "--no-timestamp"])
        assert code == 0
        assert doc["count"] == 8

    @pytest.mark.parametrize("value", ["abc", "1/0", "nan", "0.5", "1e400"])
    def test_isometries_bad_exponent_names_flag(self, capsys, value):
        # "abc" and "1/0" died with a traceback and exit 1; "1e400" exited 0
        with pytest.raises(SystemExit) as exc:
            main(["isometries", "--p", value, "--n", "2", "--no-timestamp"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--p" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["0", "-1", "two", "2.5"])
    def test_isometries_bad_dimension_names_flag(self, capsys, value):
        # "0" was refused without naming the flag
        with pytest.raises(SystemExit) as exc:
            main(["isometries", "--p", "inf", "--n", value, "--no-timestamp"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--n" in captured.err

    @pytest.mark.parametrize("value", ["2", "1", "0", "-3", "3.5", "inf", "x"])
    def test_epsilon0_bad_exponent_names_flag(self, capsys, value):
        # "2" was refused without naming the flag
        with pytest.raises(SystemExit) as exc:
            main(["epsilon0", "--p", value, "--no-timestamp"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--p" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--pair", "l21", "--seed", "1"], ["sweep", "--pair", "linf1", "--seed", "1"],
         ["enumerate-ext", "--pair", "linf2-l12"]],
    )
    def test_unknown_pair_names_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--no-timestamp"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--pair" in captured.err

    @pytest.mark.parametrize("name", sorted(SWEEP_PAIRS))
    def test_sweep_reads_its_spaces_from_the_table(self, capsys, name):
        # every constructor refuses eps = 2.5: one failure, no verification
        argv = ["sweep", "--pair", name, "--trials", "1", "--seed", "1", "--eps-list", "2.5"]
        code, doc = run(capsys, argv + ["--no-timestamp"])
        pair = SWEEP_PAIRS[name]
        assert code == 1 and doc["total"] == 1 and len(doc["failures"]) == 1
        assert doc["pair"] == [str(pair.domain), str(pair.codomain)]

    def test_orbit(self, op_file, capsys):
        f = op_file("id.json", [[1, 0], [0, 1]], LINF2, LINF2)
        code, doc = run(capsys, ["orbit", "--operator", f, "--no-timestamp"])
        assert code == 0
        assert doc["size"] == 8

    def test_orbit_of_a_non_square_operator_exits_two(self, op_file, capsys):
        f = op_file("wide.json", [[1, 0, 0], [0, 1, 0]], {"p": "inf", "n": 3}, {"p": 1, "n": 2})
        assert main(["orbit", "--operator", f, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "2 x 3" in captured.err

    def test_epsilon0(self, capsys):
        code, doc = run(capsys, ["epsilon0", "--p", "3", "--no-timestamp"])
        assert code == 0
        assert doc["separation"] == pytest.approx(2 ** (2 / 3))
        assert doc["eps0"] == min(doc["separation"], doc["delta1"])


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, op_file, capsys):
        f = op_file("t.json", [[1, 0], [1, 0]], LINF2, LINF2)
        out = []
        for _ in range(2):
            main(["attain", "--operator", f, "--no-timestamp"])
            out.append(capsys.readouterr().out)
        assert out[0] == out[1]

    def test_seeded_sweep_deterministic(self, capsys):
        out = []
        for _ in range(2):
            code = main(
                [
                    "sweep",
                    "--pair",
                    "linf2",
                    "--eps-list",
                    "0.2",
                    "--trials",
                    "3",
                    "--seed",
                    "7",
                    "--no-timestamp",
                ]
            )
            assert code == 0
            out.append(capsys.readouterr().out)
        assert out[0] == out[1]

    def test_seed_required_for_sweep(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--pair", "linf2"])
        assert exc.value.code == 2


class TestClassifyCommand:
    def test_extreme_verdict(self, op_file, capsys):
        f = op_file(
            "c.json",
            [[0.5, 0.5], [0.5, -0.5]],
            {"p": "inf", "n": 2},
            {"p": "1", "n": 2},
        )
        code, doc = run(capsys, ["classify", "--operator", f, "--no-timestamp"])
        assert code == 0
        assert doc["extremality"]["status"] == "extreme"

    def test_row_condition_reported(self, op_file, capsys):
        f = op_file("t.json", [[1, 0], [1, 0]], LINF2, LINF2)
        code, doc = run(capsys, ["classify", "--operator", f, "--no-timestamp"])
        assert code == 0
        assert doc["row_condition"] is True
        assert doc["is_isometry"] is False

    def test_seed_flag_is_refused(self, op_file, capsys):
        f = op_file("t.json", [[1, 0], [1, 0]], LINF2, LINF2)
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--operator", f, "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestWitnessCommand:
    def test_hilbert_witness(self, op_file, capsys):
        f = op_file(
            "d.json", [[1, 0], [0, 0.5]], {"p": "2", "n": 2}, {"p": "2", "n": 2}
        )
        code, doc = run(capsys, ["witness-p", "--operator", f, "--no-timestamp"])
        assert code == 0
        assert doc["r0"] == 1.0


class TestDemoCommand:
    def test_all_checks_pass(self, capsys):
        code, doc = run(capsys, ["demo", "--no-timestamp"])
        assert code == 0
        assert doc["failed"] == 0
        assert all(c["passed"] for c in doc["checks"])


class RecordingEnviron(collections.abc.MutableMapping):
    """os.environ that records every key read and whether it was iterated."""

    def __init__(self, env):
        self.env, self.read, self.iterated = dict(env), set(), False

    def __getitem__(self, key):
        self.read.add(key)
        return self.env[key]

    def __setitem__(self, key, value):
        self.env[key] = value

    def __delitem__(self, key):
        del self.env[key]

    def __iter__(self):
        self.iterated = True
        return iter(self.env)

    def __len__(self):
        return len(self.env)


class TestDefaultResolution:
    def test_no_flag_runs_at_the_default_resolution(self, op_file, capsys):
        f = op_file(
            "d.json", [[1, 0], [0, 0.5]], {"p": "4", "n": 2}, {"p": "4", "n": 2}
        )
        code, doc = run(capsys, ["verify", "--T", f, "--A", f, "--eps", "0.1", "--no-timestamp"])
        assert code == 0
        assert doc["resolution"] == DEFAULT_RESOLUTION

    def test_sweep_without_the_flag_verifies_at_the_default_resolution(self, capsys, monkeypatch):
        seen = []

        def spy(T, A, eps, resolution):
            seen.append(resolution)
            return verify_uniform_bpb(T, A, eps, resolution=resolution)

        monkeypatch.setattr(bpbverify, "verify_uniform_bpb", spy)
        code, _ = run(capsys, ["sweep", "--pair", "l22", "--trials", "2", "--seed", "1",
                               "--no-timestamp"])
        assert code == 0 and seen == [DEFAULT_RESOLUTION] * 2

    def test_no_environment_variable_is_read(self, op_file, capsys, monkeypatch):
        # the resolution came from an environment variable when no flag was given
        env = RecordingEnviron(os.environ)
        monkeypatch.setattr(os, "environ", env)
        f = op_file("t.json", [[1, 0], [0, 0.5]], {"p": "4", "n": 2}, {"p": "4", "n": 2})
        for argv in (["verify", "--T", f, "--A", f, "--eps", "0.1"],
                     ["sweep", "--pair", "linf2", "--trials", "1", "--seed", "0"],
                     ["attain", "--operator", f]):
            assert main(argv + ["--no-timestamp"]) == 0
        capsys.readouterr()
        assert not env.iterated and not any(k.startswith("BPBLAB") for k in env.read), env.read


class TestResolutionBoundaries:
    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_flag_below_one_rejected(self, op_file, capsys, value):
        f = op_file("t.json", [[1, 0], [1, 0]], LINF2, LINF2)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--T", f, "--A", f, "--eps", "0.1", "--resolution", value])
        assert exc.value.code == 2
        assert "--resolution" in capsys.readouterr().err

    def test_lp2_resolution_one_exits_two_naming_resolution(self, op_file, capsys):
        # the l_p^2 search has one grid, so neither command takes the flag
        lp3 = {"p": "3", "n": 2}
        f = op_file("t.json", [[1, 0], [0, 0.5]], lp3, lp3)
        for command in ("attain", "witness-p"):
            for value in ("1", "256"):
                with pytest.raises(SystemExit) as exc:
                    main([command, "--operator", f, "--resolution", value, "--no-timestamp"])
                assert exc.value.code == 2
                captured = capsys.readouterr()
                assert captured.out == "" and "--resolution" in captured.err

    @pytest.mark.parametrize("pair", ["linf2", "l22", "linf3-l13"])
    @pytest.mark.parametrize("value", ["-3", "0", "two"])
    def test_sweep_trials_below_one_rejected(self, capsys, pair, value):
        # a sweep over no operators printed "total": 0 and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--pair", pair, "--trials", value, "--seed", "1", "--no-timestamp"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--trials" in captured.err

    @pytest.mark.parametrize("pair", ["linf2", "l22", "linf3-l13"])
    @pytest.mark.parametrize("value", ["-1", "1.5", "seven"])
    def test_sweep_seed_below_zero_rejected(self, capsys, pair, value):
        # -1 reached numpy and exited 1 with a ValueError traceback
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--pair", pair, "--trials", "1", "--seed", value, "--no-timestamp"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--seed" in captured.err

    def test_sweep_seed_zero_is_accepted(self, capsys):
        code, doc = run(capsys, ["sweep", "--pair", "linf2", "--trials", "1", "--seed", "0",
                                 "--no-timestamp"])
        assert code == 0 and doc["total"] == 1


class TestNonFiniteInput:
    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_names_rows(self, tmp_path, capsys, entry):
        path = tmp_path / "t.json"
        path.write_text(
            '{"rows": [[1, %s], [0, 1]], "domain": {"p": "inf", "n": 2}, '
            '"codomain": {"p": "inf", "n": 2}}' % entry
        )
        assert main(["norm", "--operator", str(path), "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "operator.rows" in captured.err

    @pytest.mark.parametrize("command", ["verify", "approx"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "0", "-0.5", "x"])
    def test_eps_must_be_finite_and_positive(self, op_file, capsys, command, value):
        f = op_file("t.json", [[1, 0], [1, 0]], LINF2, LINF2)
        if command == "verify":
            argv = ["verify", "--T", f, "--A", f, "--eps", value]
        else:
            argv = ["approx", "--operator", f, "--construction", "linf", "--eps", value]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--no-timestamp"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--eps" in captured.err

    @pytest.mark.parametrize("value", ["0.2,inf", "nan", "0.2,0", ","])
    def test_eps_list_items_must_be_finite_and_positive(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--pair", "linf2", "--seed", "1", "--eps-list", value])
        assert exc.value.code == 2
        assert "--eps-list" in capsys.readouterr().err


class TestEnumerationGuards:
    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"enumeration of size {n} started")

        monkeypatch.setattr("bpblab.classify.all_signed_permutations", refuse)

    def test_isometries_refuse_n8_before_building(self, capsys):
        # 2^8 * 8! = 10,321,920 matrices
        assert main(["isometries", "--p", "3", "--n", "8", "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert "n = 8" in err and "1000000" in err

    def test_orbit_refuses_n5_before_building(self, op_file, capsys):
        # (2^5 * 5!)^2 = 14,745,600 products
        l1_5 = {"p": "1", "n": 5}
        f = op_file("t.json", np.eye(5).tolist(), l1_5, l1_5)
        assert main(["orbit", "--operator", f, "--no-timestamp"]) == 2
        assert "n = 5" in capsys.readouterr().err


def _write_json(tmp_path, doc):
    path = tmp_path / "op.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _op(**changes):
    """An l_inf^2 operator document with `changes`; a None value drops the key."""
    doc = {"rows": [[1, 0], [1, 0]], "domain": LINF2, "codomain": LINF2}
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


# one case per MalformedInputError raise of jsonio: (file contents, field,
# message)
JSON_REFUSALS = {
    "space_not_an_object": (_op(domain="inf"), "operator.domain", "expected an object"),
    "missing_p": (_op(codomain={"n": 2}), "operator.codomain.p", "missing exponent"),
    "operator_not_an_object": ([[1, 0], [1, 0]], "operator", "expected an object"),
    "empty_rows": (_op(rows=[]), "operator.rows", "expected a nonempty"),
    "ragged_rows": (_op(rows=[[1, 0], [1]]), "operator.rows", "rows must be numeric"),
    "rows_not_a_matrix": (_op(rows=[1, 0]), "operator.rows", "rows must form a matrix"),
    "missing_domain": (_op(domain=None), "operator.domain", "missing domain"),
    "missing_codomain": (_op(codomain=None), "operator.codomain", "missing codomain"),
    "missing_file": (None, "operator", "file not found"),
    "invalid_json": ('{"rows": [[1, 0], [1, 0]', "operator", "invalid JSON"),
    # numpy read a string entry as its number and true as 1.0
    "string_entry": (_op(rows=[["0.5", " 2 "], [1, 0]]), "operator.rows", "entries must be finite numbers"),
    "bool_entry": (_op(rows=[[True, 0], [1, 0]]), "operator.rows", "entries must be finite numbers"),
    # Fraction(True) read as p = 1
    "bool_exponent": (_op(domain={"p": True, "n": 2}), "operator.domain.p", "exponent must be a number"),
}


@pytest.mark.parametrize("case", sorted(JSON_REFUSALS))
def test_json_refusal_exits_two_naming_the_field(case, tmp_path, capsys):
    doc, field, message = JSON_REFUSALS[case]
    path = str(tmp_path / "absent.json") if doc is None else _write_json(tmp_path, doc)
    assert main(["norm", "--operator", path, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {field}: {message}")


@pytest.mark.parametrize("kind", ["directory", "binary"])
def test_an_unreadable_operator_file_exits_two_naming_the_field(kind, tmp_path, capsys):
    # IsADirectoryError and UnicodeDecodeError printed a traceback, exit 1
    path = tmp_path / "op.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
    assert main(["norm", "--operator", str(path), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: operator: cannot read {path}")


def test_an_unwritable_output_exits_two_naming_the_flag(op_file, tmp_path, capsys):
    # FileNotFoundError printed a traceback, exit 1
    f = op_file("t.json", [[1, 0], [1, 0]], LINF2, LINF2)
    target = tmp_path / "missing" / "x.json"
    assert main(["norm", "--operator", f, "--output", str(target), "--no-timestamp"]) == 2
    assert capsys.readouterr().err.startswith(f"error: --output: cannot write {target}")
    assert not target.parent.exists()


def test_closed_pipe_exits_one_without_a_traceback():
    # `bpblab isometries --p inf --n 5 | head -1`: its 1.6 MB of output
    # overflow the pipe, so the write fails once the reader has gone
    path = os.pathsep.join(filter(None, [str(Path(bpblab.__file__).parent.parent),
                                         os.environ.get("PYTHONPATH")]))
    argv = ["isometries", "--p", "inf", "--n", "5", "--no-timestamp"]
    proc = subprocess.Popen([sys.executable, "-m", "bpblab.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""
