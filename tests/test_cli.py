import json

import numpy as np
import pytest

from bpblab.cli import main
from bpblab.jsonio import operator_to_json, parse_operator


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
        back = parse_operator(operator_to_json(T))
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

    def test_orbit(self, op_file, capsys):
        f = op_file("id.json", [[1, 0], [0, 1]], LINF2, LINF2)
        code, doc = run(capsys, ["orbit", "--operator", f, "--no-timestamp"])
        assert code == 0
        assert doc["size"] == 8

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


class TestEnvResolution:
    def test_env_default_honored(self, op_file, capsys, monkeypatch):
        monkeypatch.setenv("BPBLAB_DEFAULT_RESOLUTION", "256")
        f = op_file(
            "d.json", [[1, 0], [0, 0.5]], {"p": "4", "n": 2}, {"p": "4", "n": 2}
        )
        code, doc = run(capsys, ["attain", "--operator", f, "--no-timestamp"])
        assert code == 0
        assert doc["kind"] == "points"


class TestResolutionBoundaries:
    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_flag_below_one_rejected(self, op_file, capsys, value):
        f = op_file("t.json", [[1, 0], [1, 0]], LINF2, LINF2)
        with pytest.raises(SystemExit) as exc:
            main(["attain", "--operator", f, "--resolution", value])
        assert exc.value.code == 2
        assert "--resolution" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", ["linf2", "l22", "linf3-l13"])
    @pytest.mark.parametrize("value", ["-3", "0", "two"])
    def test_sweep_trials_below_one_rejected(self, capsys, pair, value):
        # a sweep over no operators printed "total": 0 and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--pair", pair, "--trials", value, "--seed", "1", "--no-timestamp"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--trials" in captured.err

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_env_default_names_variable(self, op_file, capsys, monkeypatch, value):
        monkeypatch.setenv("BPBLAB_DEFAULT_RESOLUTION", value)
        f = op_file("t.json", [[1, 0], [1, 0]], LINF2, LINF2)
        assert main(["attain", "--operator", f, "--no-timestamp"]) == 2
        assert "BPBLAB_DEFAULT_RESOLUTION" in capsys.readouterr().err


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
