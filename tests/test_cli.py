"""Front-end behavior: artifacts, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import continua
from continua.cantor import build_ternary_map
from continua.cli import dump_json, main
from continua.continuum import YModel, build_arc_model, identity_homeo
from continua.plmap import PLHomeo, canonical_r, wandering_intervals


def run(argv):
    return main([str(a) for a in argv])


def run_process(argv):
    """The CLI in a fresh interpreter: (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(continua.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "continua.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    return proc.returncode, proc.stderr


@pytest.fixture()
def map_file(tmp_path):
    def write(f, name="map.json"):
        path = tmp_path / name
        path.write_text(dump_json(f.to_json()))
        return path

    return write


class TestBuildFstar:
    def test_round_trip_bit_exact(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["build-fstar", "--depth", 2, "--out", out]) == 0
        parsed = PLHomeo.from_json(json.loads(out.read_text()))
        assert parsed == build_ternary_map(2)

    def test_depth_one_interval_list(self, tmp_path):
        out = tmp_path / "f.json"
        run(["build-fstar", "--depth", 1, "--out", out])
        f = PLHomeo.from_json(json.loads(out.read_text()))
        ivs = wandering_intervals(f)
        assert [(iv.a, iv.b, iv.orientation.value) for iv in ivs] == [
            (F(1, 9), F(2, 9), "L"),
            (F(1, 3), F(2, 3), "R"),
            (F(7, 9), F(8, 9), "L"),
        ]

    def test_depth_zero_svg_single_right_mark(self, tmp_path):
        out = tmp_path / "f.svg"
        assert run(["build-fstar", "--depth", 0, "--out", out, "--format", "svg"]) == 0
        svg = out.read_text()
        assert svg.count('fill="#c0392b"') == 1
        assert svg.count('fill="#2e6da4"') == 0


class TestCheckPeps:
    def test_satisfied(self, tmp_path, map_file):
        path = map_file(build_ternary_map(2))
        out = tmp_path / "w.json"
        assert run(["check-peps", path, "--epsilon", "1/8", "--out", out]) == 0
        witness = json.loads(out.read_text())
        assert witness["intervals"]

    def test_unsatisfied(self, map_file):
        path = map_file(build_ternary_map(1))
        assert run(["check-peps", path, "--epsilon", "1/4"]) == 1

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nonsense": 1}')
        assert run(["check-peps", bad, "--epsilon", "1/8"]) == 2

    def test_invalid_rational(self, map_file):
        path = map_file(build_ternary_map(1))
        assert run(["check-peps", path, "--epsilon", "1/0"]) == 2

    def test_zero_denominator_in_map_is_input_error(self, tmp_path):
        obj = canonical_r(0, 1).to_json()
        obj["values"][1] = ["1", "0"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, err = run_process(["check-peps", bad, "--epsilon", "1/8"])
        assert code == 2
        assert "Traceback" not in err


class TestShadow:
    def test_worked_example(self, tmp_path, map_file):
        path = map_file(canonical_r(0, 1))
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,point\n0,1/10\n1,1/5\n")
        out = tmp_path / "s.json"
        assert (
            run(["shadow", "--map", path, "--orbit", orbit, "--epsilon", "1/20", "--out", out])
            == 0
        )
        got = json.loads(out.read_text())
        assert got["intervals"] == [[["1", "10"], ["3", "20"]]]

    def test_true_orbit_contains_start(self, tmp_path, map_file):
        path = map_file(canonical_r(0, 1))
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,point\n0,1/10\n1,3/20\n")
        out = tmp_path / "s.json"
        assert run(["shadow", "--map", path, "--orbit", orbit, "--epsilon", "1/50", "--out", out]) == 0
        (iv,) = json.loads(out.read_text())["intervals"]
        lo, hi = F(*map(int, iv[0])), F(*map(int, iv[1]))
        assert lo <= F(1, 10) <= hi

    def test_empty_result_exit_code(self, tmp_path, map_file):
        path = map_file(canonical_r(0, 1))
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,point\n0,1/10\n1,9/10\n")
        assert run(["shadow", "--map", path, "--orbit", orbit, "--epsilon", "1/100"]) == 1

    def test_short_row_is_input_error(self, tmp_path, map_file):
        path = map_file(canonical_r(0, 1))
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,point\n0\n")
        code, err = run_process(["shadow", "--map", path, "--orbit", orbit, "--epsilon", "1/20"])
        assert code == 2
        assert "Traceback" not in err

    def test_space_mismatch_is_input_error(self, tmp_path, map_file):
        path = map_file(canonical_r(0, 1))
        y_orbit = tmp_path / "y_orbit.csv"
        y_orbit.write_text("index,arc,t\n0,h1,1/2\n1,h1,1/2\n")
        assert run(["shadow", "--map", path, "--orbit", y_orbit, "--epsilon", "1/10"]) == 2
        model_path = tmp_path / "y.json"
        run(["build-y", "--segments", 2, "--out", model_path])
        i_orbit = tmp_path / "i_orbit.csv"
        i_orbit.write_text("index,point\n0,1/10\n1,1/5\n")
        assert (
            run(["shadow", "--model", model_path, "--orbit", i_orbit, "--epsilon", "1/10"])
            == 2
        )

    def test_model_witness(self, tmp_path):
        model_path = tmp_path / "y.json"
        run(["build-y", "--segments", 2, "--out", model_path])
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,arc,t\n0,h2,1/2\n1,h2,7/12\n")
        out = tmp_path / "w.json"
        code = run(
            [
                "shadow",
                "--model",
                model_path,
                "--depth",
                1,
                "--orbit",
                orbit,
                "--epsilon",
                "1/10",
                "--out",
                out,
            ]
        )
        assert code == 0
        w = json.loads(out.read_text())
        assert w["arc"] in {"h1", "h2", "circle", "v1", "v2"}


class TestExplodeConjugate:
    def test_explode_writes_map(self, tmp_path, map_file):
        path = map_file(build_ternary_map(1))
        out = tmp_path / "g.json"
        code = run(
            ["explode", path, "--point", "1/18", "--radius", "1/54", "--orient", "L", "--out", out]
        )
        assert code == 0
        g = PLHomeo.from_json(json.loads(out.read_text()))
        assert len(wandering_intervals(g)) == 4

    def test_explode_rejects_moving_point(self, map_file):
        path = map_file(canonical_r(0, 1))
        assert run(["explode", path, "--point", "1/2", "--radius", "1/4", "--orient", "R"]) == 1

    def test_conjugate_report(self, tmp_path, map_file):
        path = map_file(build_ternary_map(2))
        out = tmp_path / "report.json"
        assert run(["conjugate", path, "--depth", 2, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert len(report["matched"]) == 3
        assert report["residual"] == ["1", "108"]

    def test_conjugate_identity_unsatisfied(self, tmp_path, map_file):
        from continua.plmap import identity

        path = map_file(identity())
        assert run(["conjugate", path, "--depth", 1]) == 1


class TestModulus:
    def test_output_and_determinism(self, tmp_path, map_file):
        path = map_file(build_ternary_map(1))
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = [path, "--epsilon", "1/10", "--trials", 40, "--seed", 3]
        assert run(["modulus", *args, "--out", out1]) == 0
        assert run(["modulus", *args, "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        obj = json.loads(out1.read_text())
        assert F(*map(int, obj["delta"])) > 0


class TestBuildYAndRender:
    def test_model_json_round_trip(self, tmp_path):
        out = tmp_path / "y.json"
        assert run(["build-y", "--segments", 3, "--out", out]) == 0
        model = YModel.from_json(json.loads(out.read_text()))
        assert model.M == 3
        assert model.to_json() == build_arc_model(3).to_json()

    def test_render_model_with_dynamics(self, tmp_path):
        y = tmp_path / "y.json"
        run(["build-y", "--segments", 2, "--out", y])
        g = tmp_path / "g.json"
        from continua.continuum import build_arcwise_map

        g.write_text(dump_json(build_arcwise_map(build_arc_model(2), 1).to_json()))
        out = tmp_path / "y.svg"
        assert run(["render", y, "--homeo", g, "--out", out]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg") and "#c0392b" in svg

    def test_render_map(self, tmp_path):
        f = tmp_path / "f.json"
        run(["build-fstar", "--depth", 1, "--out", f])
        out = tmp_path / "f.svg"
        assert run(["render", f, "--out", out]) == 0
        assert out.read_text().startswith("<svg")


class TestCertify:
    def test_identity_dynamics_cover_failure(self, tmp_path):
        y = tmp_path / "y.json"
        run(["build-y", "--segments", 2, "--out", y])
        g = tmp_path / "id.json"
        g.write_text(dump_json(identity_homeo(build_arc_model(2)).to_json()))
        out = tmp_path / "bundle.json"
        code = run(
            [
                "certify",
                "--model",
                y,
                "--homeo",
                g,
                "--epsilon",
                "1/10",
                "--trials",
                10,
                "--seed",
                1,
                "--out",
                out,
            ]
        )
        assert code == 3
        bundle = json.loads(out.read_text())
        assert bundle["status"] == "cover failure"
        assert bundle["uncovered"]

    def test_generous_epsilon_passes_and_is_deterministic(self, tmp_path):
        outs = []
        for name in ("b1.json", "b2.json"):
            out = tmp_path / name
            code = run(
                [
                    "certify",
                    "--segments",
                    2,
                    "--depth",
                    3,
                    "--epsilon",
                    "10",
                    "--trials",
                    15,
                    "--seed",
                    1,
                    "--out",
                    out,
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        bundle = json.loads(outs[0])
        assert bundle["status"] == "ok"
        assert bundle["sampling"]["global_failures"] == []
