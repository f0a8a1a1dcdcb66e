"""Front-end behavior: artifacts, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import continua
from continua import shadowing
from continua.cantor import build_ternary_map, explode_fixed_point
from continua.cli import MAX_DEPTH, MAX_SEGMENTS, MAX_TRIALS, build_parser, dump_json, main
from continua.continuum import YHomeo, YPoint, build_arc_model, build_arcwise_map
from continua.plmap import (
    Orientation,
    PLHomeo,
    canonical_r,
    compose,
    identity,
    invert,
    wandering_intervals,
)
from continua.shadowing import generate_pseudo_orbit, generate_pseudo_orbit_y

from conftest import edge_enriched_map, identity_homeo, orbit_to_csv, semi_stable_map


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
        f, out = tmp_path / "f.json", tmp_path / "f.svg"
        assert run(["build-fstar", "--depth", 0, "--out", f]) == 0
        assert run(["render", f, "--out", out]) == 0
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

    @pytest.mark.parametrize("bad", [float("inf"), 1.5, True])
    def test_non_integer_pair_component_is_input_error(self, tmp_path, bad):
        # [1.5, 4] and [true, 4] used to be read as 1/4, answering for another map
        obj = canonical_r(0, 1).to_json()
        obj["values"][1] = [bad, "4"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, err = run_process(["check-peps", path, "--epsilon", "1/8"])
        assert code == 2
        assert "is not a decimal integer" in err and "Traceback" not in err

    def test_short_domain_field_is_input_error(self, tmp_path):
        obj = canonical_r(0, 1).to_json()
        obj["domain"] = obj["domain"][:1]
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

    def test_delta_flag_refused(self, tmp_path, map_file):
        # shadowing sets depend only on the orbit and epsilon: there is no --delta
        path = map_file(canonical_r(0, 1))
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,point\n0,1/10\n1,1/5\n")
        code, err = run_process(
            ["shadow", "--map", path, "--orbit", orbit, "--epsilon", "1/20", "--delta", "1/3"]
        )
        assert code == 2
        assert "unrecognized arguments: --delta" in err and "Traceback" not in err

    def test_space_mismatch_is_input_error(self, tmp_path, map_file):
        path = map_file(canonical_r(0, 1))
        y_orbit = tmp_path / "y_orbit.csv"
        y_orbit.write_text("index,arc,t\n0,h1,1/2\n1,h1,1/2\n")
        assert run(["shadow", "--map", path, "--orbit", y_orbit, "--epsilon", "1/10"]) == 2
        i_orbit = tmp_path / "i_orbit.csv"
        i_orbit.write_text("index,point\n0,1/10\n1,1/5\n")
        assert run(["shadow", "--segments", 2, "--orbit", i_orbit, "--epsilon", "1/10"]) == 2

    @pytest.mark.parametrize("flag", ["--segments", "--homeo"])
    def test_map_refuses_model_flags(self, tmp_path, map_file, flag):
        # a model flag next to --map, naming a file that exists or not, is a
        # conflict, not something to ignore or to let win
        path = map_file(canonical_r(0, 1))
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,point\n0,1/10\n1,1/5\n")
        homeo = tmp_path / "h.json"
        homeo.write_text(dump_json(build_arcwise_map(build_arc_model(2), 1).to_json()))
        values = {"--segments": [2], "--homeo": [homeo, tmp_path / "missing.json"]}[flag]
        for other in values:
            argv = ["shadow", "--map", path, flag, other, "--orbit", orbit, "--epsilon", "1/20"]
            code, err = run_process(argv)
            assert code == 2
            assert f"input error: {flag} cannot be combined with --map" in err
            assert "Traceback" not in err

    def test_map_refuses_depth(self, tmp_path, map_file):
        # --depth picks the arcwise map of a model; a map file has no use for it
        path = map_file(canonical_r(0, 1))
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,point\n0,1/10\n1,1/5\n")
        argv = ["shadow", "--map", path, "--depth", 5, "--orbit", orbit, "--epsilon", "1/20"]
        code, err = run_process(argv)
        assert code == 2
        assert "input error: --depth cannot be combined with --map" in err
        assert "Traceback" not in err

    def test_model_depth_defaults_to_three(self, tmp_path, capsys):
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,arc,t\n0,h2,1/2\n1,h2,7/12\n2,h2,2/3\n")
        argv = ["shadow", "--segments", 2, "--orbit", orbit, "--epsilon", "1/10"]
        outputs = []
        for extra in ([], ["--depth", 3]):
            outputs.append((run([*argv, *extra]), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0][1] != "null\n"

    def test_model_witness(self, tmp_path):
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,arc,t\n0,h2,1/2\n1,h2,7/12\n")
        out = tmp_path / "w.json"
        argv = ["shadow", "--segments", 2, "--depth", 1, "--orbit", orbit, "--epsilon", "1/10"]
        assert run([*argv, "--out", out]) == 0
        w = json.loads(out.read_text())
        assert w["arc"] in {"h1", "h2", "circle", "v1", "v2"}

    def test_model_orbit_without_witness(self, tmp_path):
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,arc,t\n0,h1,1/2\n1,v2,1\n")
        out = tmp_path / "w.json"
        argv = ["shadow", "--segments", 2, "--depth", 2, "--orbit", orbit]
        assert run([*argv, "--epsilon", "1/100", "--out", out]) == 1
        assert out.read_text() == "null\n"


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
        path = map_file(identity())
        assert run(["conjugate", path, "--depth", 1]) == 1
        code, err = run_process(["conjugate", path, "--depth", 1])
        assert code == 1
        assert err.splitlines() == [
            "insufficient intervals: round 1: no R interval inside gap (0, 1)"
        ]

    def test_conjugate_off_the_unit_interval(self, map_file):
        path = map_file(canonical_r(0, 2))
        code, err = run_process(["conjugate", path, "--depth", 1])
        assert code == 2
        assert "got [0, 2]" in err
        assert "Fraction(" not in err


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

    def test_zero_modulus_exits_unsatisfied(self, tmp_path, map_file):
        out = tmp_path / "m.json"
        path = map_file(semi_stable_map())
        argv = ["modulus", path, "--epsilon", "1/10", "--trials", 10, "--seed", 0, "--out", out]
        assert run(argv) == 1
        assert json.loads(out.read_text())["delta"] == ["0", "1"]


class TestBuildYAndRender:
    def test_model_json_round_trip(self, tmp_path):
        out = tmp_path / "y.json"
        assert run(["build-y", "--segments", 3, "--out", out]) == 0
        assert json.loads(out.read_text()) == build_arc_model(3).to_json()

    def test_render_model_with_dynamics(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(dump_json(build_arcwise_map(build_arc_model(2), 1).to_json()))
        out = tmp_path / "y.svg"
        assert run(["render", "--segments", 2, "--homeo", g, "--out", out]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg") and "#c0392b" in svg

    @pytest.mark.parametrize("depth", [0, 2])
    def test_render_depth_equals_homeo_file(self, tmp_path, depth):
        g = tmp_path / "g.json"
        g.write_text(dump_json(build_arcwise_map(build_arc_model(2), depth).to_json()))
        built, loaded = tmp_path / "built.svg", tmp_path / "loaded.svg"
        assert run(["render", "--segments", 2, "--depth", depth, "--out", built]) == 0
        assert run(["render", "--segments", 2, "--homeo", g, "--out", loaded]) == 0
        assert built.read_bytes() == loaded.read_bytes()

    # sha256 of the drawings that `build-fstar --format svg` and `build-y
    # --format svg [--depth 2]` wrote before `render` became the only SVG
    # writer: (argv that builds the map file to draw, or [] to draw the
    # model; render flags; digest); render draws the same bytes
    PINNED_SVG = {
        "fstar-0": (["build-fstar", "--depth", 0], [],
                    "b6f45780823e090036c3f112297637f86dc639894f2404168f4a41c15f6e027f"),
        "fstar-1": (["build-fstar", "--depth", 1], [],
                    "ed7f9041338b52495ec1667b0c20fa3020521a93c2f04a68fe1feeda4688d8e2"),
        "fstar-3": (["build-fstar", "--depth", 3], [],
                    "4987c0eea5404af0fc403369f1d75957518a49cb7e5eb55fbb09b7e5ce271b26"),
        "y-2": ([], ["--segments", 2],
                "3302b156d41cc091298ea86f9c3bfc6f89103e3ba2d5571abfdaee6865853895"),
        "y-2-depth-2": ([], ["--segments", 2, "--depth", 2],
                        "fd7ac23ec57022fcdae96945facea1d4604431324e451834ff431d476dc79db9"),
        "y-3": ([], ["--segments", 3],
                "4db786a2dbd3f45009871c4999b508efce51387eee06d9f27caecf735b9b69fc"),
        "y-3-depth-2": ([], ["--segments", 3, "--depth", 2],
                        "3990c3727f4489787f5f282ed677e126742479627f96bce4822be0045eb26eaa"),
    }

    @pytest.mark.parametrize("drawing", list(PINNED_SVG))
    def test_render_reproduces_pinned_svg(self, tmp_path, drawing):
        build, flags, digest = self.PINNED_SVG[drawing]
        built, out = tmp_path / "built.json", tmp_path / "out.svg"
        if build:
            assert run([*build, "--out", built]) == 0
            flags = [built, *flags]
        assert run(["render", *flags, "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("flags", [["--homeo", "missing.json"], ["--depth", 3]])
    def test_render_map_refuses_model_flags(self, tmp_path, flags):
        f = tmp_path / "f.json"
        run(["build-fstar", "--depth", 1, "--out", f])
        code, err = run_process(["render", f, *flags])
        assert code == 2
        assert f"input error: {flags[0]} applies only to a model" in err
        assert "Traceback" not in err

    def test_render_map(self, tmp_path):
        f = tmp_path / "f.json"
        run(["build-fstar", "--depth", 1, "--out", f])
        out = tmp_path / "f.svg"
        assert run(["render", f, "--out", out]) == 0
        assert out.read_text().startswith("<svg")


    @pytest.mark.parametrize(
        "domain",
        [(0, 10**400), (0, F(1, 10**400)), (1, 1 + F(1, 10**20))],
        ids=["huge", "tiny", "narrow"],
    )
    def test_render_map_on_any_domain(self, tmp_path, map_file, domain):
        # a float span used to overflow or vanish on these domains
        out = tmp_path / "f.svg"
        code, err = run_process(["render", map_file(canonical_r(*domain)), "--out", out])
        assert code == 0, err
        assert out.read_text().count('<polygon fill="#c0392b"') == 1

class TestCertify:
    def test_identity_dynamics_cover_failure(self, tmp_path):
        g = tmp_path / "id.json"
        g.write_text(dump_json(identity_homeo(build_arc_model(2)).to_json()))
        out = tmp_path / "bundle.json"
        code = run(
            [
                "certify",
                "--segments",
                2,
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

    @pytest.mark.parametrize(
        "segments, arc_map, seed, refused, message",
        [
            (1, semi_stable_map(), 0, ["circle", "h1"], "empirical shadowing modulus is zero"),
            (2, edge_enriched_map(2, F(1, 2**30)), 1, ["circle", "h1", "h2", "v1", "v2"],
             "no grid delta below the exact separation distance"),
        ],
        ids=["zero modulus", "no delta below separation"],
    )
    def test_refusal_names_each_arc(self, tmp_path, segments, arc_map, seed, refused, message):
        g = tmp_path / "g.json"
        homeo = YHomeo({a.id: arc_map for a in build_arc_model(segments).arcs})
        g.write_text(dump_json(homeo.to_json()))
        out = tmp_path / "bundle.json"
        argv = ["certify", "--segments", segments, "--homeo", g, "--epsilon", "1/10",
                "--trials", 10, "--seed", seed, "--out", out]
        assert run(argv) == 3
        detail = json.loads(out.read_text())["detail"]
        for aid in refused:
            assert f"{aid}: arc {aid!r}: {message}" in detail

    def test_sampled_failures_refute(self, tmp_path, monkeypatch):
        # no small pinned setup refutes, so the samplers report misses here
        monkeypatch.setattr(
            shadowing, "sample_certificate_soundness",
            lambda model, g, cert, trials, seed: [0, 2] if cert.arc == "h2" else [],
        )
        monkeypatch.setattr(shadowing, "sample_global_soundness", lambda *args: [1])
        out = tmp_path / "bundle.json"
        argv = ["certify", "--segments", 2, "--depth", 3, "--epsilon", "10", "--trials", 2]
        assert run([*argv, "--out", out]) == 1
        bundle = json.loads(out.read_text())
        assert bundle["status"] == "refuted"
        assert bundle["sampling"] == {"per_arc_failures": {"h2": [0, 2]}, "global_failures": [1]}


@pytest.fixture()
def pinned_inputs(tmp_path):
    m2, m3 = build_arc_model(2), build_arc_model(3)
    g = YHomeo({a.id: edge_enriched_map(2, F(1, 2**16)) for a in m2.arcs})
    # a depth-7 map in other coordinates: its conjugacy residual is a
    # uniform distance between maps of 767 and 47 breakpoints
    A = PLHomeo((F(0), F(1, 3), F(7, 9), F(1)), (F(0), F(1, 2), F(13, 16), F(1)))
    files = {
        "G": g.to_json(),
        "f2": build_ternary_map(2).to_json(),
        "g7": compose(A, compose(build_ternary_map(7), invert(A))).to_json(),
    }
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dump_json(obj))
    orbits = {
        "interval": generate_pseudo_orbit(build_ternary_map(2), F(1, 100), (-4, 20), F(1, 7), 99),
        "model": generate_pseudo_orbit_y(
            m2, build_arcwise_map(m2, 2), F(1, 20), 12, YPoint("h1", F(1, 3)), 3
        ),
        # no candidate verifies at epsilon 1/16, though ("v2", 25/256) is a witness
        "missed": generate_pseudo_orbit_y(
            m3, build_arcwise_map(m3, 2), F(1, 10), 12, YPoint("v2", F(57, 256)), 42
        ),
    }
    for name, orbit in orbits.items():
        paths[name] = tmp_path / f"{name}.csv"
        with open(paths[name], "w", newline="") as fh:
            orbit_to_csv(orbit, fh)
    return paths


# (argv, exit code, sha256 of stdout): whole artifacts of the certify,
# shadow, modulus and conjugate paths, so a rewrite of the exact core keeps every byte
PINNED_RUNS = {
    "certify-enriched": (
        lambda d: ["certify", "--segments", 2, "--homeo", d["G"], "--epsilon", "1/10",
                   "--trials", 3, "--seed", 5],
        0, "9da7dfc27f82874db7ce63b873bb3eee11f4955b67559bfbd041316b9ebb3e75"),
    "certify-refused": (
        lambda d: ["certify", "--segments", 8, "--depth", 3, "--epsilon", "1/10",
                   "--trials", 2, "--seed", 1],
        3, "5e94ac4383b33591e7c55b93644e0539ab500b6d0d4b5c8a3e8ba24f4f4a94f7"),
    "shadow-map-two-sided": (
        lambda d: ["shadow", "--map", d["f2"], "--orbit", d["interval"], "--epsilon", "1/50"],
        0, "289e703182421b9da3e30d8403104da86daf3732251e90d493737f0be23b6a19"),
    "shadow-model": (
        lambda d: ["shadow", "--segments", 2, "--depth", 2, "--orbit", d["model"],
                   "--epsilon", "1/10"],
        0, "210292ee22e1d59ca9e70df35bd68e35a04d0a98f8d586d7c2b881259af96750"),
    "shadow-model-unsatisfied": (
        lambda d: ["shadow", "--segments", 3, "--depth", 2, "--orbit", d["missed"],
                   "--epsilon", "1/16"],
        1, "38e0b9de817f645c4bec37c0d4a3e58baecccb040f5718dc069a72c7385a0bed"),
    "modulus": (
        lambda d: ["modulus", d["f2"], "--epsilon", "1/20", "--trials", 20, "--seed", 1],
        0, "dcda7164941c506813be204e5f1de63e2b9704781d91a383b7c4790ae76dc52b"),
    "conjugate": (
        lambda d: ["conjugate", d["g7"], "--depth", 4],
        0, "c88bdca2f75baab380d420b435b260071b60da41342404bfedbb12679fca1426"),
}


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_pinned_artifact_bytes(pinned_inputs, capsys, name):
    argv, code, digest = PINNED_RUNS[name]
    assert run(argv(pinned_inputs)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestFlagBounds:
    """--depth, --segments and --trials above their bounds exit 2 before
    anything is built.  Only the refusal runs; no oversized value does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--depth", MAX_DEPTH + 1, "--epsilon", "1/10"],
            ["certify", "--segments", MAX_SEGMENTS + 1, "--epsilon", "1/10"],
            ["certify", "--trials", MAX_TRIALS + 1, "--epsilon", "1/10"],
            ["build-fstar", "--depth", MAX_DEPTH + 1],
            ["build-y", "--segments", MAX_SEGMENTS + 1],
            ["render", "--segments", 2, "--depth", MAX_DEPTH + 1],
            ["conjugate", "map.json", "--depth", MAX_DEPTH + 1],
            ["modulus", "map.json", "--epsilon", "1/10", "--trials", MAX_TRIALS + 1],
            ["shadow", "--segments", 2, "--orbit", "o.csv", "--epsilon", "1/10",
             "--depth", MAX_DEPTH + 1],
            ["shadow", "--segments", MAX_SEGMENTS + 1, "--orbit", "o.csv", "--epsilon", "1/10"],
            ["render", "--segments", MAX_SEGMENTS + 1],
        ],
    )
    def test_refused_above_bound(self, argv):
        code, err = run_process(argv)
        assert code == 2
        assert "exceeds the maximum" in err and "Traceback" not in err

    def test_refused_above_bound_in_process(self, capsys):
        assert exit_code(["build-fstar", "--depth", MAX_DEPTH + 1]) == 2
        assert f"{MAX_DEPTH + 1} exceeds the maximum {MAX_DEPTH}" in capsys.readouterr().err

    def test_bounds_themselves_parse(self):
        args = build_parser().parse_args(
            ["certify", "--depth", str(MAX_DEPTH), "--segments", str(MAX_SEGMENTS),
             "--trials", str(MAX_TRIALS), "--epsilon", "1/10"]
        )
        assert (args.depth, args.segments, args.trials) == (MAX_DEPTH, MAX_SEGMENTS, MAX_TRIALS)

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-fstar", "--depth", 1, "--format", "svg"],
            ["build-fstar", "--depth", 1, "--format", "json"],
            ["build-y", "--segments", 2, "--format", "svg"],
            ["build-y", "--segments", 2, "--depth", 2],
            ["certify", "--model", "y.json", "--epsilon", "1/10"],
            ["shadow", "--model", "y.json", "--orbit", "o.csv", "--epsilon", "1/10"],
        ],
        ids=["fstar-svg", "fstar-json", "y-svg", "y-depth", "certify-model", "shadow-model"],
    )
    def test_removed_drawing_flags_refused(self, argv):
        # render is the only SVG writer; build-y --depth changed nothing else;
        # a model is named by --segments alone, never read from a file
        code, err = run_process(argv)
        assert code == 2
        assert "unrecognized arguments" in err and "Traceback" not in err

    def test_non_integer_still_refused(self):
        code, err = run_process(["build-fstar", "--depth", "two"])
        assert code == 2
        assert "invalid int value: 'two'" in err


class TestMalformedModelInput:
    """Homeomorphism files of the wrong JSON shape, or that do not fit the
    model, exit 2."""

    @pytest.mark.parametrize("homeo", [{"arc_maps": []}, [], {"arc_maps": {"h1": []}}])
    def test_certify(self, tmp_path, homeo):
        path = tmp_path / "homeo.json"
        path.write_text(json.dumps(homeo))
        argv = ["certify", "--segments", 2, "--epsilon", "1/10", "--trials", 2, "--homeo", path]
        code, err = run_process(argv)
        assert code == 2
        assert "Traceback" not in err and "input error" in err

    def test_shadow_on_model(self, tmp_path):
        h = tmp_path / "h.json"
        h.write_text('{"arc_maps": []}')
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,arc,t\n0,h2,1/2\n1,h2,7/12\n")
        code, err = run_process(
            ["shadow", "--segments", 2, "--homeo", h, "--orbit", orbit, "--epsilon", "1/10"]
        )
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", [float("inf"), 1.5, True])
    def test_shadow_non_integer_pair_component(self, tmp_path, bad):
        obj = build_arcwise_map(build_arc_model(2), 1).to_json()
        obj["arc_maps"]["h1"]["values"][1][1] = bad
        h = tmp_path / "h.json"
        h.write_text(json.dumps(obj))
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,arc,t\n0,h2,1/2\n1,h2,7/12\n")
        code, err = run_process(
            ["shadow", "--segments", 2, "--homeo", h, "--orbit", orbit, "--epsilon", "1/10"]
        )
        assert code == 2
        assert "is not a decimal integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["shadow", "render", "certify"])
    @pytest.mark.parametrize("defect", ["half domain", "missing v2", "extra zz"])
    def test_homeo_rejected_by_validation(self, tmp_path, command, defect):
        model = build_arc_model(2)
        if defect == "half domain":
            maps = {a.id: identity(F(0), F(1, 2)) for a in model.arcs}
        elif defect == "missing v2":
            maps = {a.id: build_ternary_map(1) for a in model.arcs if a.id != "v2"}
        else:
            maps = {arc_id: build_ternary_map(1) for arc_id in [*model.arc_ids(), "zz"]}
        h = tmp_path / "h.json"
        h.write_text(dump_json(YHomeo(maps).to_json()))
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,arc,t\n0,h2,1/2\n1,h2,7/12\n")
        argv = {
            "shadow": ["shadow", "--segments", 2, "--orbit", orbit, "--epsilon", "1/10"],
            "render": ["render", "--segments", 2],
            "certify": ["certify", "--segments", 2, "--epsilon", "1/10", "--trials", 2],
        }[command]
        code, err = run_process([*argv, "--homeo", h])
        assert code == 2
        assert "Traceback" not in err and "input error" in err

    def test_render_scalar(self, tmp_path):
        path = tmp_path / "three.json"
        path.write_text("3")
        code, err = run_process(["render", path])
        assert code == 2
        assert "Traceback" not in err


READERS = {
    "check-peps": lambda d: ["check-peps", d["bad"], "--epsilon", "1/8"],
    "conjugate": lambda d: ["conjugate", d["bad"], "--depth", 2],
    "explode": lambda d: ["explode", d["bad"], "--point", "1/2", "--radius", "1/9",
                          "--orient", "R"],
    "modulus": lambda d: ["modulus", d["bad"], "--epsilon", "1/8", "--trials", 1],
    "shadow --map": lambda d: ["shadow", "--map", d["bad"], "--orbit", d["interval_orbit"],
                               "--epsilon", "1/20"],
    "shadow --homeo": lambda d: ["shadow", "--segments", 2, "--homeo", d["bad"], "--orbit",
                                 d["model_orbit"], "--epsilon", "1/10"],
    "certify --homeo": lambda d: ["certify", "--segments", 2, "--homeo", d["bad"],
                                  "--epsilon", "1/10", "--trials", 1],
    "render": lambda d: ["render", d["bad"]],
}


@pytest.fixture()
def reader_files(tmp_path):
    interval_orbit = tmp_path / "interval.csv"
    interval_orbit.write_text("index,point\n0,1/10\n1,3/20\n")
    model_orbit = tmp_path / "model.csv"
    model_orbit.write_text("index,arc,t\n0,h2,1/2\n1,h2,7/12\n")
    return {"interval_orbit": interval_orbit, "model_orbit": model_orbit,
            "bad": tmp_path / "bad.json", "dir": tmp_path}


class TestUnreadableInput:
    """Inputs the parsers themselves refuse exit 2, not with a traceback."""

    @pytest.mark.parametrize("reader", list(READERS))
    def test_deeply_nested_json(self, reader_files, reader):
        reader_files["bad"].write_text("[" * 100_000 + "]" * 100_000)
        code, err = run_process(READERS[reader](reader_files))
        assert code == 2
        assert "nested too deeply" in err and "Traceback" not in err

    def test_over_long_csv_field(self, reader_files, map_file):
        orbit = reader_files["dir"] / "long.csv"
        orbit.write_text("index,point\n0," + "1" * 200_000 + "\n")
        code, err = run_process(
            ["shadow", "--map", map_file(build_ternary_map(1)), "--orbit", orbit,
             "--epsilon", "1/20"]
        )
        assert code == 2
        assert "input error: unreadable orbit CSV" in err and "Traceback" not in err


def exit_code(argv) -> int:
    """``main``'s exit code, argparse's refusals (SystemExit) included."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


class TestIntegerLiterals:
    """Every flag and CSV field reads integers by one rule: ASCII digits
    after an optional "-".  ``int()`` would read these spellings as 10, 1
    and 1."""

    SITES = {
        "--depth": lambda d, v: ["build-fstar", "--depth", v],
        "--segments": lambda d, v: ["build-y", "--segments", v],
        "--trials": lambda d, v: ["modulus", d["map"], "--epsilon", "1/8", "--trials", v],
        "modulus --seed": lambda d, v: ["modulus", d["map"], "--epsilon", "1/8", "--trials", 1,
                                        "--seed", v],
        "certify --seed": lambda d, v: ["certify", "--segments", 2, "--epsilon", "1/10",
                                        "--trials", 1, "--seed", v],
        "--epsilon": lambda d, v: ["check-peps", d["map"], "--epsilon", f"{v}/8"],
        "--point": lambda d, v: ["explode", d["map"], "--point", f"{v}/18", "--radius", "1/54",
                                 "--orient", "R"],
        "--radius": lambda d, v: ["explode", d["map"], "--point", "1/18", "--radius", f"{v}",
                                  "--orient", "R"],
        "orbit point": lambda d, v: ["shadow", "--map", d["map"], "--orbit",
                                     d["orbit"](f"0,{v}/10\n"), "--epsilon", "1/20"],
        "orbit index": lambda d, v: ["shadow", "--map", d["map"], "--orbit",
                                     d["orbit"](f"{v},1/10\n"), "--epsilon", "1/20"],
    }

    @pytest.mark.parametrize("site", list(SITES))
    @pytest.mark.parametrize("spelling", ["1_0", "+1", "\u0661"])
    def test_refused(self, tmp_path, map_file, capsys, site, spelling):
        def orbit(rows):
            path = tmp_path / "orbit.csv"
            path.write_text("index,point\n" + rows)
            return path

        files = {"map": map_file(build_ternary_map(1)), "orbit": orbit}
        assert exit_code(self.SITES[site](files, spelling)) == 2
        err = capsys.readouterr().err
        assert repr(spelling) in err and "Traceback" not in err

    def test_surrounding_whitespace_still_stripped(self, tmp_path, map_file):
        orbit = tmp_path / "orbit.csv"
        orbit.write_text("index,point\n 0 , 1/10 \n")
        assert run(["build-fstar", "--depth", " 1 ", "--out", tmp_path / "f.json"]) == 0
        assert run(["shadow", "--map", map_file(build_ternary_map(1)), "--orbit", orbit,
                    "--epsilon", " 1/20 ", "--out", tmp_path / "s.json"]) == 0


# One small run of every subcommand, each of which writes an artifact
ARTIFACT_RUNS = {
    "build-fstar": lambda d: ["build-fstar", "--depth", 1],
    "check-peps": lambda d: ["check-peps", d["map"], "--epsilon", "1/8"],
    "conjugate": lambda d: ["conjugate", d["map"], "--depth", 1],
    "explode": lambda d: ["explode", d["map"], "--point", "1/18", "--radius", "1/54",
                          "--orient", "L"],
    "shadow": lambda d: ["shadow", "--map", d["map"], "--orbit", d["interval_orbit"],
                         "--epsilon", "1/20"],
    "modulus": lambda d: ["modulus", d["map"], "--epsilon", "1/10", "--trials", 2,
                          "--seed", 1],
    "build-y": lambda d: ["build-y", "--segments", 2],
    "certify": lambda d: ["certify", "--segments", 1, "--depth", 0, "--epsilon", "1/10",
                          "--trials", 1],
    "render": lambda d: ["render", "--segments", 2, "--depth", 1],
}


class TestArtifactOutput:
    """main writes every artifact: to stdout, or to --out with the same bytes."""

    @pytest.fixture()
    def files(self, reader_files, map_file):
        return {**reader_files, "map": map_file(build_ternary_map(1))}

    @pytest.mark.parametrize("command", list(ARTIFACT_RUNS))
    def test_stdout_matches_out(self, files, capsys, command):
        argv = ARTIFACT_RUNS[command](files)
        out = files["dir"] / "artifact"
        code = run([*argv, "--out", out])
        assert capsys.readouterr().out == ""
        assert run(argv) == code
        assert capsys.readouterr().out.encode() == out.read_bytes() != b""

    @pytest.mark.parametrize("command", list(ARTIFACT_RUNS))
    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    def test_unwritable_out_is_input_error(self, files, capsys, command, target):
        d = files["dir"]
        out = d if target == "directory" else d / "missing" / "artifact"
        assert run([*ARTIFACT_RUNS[command](files), "--out", out]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err


class TestBigIntegers:
    """Integers past Python's 4300-digit str/int conversion limit read and
    write like any other."""

    @pytest.fixture()
    def unlimited_digits(self):
        if not hasattr(sys, "set_int_max_str_digits"):
            yield
            return
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        yield
        sys.set_int_max_str_digits(old)

    def test_explode_writes_4401_digit_denominators(self, tmp_path, unlimited_digits):
        f, out = tmp_path / "d0.json", tmp_path / "big.json"
        point = F(1, 10**2200 + 1)
        radius = F(1, 10**2200 + 3)
        assert run_process(["build-fstar", "--depth", 0, "--out", f])[0] == 0
        code, err = run_process(["explode", f, "--point", f"1/{10**2200 + 1}",
                                 "--radius", f"1/{10**2200 + 3}", "--orient", "R",
                                 "--out", out])
        assert code == 0, err
        g = PLHomeo.from_json(json.loads(out.read_text()))
        assert g == explode_fixed_point(build_ternary_map(0), point, radius, Orientation.R)
        assert max(len(str(x.denominator)) for x in g.breakpoints) > 4300

    def test_check_peps_reads_5000_digit_pair_parts(self, tmp_path):
        # every pair [a, b] scaled to [a·10^4999, b·10^4999]: the same map
        pad = "0" * 4999
        obj = build_ternary_map(1).to_json()
        for key in ("domain", "breakpoints", "values"):
            obj[key] = [[a + pad, b + pad] for a, b in obj[key]]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(obj))
        code, err = run_process(["check-peps", path, "--epsilon", "1/2"])
        assert code in (0, 1), err

    @pytest.fixture()
    def caller_limit(self):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no integer digit limit")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        yield 5000
        sys.set_int_max_str_digits(old)

    def test_main_lifts_the_limit_for_its_own_run_only(self, tmp_path, caller_limit):
        f, out = tmp_path / "d0.json", tmp_path / "big.json"
        assert run(["build-fstar", "--depth", 0, "--out", f]) == 0
        assert sys.get_int_max_str_digits() == caller_limit
        # 5001-digit denominators: written only because main lifts the limit
        code = run(["explode", f, "--point", f"1/{10**2500 + 1}",
                    "--radius", f"1/{10**2500 + 3}", "--orient", "R", "--out", out])
        assert code == 0
        assert sys.get_int_max_str_digits() == caller_limit
        with pytest.raises(SystemExit):
            run(["build-fstar", "--depth", "two"])
        assert sys.get_int_max_str_digits() == caller_limit


@pytest.fixture()
def choice_files(tmp_path):
    """Maps of the models with one and two teeth, a map of the interval, and
    a model orbit on which the identity, the depth-0 and the deeper arcwise
    maps differ."""
    m1, m2 = build_arc_model(1), build_arc_model(2)
    objs = {
        "h1": build_arcwise_map(m1, 1).to_json(),
        "h2": build_arcwise_map(m2, 2).to_json(),
        "id2": identity_homeo(m2).to_json(),
        "G": YHomeo({a.id: edge_enriched_map(2, F(1, 2**16)) for a in m2.arcs}).to_json(),
        "f1": build_ternary_map(1).to_json(),
    }
    paths = {}
    for name, obj in objs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dump_json(obj))
    # the depth-1 map's orbit of 1/6 on h2, inside the level-1 L interval
    paths["orbit"] = tmp_path / "orbit.csv"
    paths["orbit"].write_text("index,arc,t\n0,h2,1/6\n1,h2,4/27\n2,h2,11/81\n")
    paths["interval_orbit"] = tmp_path / "interval.csv"
    paths["interval_orbit"].write_text("index,point\n0,1/10\n1,3/20\n")
    return paths


# (base argv, extra flags): each extra flag changes the artifact on its own,
# so a run that accepts it next to the base and prints the same bytes with
# the same exit code has dropped it
FLAG_CASES = {
    "render --homeo, --depth": (lambda d: ["render", "--segments", 2, "--homeo", d["h2"]],
                                lambda d: ["--depth", 1]),
    "render --depth": (lambda d: ["render", "--segments", 2], lambda d: ["--depth", 1]),
    "render --homeo": (lambda d: ["render", "--segments", 2], lambda d: ["--homeo", d["h2"]]),
    "render map --depth": (lambda d: ["render", d["f1"]], lambda d: ["--depth", 1]),
    "render map --homeo": (lambda d: ["render", d["f1"]], lambda d: ["--homeo", d["h2"]]),
    "render map --segments": (lambda d: ["render", d["f1"]], lambda d: ["--segments", 2]),
    "shadow --homeo, --depth": (
        lambda d: ["shadow", "--segments", 2, "--homeo", d["id2"], "--orbit", d["orbit"],
                   "--epsilon", "1/100"],
        lambda d: ["--depth", 2]),
    "shadow --segments --depth": (
        lambda d: ["shadow", "--segments", 2, "--orbit", d["orbit"], "--epsilon", "1/100"],
        lambda d: ["--depth", 0]),
    "shadow --segments --homeo": (
        lambda d: ["shadow", "--segments", 2, "--orbit", d["orbit"], "--epsilon", "1/100"],
        lambda d: ["--homeo", d["id2"]]),
    "shadow --map --depth": (
        lambda d: ["shadow", "--map", d["f1"], "--orbit", d["interval_orbit"],
                   "--epsilon", "1/20"],
        lambda d: ["--depth", 0]),
    "shadow --map --segments": (
        lambda d: ["shadow", "--map", d["f1"], "--orbit", d["interval_orbit"],
                   "--epsilon", "1/20"],
        lambda d: ["--segments", 2]),
    "modulus --trials": (lambda d: ["modulus", d["f1"], "--epsilon", "1/10", "--trials", 2],
                         lambda d: ["--trials", 3]),
    "modulus --seed": (lambda d: ["modulus", d["f1"], "--epsilon", "1/10", "--trials", 2],
                       lambda d: ["--seed", 1]),
    "certify --homeo, --depth": (
        lambda d: ["certify", "--segments", 1, "--homeo", d["h1"], "--epsilon", 10,
                   "--trials", 1],
        lambda d: ["--depth", 3]),
    "certify --segments": (lambda d: ["certify", "--depth", 0, "--epsilon", "1/10",
                                      "--trials", 1],
                           lambda d: ["--segments", 1]),
    "certify --depth": (lambda d: ["certify", "--segments", 1, "--epsilon", 10, "--trials", 1],
                        lambda d: ["--depth", 0]),
    "certify --homeo": (lambda d: ["certify", "--segments", 1, "--epsilon", 10, "--trials", 1],
                        lambda d: ["--homeo", d["h1"]]),
    "certify --trials": (lambda d: ["certify", "--segments", 1, "--depth", 0, "--epsilon", 10,
                                    "--trials", 1],
                         lambda d: ["--trials", 2]),
    "certify --seed": (lambda d: ["certify", "--segments", 1, "--depth", 0, "--epsilon", 10,
                                  "--trials", 1],
                       lambda d: ["--seed", 1]),
}


class TestOneFlagPerChoice:
    """Each choice is read from one flag: a flag is refused, or it changes
    the run.  --out is left out, since it writes the same bytes by design."""

    @pytest.mark.parametrize("case", list(FLAG_CASES))
    def test_no_flag_is_silently_dropped(self, choice_files, capsys, case):
        base, extra = (make(choice_files) for make in FLAG_CASES[case])
        before = exit_code(base), capsys.readouterr().out
        code = exit_code([*base, *extra])
        out, err = capsys.readouterr()
        if code == 2:
            assert any(str(flag) in err for flag in extra if str(flag).startswith("--"))
        else:
            assert (code, out) != before, f"{extra} changed nothing"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (lambda d: ["render", "--segments", 2, "--homeo", d["h2"], "--depth", 2],
             "--depth cannot be combined with --homeo"),
            (lambda d: ["shadow", "--segments", 2, "--homeo", d["h2"], "--depth", 2,
                        "--orbit", d["orbit"], "--epsilon", "1/10"],
             "--depth cannot be combined with --homeo"),
            (lambda d: ["certify", "--segments", 2, "--homeo", d["G"], "--depth", 7,
                        "--epsilon", "1/10", "--trials", 3, "--seed", 5],
             "--depth cannot be combined with --homeo"),
        ],
        ids=["render", "shadow", "certify --homeo"],
    )
    def test_second_flag_for_one_choice_refused(self, choice_files, argv, message):
        code, err = run_process(argv(choice_files))
        assert code == 2
        assert f"input error: {message}" in err and "Traceback" not in err


# what opening the empty path raises
NO_FILE = "[Errno 2] No such file or directory: ''"


class TestInputErrorsInFreshInterpreter:
    """Inputs that a library check refuses exit 2 with the check's message."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (lambda d: ["build-fstar", "--depth", -1], "levels must be nonnegative"),
            (lambda d: ["conjugate", d["f1"], "--depth", 0], "depth must be positive"),
            (lambda d: ["modulus", d["f1"], "--epsilon", "1/10", "--trials", 0],
             "trials must be >= 1"),
            (lambda d: ["certify", "--segments", 1, "--epsilon", "1/10", "--trials", 0],
             "trials must be >= 1"),
            (lambda d: ["shadow", "--map", d["f1"], "--orbit", d["header_only"],
                        "--epsilon", "1/10"], "empty orbit CSV"),
            (lambda d: ["shadow", "--map", d["f1"], "--orbit", d["skipping"],
                        "--epsilon", "1/10"], "orbit indices must be consecutive"),
            (lambda d: ["shadow", "--orbit", d["interval_orbit"], "--epsilon", "1/10"],
             "need --map or --segments"),
            (lambda d: ["render"], "need a map file or --segments"),
            (lambda d: ["check-peps", d["shifted"], "--epsilon", "1/8"],
             "domain field disagrees with breakpoint endpoints"),
            (lambda d: ["shadow", "--segments", 2, "--homeo", d["list"],
                        "--orbit", d["orbit"], "--epsilon", "1/10"],
             "homeomorphism JSON must be an object"),
            (lambda d: ["shadow", "--segments", 2, "--orbit", d["orbit"], "--epsilon=0"],
             "epsilon must be positive"),
            (lambda d: ["shadow", "--segments", 2, "--orbit", d["orbit"],
                        "--epsilon=-1/10"], "epsilon must be positive"),
            (lambda d: ["shadow", "--map", d["f1"], "--orbit", d["extra_field"],
                        "--epsilon", "1/10"], "orbit CSV row 2 has 3 fields, header has 2"),
            (lambda d: ["shadow", "--segments", 2, "--orbit", d["unknown_arc"],
                        "--epsilon", "1/10"], "no arc 'zz'"),
            (lambda d: ["certify", "--segments", 2, "--homeo", d["extra_arc_map"],
                        "--epsilon", "1/10"],
             "arc map for 'zz', which is not an arc of the model"),
            # an empty path names no file: it is not the same as leaving the flag out
            (lambda d: ["render", "--segments", 2, "--homeo", ""], NO_FILE),
            (lambda d: ["certify", "--segments", 2, "--homeo", "", "--epsilon", "1/10",
                        "--trials", 2], NO_FILE),
            (lambda d: ["shadow", "--segments", 2, "--homeo", "", "--orbit", d["orbit"],
                        "--epsilon", "1/10"], NO_FILE),
            (lambda d: ["build-fstar", "--depth", 1, "--out", ""], NO_FILE),
        ],
        ids=["build-fstar depth", "conjugate depth", "modulus trials", "certify trials",
             "header-only CSV", "skipped index", "no map or model", "render without input",
             "shifted domain", "list homeo", "model epsilon zero", "model epsilon negative",
             "extra CSV field", "unknown arc", "extra arc map", "render empty --homeo",
             "certify empty --homeo", "shadow empty --homeo", "empty --out"],
    )
    def test_refused(self, choice_files, argv, message):
        d = dict(choice_files)
        for name, text in (("header_only", "index,point\n"),
                           ("skipping", "index,point\n0,1/10\n2,3/20\n"),
                           ("extra_field", "index,point\n0,1/10,zzz\n"),
                           ("unknown_arc", "index,arc,t\n0,zz,1/2\n"),
                           ("list", "[]")):
            d[name] = d["orbit"].parent / name
            d[name].write_text(text)
        shifted = canonical_r(0, 1).to_json()
        shifted["domain"] = [["0", "1"], ["2", "1"]]
        d["shifted"] = d["orbit"].parent / "shifted.json"
        d["shifted"].write_text(json.dumps(shifted))
        extra = json.loads(d["h2"].read_text())
        extra["arc_maps"]["zz"] = identity().to_json()
        d["extra_arc_map"] = d["orbit"].parent / "extra_arc_map.json"
        d["extra_arc_map"].write_text(json.dumps(extra))
        code, err = run_process(argv(d))
        assert code == 2
        assert f"input error: {message}" in err and "Traceback" not in err
