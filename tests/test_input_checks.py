"""Every input check of the library raises its own error with its own
message."""

import io
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest

from continua.cantor import ChainWitness, build_conjugacy, build_ternary_map
from continua.cli import build_parser, cmd_shadow
from continua.continuum import (
    Arc,
    ModelError,
    YHomeo,
    YPoint,
    build_arc_model,
    build_arcwise_map,
)
from continua.plmap import Orientation, OrientedInterval, PLHomeo, canonical_r, identity
from continua.rational import exact_sqrt
from continua.shadowing import (
    PseudoOrbit,
    estimate_shadowing_modulus,
    generate_pseudo_orbit,
    generate_pseudo_orbit_y,
    orbit_from_csv,
    shadow_on_arcs,
)


def _segment(lo, hi):
    return Arc("a", "p", "q", "segment", ((F(0), F(0)), (F(1), F(0))), F(lo), F(hi))


def _shifted_domain_map():
    obj = canonical_r(0, 1).to_json()
    obj["domain"] = [["0", "1"], ["2", "1"]]
    return obj


def _shadow_without_map_or_model():
    with tempfile.TemporaryDirectory() as d:
        orbit = Path(d) / "orbit.csv"
        orbit.write_text("index,point\n0,1/2\n")
        return cmd_shadow(
            build_parser().parse_args(["shadow", "--orbit", str(orbit), "--epsilon", "1/10"])
        )


M1 = build_arc_model(1)
STRETCH = "need 0 < stretch_lo <= stretch_hi"

# (call, error, message) for each check
CHECKS = {
    "levels < 0": (lambda: build_ternary_map(-1), ValueError, "levels must be nonnegative"),
    "empty chain": (lambda: ChainWitness((), F(1, 2)), ValueError, "empty witness chain"),
    "conjugacy depth 0": (
        lambda: build_conjugacy(build_ternary_map(1), 0), ValueError, "depth must be positive"
    ),
    "embed outside [0, 1]": (
        lambda: M1.arc("h1").embed(F(3, 2)), ValueError, r"parameter 3/2 outside \[0, 1\]"
    ),
    "sub_polyline reversed": (
        lambda: M1.arc("h1").sub_polyline(F(1, 2), F(1, 3)),
        ValueError,
        "need 0 <= t0 <= t1 <= 1",
    ),
    "homeo not an object": (
        lambda: YHomeo.from_json([]), ModelError, "homeomorphism JSON must be an object"
    ),
    "stretch_lo zero": (lambda: _segment(0, 1), ModelError, STRETCH),
    "stretch_lo negative": (lambda: _segment(-1, 1), ModelError, STRETCH),
    "stretch bounds swapped": (lambda: _segment(2, 1), ModelError, STRETCH),
    "empty interval": (
        lambda: OrientedInterval(F(1, 2), F(1, 2), Orientation.R),
        ValueError,
        r"empty interval \(1/2, 1/2\)",
    ),
    "domain disagrees": (
        lambda: PLHomeo.from_json(_shifted_domain_map()),
        ValueError,
        "domain field disagrees with breakpoint endpoints",
    ),
    "identity lo >= hi": (lambda: identity(F(1), F(1)), ValueError, "need lo < hi"),
    "sqrt of negative": (
        lambda: exact_sqrt(F(-1, 4)), ValueError, "square root of a negative rational"
    ),
    "empty pseudo-orbit": (lambda: PseudoOrbit((), 0), ValueError, "empty pseudo-orbit"),
    "offset past the points": (
        lambda: PseudoOrbit((F(0),), 1), ValueError, "offset outside the point list"
    ),
    "window without 0": (
        lambda: generate_pseudo_orbit(identity(), F(1, 10), (1, 3), F(1, 2), 0),
        ValueError,
        "window must contain index 0",
    ),
    "x0 outside the domain": (
        lambda: generate_pseudo_orbit(identity(), F(1, 10), (0, 2), F(2), 0),
        ValueError,
        "x0 outside the domain",
    ),
    "negative model orbit length": (
        lambda: generate_pseudo_orbit_y(
            M1, build_arcwise_map(M1, 1), F(1, 10), -3, YPoint("h1", F(1, 2)), 0
        ),
        ValueError,
        "length must be >= 0",
    ),
    "model orbit under a map off [0, 1]": (
        lambda: generate_pseudo_orbit_y(
            M1, YHomeo({a.id: identity(F(0), F(2)) for a in M1.arcs}), F(1, 10), 3,
            YPoint("h1", F(1, 2)), 0,
        ),
        ModelError,
        "arc map for 'circle' must live on",
    ),
    "arc search under a map off [0, 1]": (
        lambda: shadow_on_arcs(
            M1,
            YHomeo({a.id: identity(F(0), F(2)) for a in M1.arcs}),
            PseudoOrbit((YPoint("h1", F(1, 2)),), 0),
            F(1, 10),
            [M1.arc("h1")],
        ),
        ModelError,
        "arc map for 'circle' must live on",
    ),
    "trials < 1": (
        lambda: estimate_shadowing_modulus(identity(), F(1, 10), 0, 0),
        ValueError,
        "trials must be >= 1",
    ),
    "header-only CSV": (
        lambda: orbit_from_csv(io.StringIO("index,point\n")), ValueError, "empty orbit CSV"
    ),
    "indices skip": (
        lambda: orbit_from_csv(io.StringIO("index,point\n0,1/2\n2,1/2\n")),
        ValueError,
        "orbit indices must be consecutive",
    ),
    "unknown CSV column": (
        lambda: orbit_from_csv(io.StringIO("index,x\n0,1/2\n")),
        ValueError,
        "unrecognized orbit CSV header",
    ),
    "two-sided arc search": (
        lambda: shadow_on_arcs(
            M1,
            build_arcwise_map(M1, 1),
            PseudoOrbit((YPoint("h1", F(1, 2)), YPoint("h1", F(1, 2))), 1),
            F(1, 10),
            [M1.arc("h1")],
        ),
        ValueError,
        "arc search expects a forward pseudo-orbit",
    ),
    "epsilon zero on one arc": (
        lambda: shadow_on_arcs(
            M1,
            build_arcwise_map(M1, 1),
            PseudoOrbit((YPoint("h1", F(1, 2)),), 0),
            F(0),
            [M1.arc("h1")],
        ),
        ValueError,
        "epsilon must be positive",
    ),
    "epsilon negative on the model": (
        lambda: shadow_on_arcs(
            M1,
            build_arcwise_map(M1, 1),
            PseudoOrbit((YPoint("h1", F(1, 2)),), 0),
            F(-1, 10),
            M1.arcs,
        ),
        ValueError,
        "epsilon must be positive",
    ),
    "unknown arc past every arc's stop": (
        # v1's tip is far from h1, so the search stops before reaching zz
        lambda: shadow_on_arcs(
            M1,
            build_arcwise_map(M1, 1),
            PseudoOrbit((YPoint("v1", F(1)), YPoint("zz", F(1, 2))), 0),
            F(1, 10),
            [M1.arc("h1")],
        ),
        ModelError,
        "no arc 'zz'",
    ),
    "shadow without map or model": (
        _shadow_without_map_or_model, ValueError, "need --map or --segments"
    ),
}


@pytest.mark.parametrize("check", list(CHECKS))
def test_input_check_raises(check):
    call, error, message = CHECKS[check]
    with pytest.raises(error, match=message):
        call()
