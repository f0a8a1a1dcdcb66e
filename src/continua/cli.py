"""Command-line front end.

Subcommands build the library's objects, run the experiments, and emit
JSON/CSV/SVG artifacts.  Runs are fully determined by their flags: the
same seed and parameters give byte-identical output files.

Each subcommand returns its artifact text and exit code, or raises; ``main``
alone writes the text to --out or stdout and maps errors to exit codes.
``render`` is the only SVG writer.  A flag that the run cannot use (--depth
with --homeo, a model flag with a map) is an input error.  ``certify`` makes
one library call, ``shadowing.certify_model``, which holds its seeds.

Exit protocol: 0 satisfied, 1 unsatisfied (a well-formed run whose answer
is negative), 2 input error, 3 certification failure.  A --depth,
--segments or --trials above its MAX_* bound is an input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cantor import (
    InsufficientIntervals,
    ExplosionSiteError,
    build_conjugacy,
    build_ternary_map,
    check_chain_property,
    explode_fixed_point,
)
from .continuum import (
    YHomeo,
    YModel,
    YPoint,
    build_arc_model,
    build_arcwise_map,
    validate_homeo,
)
from .plmap import Orientation, PLHomeo
from .rational import parse_integer, parse_rational, rational_to_json
from .shadowing import (
    CoverFailure,
    certify_model,
    estimate_shadowing_modulus,
    orbit_from_csv,
    shadow_on_arcs,
    shadowing_set,
)
from .svg import render_model, render_phase_diagram

EXIT_OK = 0
EXIT_UNSAT = 1
EXIT_INPUT = 2
EXIT_CERT = 3

# Largest accepted --depth, --segments and --trials.  Depth N allocates
# 2^(N+1) intervals and the other two set loop counts, so larger values are
# refused as input errors before anything is built.
MAX_DEPTH = 16
MAX_SEGMENTS = 256
MAX_TRIALS = 10_000

# The arcwise map's depth when a model run gives neither --homeo nor --depth.
DEFAULT_DEPTH = 3

# The flags that name the model and its self-map; a map input takes none of them.
_MODEL_FLAGS = ("--segments", "--homeo", "--depth")


def _integer(text: str) -> int:
    """argparse type: an integer literal (``rational.parse_integer``)."""
    try:
        return parse_integer(text.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _at_most(bound: int):
    """argparse type: an integer literal no larger than ``bound``."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value > bound:
            raise argparse.ArgumentTypeError(f"{value} exceeds the maximum {bound}")
        return value

    return parse


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_map(path: str) -> PLHomeo:
    return PLHomeo.from_json(_load_json(path))


def _load_homeo(args, model: YModel) -> YHomeo:
    """The --homeo map, refusing --depth next to it, or else the arcwise
    map of depth --depth (DEFAULT_DEPTH when absent); either way checked
    against the model."""
    if args.homeo is not None:
        _refuse_flags(args, ("--depth",), "cannot be combined with --homeo")
        g = YHomeo.from_json(_load_json(args.homeo))
    else:
        g = build_arcwise_map(model, DEFAULT_DEPTH if args.depth is None else args.depth)
    validate_homeo(model, g)
    return g


def _refuse_flags(args, flags: tuple[str, ...], reason: str) -> None:
    """Input error naming the first of ``flags`` that was given."""
    for flag in flags:
        if getattr(args, flag[2:]) is not None:
            raise ValueError(f"{flag} {reason}")


def _witness(witness) -> tuple[str, int]:
    """A witness's JSON and EXIT_OK, or ``null`` and EXIT_UNSAT if there is none."""
    if witness is None:
        return "null\n", EXIT_UNSAT
    return dump_json(witness.to_json()), EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_build_fstar(args) -> tuple[str, int]:
    return dump_json(build_ternary_map(args.depth).to_json()), EXIT_OK


def cmd_check_peps(args) -> tuple[str, int]:
    f = _load_map(args.map)
    return _witness(check_chain_property(f, parse_rational(args.epsilon)))


def cmd_conjugate(args) -> tuple[str, int]:
    g = _load_map(args.map)
    return dump_json(build_conjugacy(g, args.depth).to_json()), EXIT_OK


def cmd_explode(args) -> tuple[str, int]:
    f = _load_map(args.map)
    g = explode_fixed_point(
        f, parse_rational(args.point), parse_rational(args.radius), Orientation(args.orient)
    )
    return dump_json(g.to_json()), EXIT_OK


def cmd_shadow(args) -> tuple[str, int]:
    if args.map is not None:
        _refuse_flags(args, _MODEL_FLAGS, "cannot be combined with --map")
    epsilon = parse_rational(args.epsilon)
    with open(args.orbit) as fh:
        orbit = orbit_from_csv(fh)
    on_model = isinstance(orbit.points[0], YPoint)
    if args.segments is not None:
        if not on_model:
            raise ValueError("orbit file holds interval points, not model points")
        model = build_arc_model(args.segments)
        g = _load_homeo(args, model)
        return _witness(shadow_on_arcs(model, g, orbit, epsilon, model.arcs))
    if args.map is None:
        raise ValueError("need --map or --segments")
    if on_model:
        raise ValueError("orbit file holds model points, not interval points")
    f = _load_map(args.map)
    s = shadowing_set(f, orbit, epsilon)
    return dump_json(s.to_json()), EXIT_UNSAT if s.is_empty else EXIT_OK


def cmd_modulus(args) -> tuple[str, int]:
    f = _load_map(args.map)
    epsilon = parse_rational(args.epsilon)
    delta = estimate_shadowing_modulus(f, epsilon, args.trials, args.seed)
    report = {
        "epsilon": rational_to_json(epsilon),
        "trials": args.trials,
        "seed": args.seed,
        "delta": rational_to_json(delta),
    }
    return dump_json(report), EXIT_OK if delta > 0 else EXIT_UNSAT


def cmd_build_y(args) -> tuple[str, int]:
    return dump_json(build_arc_model(args.segments).to_json()), EXIT_OK


def cmd_certify(args) -> tuple[str, int]:
    model = build_arc_model(args.segments)
    g = _load_homeo(args, model)
    epsilon = parse_rational(args.epsilon)
    config = {
        "seed": args.seed,
        "trials": args.trials,
        "epsilon": rational_to_json(epsilon),
        "depth": DEFAULT_DEPTH if args.depth is None else args.depth,
        "segments": model.M,
    }

    try:
        delta, certs, per_arc_failures, global_failures = certify_model(
            model, g, epsilon, args.trials, args.seed
        )
    except CoverFailure as exc:
        bundle = {
            "config": config,
            "status": "cover failure",
            "detail": str(exc),
            "uncovered": [p.to_json() for p in exc.uncovered],
        }
        return dump_json(bundle), EXIT_CERT

    bundle = {
        "config": config,
        "status": "ok" if not (per_arc_failures or global_failures) else "refuted",
        "certificates": [c.to_json() for c in certs],
        "global_delta": rational_to_json(delta),
        "cover": [[c.arc, rational_to_json(c.delta)] for c in certs],
        "sampling": {
            "per_arc_failures": per_arc_failures,
            "global_failures": global_failures,
        },
    }
    return dump_json(bundle), EXIT_OK if bundle["status"] == "ok" else EXIT_UNSAT


def cmd_render(args) -> tuple[str, int]:
    if args.map is not None:
        _refuse_flags(args, _MODEL_FLAGS, "applies only to a model, not to a map")
        return render_phase_diagram(_load_map(args.map)), EXIT_OK
    if args.segments is None:
        raise ValueError("need a map file or --segments")
    model = build_arc_model(args.segments)
    g = _load_homeo(args, model) if args.homeo is not None or args.depth is not None else None
    return render_model(model, g), EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="continua",
        description="Exact PL interval dynamics, shadowing, and arc-model certificates.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-fstar", help="build the depth-truncated alternating map")
    b.add_argument("--depth", type=_at_most(MAX_DEPTH), required=True)
    b.set_defaults(func=cmd_build_fstar)

    c = sub.add_parser("check-peps", help="decide the fine alternating-chain property")
    c.add_argument("map")
    c.add_argument("--epsilon", required=True)
    c.set_defaults(func=cmd_check_peps)

    j = sub.add_parser("conjugate", help="match a map against the ternary template")
    j.add_argument("map")
    j.add_argument("--depth", type=_at_most(MAX_DEPTH), required=True)
    j.set_defaults(func=cmd_conjugate)

    e = sub.add_parser("explode", help="explode a fixed stretch into a wandering interval")
    e.add_argument("map")
    e.add_argument("--point", required=True)
    e.add_argument("--radius", required=True)
    e.add_argument("--orient", choices=("R", "L"), required=True)
    e.set_defaults(func=cmd_explode)

    s = sub.add_parser("shadow", help="exact shadowing set / witness for an orbit file")
    s.add_argument("--map", default=None)
    s.add_argument("--segments", type=_at_most(MAX_SEGMENTS), default=None)
    s.add_argument("--homeo", default=None)
    s.add_argument("--depth", type=_at_most(MAX_DEPTH), default=None)
    s.add_argument("--orbit", required=True)
    s.add_argument("--epsilon", required=True)
    s.set_defaults(func=cmd_shadow)

    m = sub.add_parser("modulus", help="empirical shadowing modulus estimate")
    m.add_argument("map")
    m.add_argument("--epsilon", required=True)
    m.add_argument("--trials", type=_at_most(MAX_TRIALS), default=200)
    m.add_argument("--seed", type=_integer, default=0)
    m.set_defaults(func=cmd_modulus)

    y = sub.add_parser("build-y", help="build the truncated arc model")
    y.add_argument("--segments", type=_at_most(MAX_SEGMENTS), required=True)
    y.set_defaults(func=cmd_build_y)

    z = sub.add_parser("certify", help="full quasi-attractor certification pipeline")
    z.add_argument("--segments", type=_at_most(MAX_SEGMENTS), default=8)
    z.add_argument("--homeo", default=None)
    z.add_argument("--depth", type=_at_most(MAX_DEPTH), default=None)
    z.add_argument("--epsilon", required=True)
    z.add_argument("--trials", type=_at_most(MAX_TRIALS), default=200)
    z.add_argument("--seed", type=_integer, default=0)
    z.set_defaults(func=cmd_certify)

    r = sub.add_parser("render", help="SVG drawing of a map file or of the model")
    r.add_argument("map", nargs="?", default=None)
    r.add_argument("--segments", type=_at_most(MAX_SEGMENTS), default=None)
    r.add_argument("--homeo", default=None)
    r.add_argument("--depth", type=_at_most(MAX_DEPTH), default=None)
    r.set_defaults(func=cmd_render)

    for command in sub.choices.values():
        command.add_argument("--out", default=None)

    return p


def main(argv: list[str] | None = None) -> int:
    # artifacts carry integers of any length: lift the digit limit (none before 3.10.7) per run
    lifted = hasattr(sys, "set_int_max_str_digits")
    if lifted:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        text, code = args.func(args)
        _write(text, args.out)
        return code
    except (ExplosionSiteError, InsufficientIntervals) as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_UNSAT
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    finally:
        if lifted:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
