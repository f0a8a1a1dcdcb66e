"""Child processes of the benchmark.

``worker.py cli --op ID (--spans FILE | --speed FILE) -- ARGS...`` runs
``continua ARGS`` once.  With ``--spans`` the tracer is installed and the
spans are appended to FILE; with ``--speed`` the run is untraced and its
sampled speed (see ``reference.py``) is written to FILE as JSON.  The exit
code is the command's.

``worker.py deep --specs FILE --out DIR [--untraced N] [--traced N]
[--spans FILE]`` is the fresh worker of the ``deep`` workload.  It runs the
first N operations of FILE untraced, sampling their speed, then (when
asked) installs the tracer and runs the first N traced operations again,
writing each operation's artifact to DIR and one JSON report to stdout.

Both expect ``continua`` importable from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import continua
import continua.cli
from continua import cantor, plmap

import reference
from spans import Tracer

DEEP_LEVELS = 9


def dump_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def deep_op(f9, A):
    """One ``deep`` operation: conjugate, round-trip, compare, chain DP, match."""
    g = plmap.compose(A, plmap.compose(f9, plmap.invert(A)))
    round_trip = plmap.compose(g, plmap.invert(g))
    distance = plmap.c0_distance(g, f9)
    ivs = plmap.wandering_intervals(g)
    q = cantor.best_chain_quality(ivs)
    above = q + q / 1000
    at_q = cantor.check_chain_property(g, q)
    witness = cantor.check_chain_property(g, above)
    report = cantor.build_conjugacy(g, 4)
    return g, round_trip, distance, ivs, q, above, at_q, witness, report


def deep_facts(result) -> tuple[dict, bytes]:
    """The facts the oracle checks, and the artifact whose digest is pinned."""
    g, round_trip, distance, ivs, q, above, at_q, witness, report = result
    facts = {
        "wandering": len(ivs),
        "round_trip_is_identity": round_trip == plmap.identity(),
        "q": str(q),
        "above": str(above),
        "witness_at_q": at_q is not None,
        "witness_quality": None if witness is None else str(witness.quality()),
    }
    artifact = {
        "g": g.to_json(),
        "c0_distance": str(distance),
        "q": str(q),
        "witness": None if witness is None else witness.to_json(),
        "conjugacy": report.to_json(),
    }
    return facts, dump_json(artifact)


def run_deep(args) -> int:
    with open(args.specs) as fh:
        specs = json.load(fh)
    f9 = cantor.build_ternary_map(DEEP_LEVELS)
    maps = [plmap.PLHomeo.from_json(s["A"]) for s in specs]

    def run(indices, tracer=None, tag=""):
        out = []
        for i in indices:
            start = time.perf_counter()
            speed = None
            try:
                if tracer:
                    result = tracer.run_op(i, deep_op, f9, maps[i])
                else:
                    with reference.Speedometer() as speed:
                        result = deep_op(f9, maps[i])
                code = 0
            except Exception as exc:  # the oracle counts the failed operation
                result, code = None, 1
                sys.stderr.write(f"deep op {i}: {type(exc).__name__}: {exc}\n")
            wall = time.perf_counter() - start
            scaled = 0.0
            if speed is not None and code == 0:
                wall, scaled = speed.wall_s, speed.scaled_s
            facts, artifact = deep_facts(result) if result is not None else ({}, b"")
            path = f"{args.out}/deep-{i}{tag}.json"
            with open(path, "wb") as fh:
                fh.write(artifact)
            out.append({"op": i, "code": code, "wall_s": wall, "scaled_s": scaled,
                        "facts": facts, "artifact": path})
        return out

    report = {"untraced": run(range(args.untraced))}
    if args.traced:
        tracer = Tracer()
        tracer.install(continua)
        report["traced"] = run(range(args.traced), tracer, "-traced")
        tracer.dump(args.spans)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


def run_cli(args) -> int:
    if args.speed:
        speed = reference.Speedometer()
        try:
            with speed:
                code = continua.cli.main(args.argv)
        except SystemExit as exc:  # argparse exits on bad flags
            code = exc.code if isinstance(exc.code, int) else 2
        with open(args.speed, "w") as fh:
            json.dump({"wall_s": speed.wall_s, "scaled_s": speed.scaled_s,
                       "probe_s": speed.probe_s, "ref_s": speed.ref_s}, fh)
        return code
    tracer = Tracer()
    tracer.install(continua)
    try:
        code = tracer.run_op(args.op, continua.cli.main, args.argv)
    except SystemExit as exc:  # argparse exits on bad flags
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.dump(args.spans)
    return code


def main() -> int:
    p = argparse.ArgumentParser(prog="worker.py")
    sub = p.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("cli")
    c.add_argument("--op", type=int, required=True)
    how = c.add_mutually_exclusive_group(required=True)
    how.add_argument("--spans")
    how.add_argument("--speed")
    c.add_argument("argv", nargs=argparse.REMAINDER)
    d = sub.add_parser("deep")
    d.add_argument("--specs", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--untraced", type=int, default=0)
    d.add_argument("--traced", type=int, default=0)
    d.add_argument("--spans", default=None)
    args = p.parse_args()
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return run_cli(args)
    return run_deep(args)


if __name__ == "__main__":
    sys.exit(main())
