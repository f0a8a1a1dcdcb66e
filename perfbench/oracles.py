"""Exact per-operation oracles of the benchmark and their self-check.

Each oracle takes one finished operation and returns the list of problems
found; an empty list means the operation succeeded.  Rationals in the
artifacts are compared exactly, as ``fractions.Fraction``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

EPSILON = Fraction(1, 10)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rat(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def _load_bundle(op: dict, problems: list[str]) -> dict | None:
    """Parse a CLI bundle, checking its canonical bytes and its config."""
    data = op["artifact"]
    try:
        bundle = json.loads(data)
    except ValueError:
        problems.append("artifact is not JSON")
        return None
    if not isinstance(bundle, dict):
        problems.append("artifact is not a JSON object")
        return None
    if (json.dumps(bundle, sort_keys=True, indent=2) + "\n").encode() != data:
        problems.append("artifact is not in canonical JSON form")
    spec = op["spec"]
    config = bundle.get("config", {})
    want = {"seed": spec["s"], "trials": spec["trials"], "segments": spec["M"],
            "epsilon": ["1", "10"]}
    if {k: config.get(k) for k in want} != want:
        problems.append(f"config {config} does not echo the flags")
    return bundle


def arc_ids(M: int) -> set[str]:
    return {"circle"} | {f"h{i}" for i in range(1, M + 1)} | {f"v{i}" for i in range(1, M + 1)}


def check_certify(op: dict) -> list[str]:
    problems: list[str] = []
    if op["code"] != 0:
        problems.append(f"exit {op['code']}, expected 0")
    bundle = _load_bundle(op, problems)
    if bundle is None:
        return problems
    try:
        if bundle["status"] != "ok":
            problems.append(f"status {bundle['status']!r}, expected 'ok'")
        cover = {aid: _rat(d) for aid, d in bundle["cover"]}
        if len(cover) != len(bundle["cover"]) or set(cover) != arc_ids(op["spec"]["M"]):
            problems.append("cover does not list every arc once")
        if _rat(bundle["global_delta"]) != min(cover.values()):
            problems.append("global_delta is not the minimum of the cover")
        certs = bundle["certificates"]
        if {c["arc"] for c in certs} != set(cover) or len(certs) != len(cover):
            problems.append("certificates do not match the cover")
        for c in certs:
            eps, alpha = _rat(c["epsilon"]), _rat(c["alpha"])
            delta1, delta = _rat(c["delta1"]), _rat(c["delta"])
            if eps != EPSILON:
                problems.append(f"{c['arc']}: epsilon {eps}")
            if not 0 < alpha < min(eps / 2, delta1 / 3):
                problems.append(f"{c['arc']}: alpha out of range")
            if not 0 < delta < delta1 / 3:
                problems.append(f"{c['arc']}: delta not below delta1/3")
            if not delta * delta < _rat(c["separation_sq"]):
                problems.append(f"{c['arc']}: delta^2 not below separation_sq")
            if cover.get(c["arc"]) != delta:
                problems.append(f"{c['arc']}: cover delta differs from the certificate")
        sampling = bundle["sampling"]
        if sampling["per_arc_failures"] or sampling["global_failures"]:
            problems.append("sampled shadowing failures")
    except (KeyError, TypeError, ValueError, IndexError, AttributeError,
            ZeroDivisionError) as exc:
        problems.append(f"malformed bundle: {type(exc).__name__}: {exc}")
    return problems


def check_refuse(op: dict) -> list[str]:
    problems: list[str] = []
    if op["code"] != 3:
        problems.append(f"exit {op['code']}, expected 3")
    bundle = _load_bundle(op, problems)
    if bundle is None:
        return problems
    try:
        if bundle["status"] != "cover failure":
            problems.append(f"status {bundle['status']!r}, expected 'cover failure'")
        prefix = "cover failure: "
        detail = bundle["detail"]
        if not detail.startswith(prefix):
            problems.append("detail does not name the failing arcs")
        failing = {part.split(": ", 1)[0] for part in detail[len(prefix):].split("; ")}
        listed = {p["arc"] for p in bundle["uncovered"]}
        if not failing <= arc_ids(op["spec"]["M"]):
            problems.append(f"detail names unknown arcs {sorted(failing)}")
        if not failing <= listed:
            problems.append(f"failing arcs {sorted(failing - listed)} missing from uncovered")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems.append(f"malformed bundle: {type(exc).__name__}: {exc}")
    return problems


DEEP_WANDERING = 2 ** (9 + 1) - 1


def check_deep(op: dict) -> list[str]:
    problems: list[str] = []
    if op["code"] != 0:
        return [f"operation raised (code {op['code']})"]
    facts = op["facts"]
    try:
        if facts["wandering"] != DEEP_WANDERING:
            problems.append(f"{facts['wandering']} wandering intervals, expected {DEEP_WANDERING}")
        if facts["round_trip_is_identity"] is not True:
            problems.append("compose(g, invert(g)) is not identity()")
        if facts["witness_at_q"] is not False:
            problems.append("a chain witness exists at the optimum q")
        if facts["witness_quality"] is None:
            problems.append("no chain witness just above q")
        elif not Fraction(facts["q"]) <= Fraction(facts["witness_quality"]) < Fraction(facts["above"]):
            problems.append("witness quality outside [q, epsilon)")
        json.loads(op["artifact"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems


ORACLES = {"certify": check_certify, "refuse": check_refuse, "deep": check_deep}


def check(workload: str, op: dict, digest: str | None) -> list[str]:
    """All problems of one operation, including a pinned digest when given."""
    problems = ORACLES[workload](op)
    if digest is not None and sha256(op["artifact"]) != digest:
        problems.append("artifact digest differs from the pinned one")
    return problems


def self_check(workload: str, op: dict) -> list[str]:
    """Show that corrupted results of a passing operation count as failed.

    Returns the corruptions the oracle wrongly accepted (empty when sound):
    a wrong exit code, and one changed artifact byte checked against the
    digest of the true artifact.
    """
    missed = []
    digest = sha256(op["artifact"])
    if check(workload, op, digest):
        return ["the reference operation itself fails"]
    if not check(workload, dict(op, code=op["code"] + 1), digest):
        missed.append("wrong exit code")
    data = bytearray(op["artifact"])
    pos = next((i for i in range(len(data) // 2, len(data)) if chr(data[i]).isdigit()), 0)
    data[pos] = ord("0") + (data[pos] - ord("0") + 1) % 10
    if not check(workload, dict(op, artifact=bytes(data)), digest):
        missed.append(f"artifact byte {pos} changed")
    return missed
