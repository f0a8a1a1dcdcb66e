"""Seeded fuzzing of the CLI's wire inputs: every single-field mutation of a
valid map, homeomorphism or orbit file gives an exit code of the protocol
(0, 1 or 2, and 3 for ``certify``), never an exception out of ``cli.main``."""

import copy
import json
import random

import pytest

from continua.cantor import build_ternary_map
from continua.cli import main
from continua.continuum import build_arc_model, build_arcwise_map

# Values a mutated JSON field takes: float, bool, null, Infinity, NaN, a
# nested list, an empty list and a 5000-digit string.
BAD_JSON = [1.5, True, False, None, float("inf"), float("nan"), [["1", "2"]], [], "9" * 5000]

# Lists nested 100000 deep, spliced into the JSON text in place of a field:
# json.dumps could not write them, and json.load overflows the stack on them.
DEEP = "[" * 100_000 + "]" * 100_000

# Spellings that int() reads as 10, 1 and 1, but that are not integer literals.
BAD_INTEGERS = ["1_0", "+1", "\u0661"]

# Values a mutated rational or index CSV field takes, a field longer than
# the csv module's limit among them.
BAD_FIELDS = ["1/0", "1.5", "x", "", "inf", "nan", "1/", "/2", "1/2/3", "-", "9" * 5000,
              "1" * 200_000, *BAD_INTEGERS]

INTERVAL_ORBIT = [["index", "point"], ["-1", "1/20"], ["0", "1/10"], ["1", "3/20"]]
MODEL_ORBIT = [["index", "arc", "t"], ["0", "h2", "1/2"], ["1", "h2", "7/12"]]


def _paths(obj, prefix=()):
    """Every path into a JSON tree, the root's empty path included."""
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _get(obj, path: tuple):
    for key in path:
        obj = obj[key]
    return obj


def _pair_paths(obj) -> list[tuple]:
    """Paths of the [num, den] pairs in a JSON tree."""
    return [
        path
        for path in _paths(obj)
        if isinstance(node := _get(obj, path), list)
        and len(node) == 2
        and all(isinstance(v, str) for v in node)
    ]


def _replace(obj, path: tuple, value):
    if not path:
        return value
    out = copy.deepcopy(obj)
    _get(out, path[:-1])[path[-1]] = value
    return out


def mutate_json(obj, rng: random.Random) -> str:
    """The JSON text of ``obj`` with one field replaced by a bad value or by
    deep nesting, or one rational pair given a zero, negative or malformed
    denominator."""
    if rng.randrange(4) == 0:
        path = rng.choice(_pair_paths(obj))
        num, den = _get(obj, path)
        bad = rng.choice(["0", "-" + den, 0, -3, *BAD_INTEGERS])
        return json.dumps(_replace(obj, path, [num, bad]))
    path = rng.choice(list(_paths(obj)))
    if rng.randrange(8) == 0:
        return json.dumps(_replace(obj, path, "@deep@")).replace('"@deep@"', DEEP)
    # json.dumps writes inf and nan as Infinity and NaN, which are fuzzed too
    return json.dumps(_replace(obj, path, rng.choice(BAD_JSON)))


def mutate_csv(rows: list[list[str]], rng: random.Random) -> str:
    """The CSV of ``rows`` with one field dropped, one index made
    non-integer, one extra column, or one bad rational."""
    rows = [list(r) for r in rows]
    kind = rng.randrange(4)
    if kind == 0:
        row = rng.choice(rows)
        del row[rng.randrange(len(row))]
    elif kind == 1:
        rng.choice(rows[1:])[0] = rng.choice(["1.5", "x", "", "1e3", "0x1", *BAD_INTEGERS])
    elif kind == 2:
        rng.choice(rows).append(rng.choice(["7", "1/2", "extra"]))
    else:
        rng.choice(rows[1:])[-1] = rng.choice(BAD_FIELDS)
    return _csv_text(rows)


def _csv_text(rows: list[list[str]]) -> str:
    return "".join(",".join(r) + "\n" for r in rows)


def _write(path, text: str):
    path.write_text(text)
    return path


@pytest.fixture()
def files(tmp_path):
    return {
        "map": build_ternary_map(2).to_json(),
        "homeo": build_arcwise_map(build_arc_model(2), 2).to_json(),
        "dir": tmp_path,
    }


def _run(argv, capsys) -> int:
    code = main([str(a) for a in argv])
    capsys.readouterr()
    return code


def test_mutated_inputs_exit_cleanly(files, capsys):
    rng = random.Random(2024)
    d = files["dir"]
    out = d / "out"
    good_interval = _write(d / "good_interval.csv", _csv_text(INTERVAL_ORBIT))
    good_model = _write(d / "good_model.csv", _csv_text(MODEL_ORBIT))
    codes = []
    certify_codes = []
    for _ in range(100):
        bad_map = _write(d / "map.json", mutate_json(files["map"], rng))
        for argv in (
            ["check-peps", bad_map, "--epsilon", "1/8"],
            ["shadow", "--map", bad_map, "--orbit", good_interval, "--epsilon", "1/20"],
            ["render", bad_map],
            ["explode", bad_map, "--point", "1/54", "--radius", "1/108", "--orient", "L"],
            ["conjugate", bad_map, "--depth", 2],
            ["modulus", bad_map, "--epsilon", "1/8", "--trials", 1],
        ):
            codes.append(_run([*argv, "--out", out], capsys))
        bad_homeo = _write(d / "homeo.json", mutate_json(files["homeo"], rng))
        for argv in (
            ["shadow", "--segments", 2, "--homeo", bad_homeo, "--orbit", good_model,
             "--epsilon", "1/10"],
            ["render", "--segments", 2, "--homeo", bad_homeo],
        ):
            codes.append(_run([*argv, "--out", out], capsys))
        certify_codes.append(
            _run(["certify", "--segments", 2, "--homeo", bad_homeo, "--epsilon", "1/10",
                  "--trials", 1, "--out", out], capsys)
        )
    good_map = _write(d / "good_map.json", json.dumps(files["map"]))
    good_homeo = _write(d / "good_homeo.json", json.dumps(files["homeo"]))
    for _ in range(100):
        orbit = _write(d / "orbit.csv", mutate_csv(INTERVAL_ORBIT, rng))
        codes.append(
            _run(["shadow", "--map", good_map, "--orbit", orbit, "--epsilon", "1/20",
                  "--out", out], capsys)
        )
        orbit = _write(d / "orbit.csv", mutate_csv(MODEL_ORBIT, rng))
        codes.append(
            _run(["shadow", "--segments", 2, "--homeo", good_homeo, "--orbit", orbit,
                  "--epsilon", "1/10", "--out", out], capsys)
        )
    assert set(codes) <= {0, 1, 2} and set(certify_codes) <= {0, 1, 2, 3}
    # most mutations are input errors, and some leave a well-formed input
    assert codes.count(2) > len(codes) // 2 and {0, 1} & set(codes)
