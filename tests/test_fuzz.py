"""Seeded fuzzing of the CLI's wire inputs: every single-field mutation of a
valid map, homeomorphism or orbit file gives exit 0, 1 or 2, never an
exception out of ``cli.main``."""

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

# Values a mutated rational or index CSV field takes.
BAD_FIELDS = ["1/0", "1.5", "x", "", "inf", "nan", "1/", "/2", "1/2/3", "-", "9" * 5000]

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


def mutate_json(obj, rng: random.Random):
    """One field of ``obj`` replaced by a bad value, or one rational pair
    given a zero or negative denominator."""
    if rng.randrange(4) == 0:
        path = rng.choice(_pair_paths(obj))
        num, den = _get(obj, path)
        return _replace(obj, path, [num, rng.choice(["0", "-" + den, 0, -3])])
    return _replace(obj, rng.choice(list(_paths(obj))), rng.choice(BAD_JSON))


def mutate_csv(rows: list[list[str]], rng: random.Random) -> str:
    """The CSV of ``rows`` with one field dropped, one index made
    non-integer, one extra column, or one bad rational."""
    rows = [list(r) for r in rows]
    kind = rng.randrange(4)
    if kind == 0:
        row = rng.choice(rows)
        del row[rng.randrange(len(row))]
    elif kind == 1:
        rng.choice(rows[1:])[0] = rng.choice(["1.5", "x", "", "1e3", "0x1"])
    elif kind == 2:
        rng.choice(rows).append(rng.choice(["7", "1/2", "extra"]))
    else:
        rng.choice(rows[1:])[-1] = rng.choice(BAD_FIELDS)
    return "".join(",".join(r) + "\n" for r in rows)


def _write_json(path, obj):
    # json.dumps writes inf and nan as Infinity and NaN, which are fuzzed too
    path.write_text(json.dumps(obj))
    return path


@pytest.fixture()
def files(tmp_path):
    model = build_arc_model(2)
    return {
        "map": build_ternary_map(2).to_json(),
        "homeo": build_arcwise_map(model, 2).to_json(),
        "model": _write_json(tmp_path / "y.json", model.to_json()),
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
    good_interval = d / "good_interval.csv"
    good_interval.write_text("".join(",".join(r) + "\n" for r in INTERVAL_ORBIT))
    good_model = d / "good_model.csv"
    good_model.write_text("".join(",".join(r) + "\n" for r in MODEL_ORBIT))
    codes = []
    for _ in range(100):
        bad_map = _write_json(d / "map.json", mutate_json(files["map"], rng))
        codes.append(_run(["check-peps", bad_map, "--epsilon", "1/8", "--out", out], capsys))
        codes.append(
            _run(["shadow", "--map", bad_map, "--orbit", good_interval, "--epsilon", "1/20",
                  "--out", out], capsys)
        )
        bad_homeo = _write_json(d / "homeo.json", mutate_json(files["homeo"], rng))
        codes.append(
            _run(["shadow", "--model", files["model"], "--homeo", bad_homeo, "--orbit",
                  good_model, "--epsilon", "1/10", "--out", out], capsys)
        )
    good_map = _write_json(d / "good_map.json", files["map"])
    good_homeo = _write_json(d / "good_homeo.json", files["homeo"])
    for _ in range(100):
        orbit = d / "orbit.csv"
        orbit.write_text(mutate_csv(INTERVAL_ORBIT, rng))
        codes.append(
            _run(["shadow", "--map", good_map, "--orbit", orbit, "--epsilon", "1/20",
                  "--out", out], capsys)
        )
        orbit.write_text(mutate_csv(MODEL_ORBIT, rng))
        codes.append(
            _run(["shadow", "--model", files["model"], "--homeo", good_homeo, "--orbit", orbit,
                  "--epsilon", "1/10", "--out", out], capsys)
        )
    assert set(codes) <= {0, 1, 2}
    # most mutations are input errors, and some leave a well-formed input
    assert codes.count(2) > len(codes) // 2 and {0, 1} & set(codes)
