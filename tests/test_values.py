"""The package's immutable value classes against frozen dataclass twins.

Each class takes its ``__init__``, which stores the fields named in its
``_fields`` and runs its ``__post_init__``, and its assignment refusal,
``__eq__``, ``__hash__`` and ``__repr__`` from one base in ``plmap``.  Its
twin (``conftest.dataclass_twin``) is the frozen dataclass with the same
name, fields and ``__post_init__``, so the two must agree on every sample:
same ``repr``, same answers to ``==`` and ``!=``, same hash (set and dict
order rest on it), same refusals.
"""

from __future__ import annotations

from fractions import Fraction as F
from itertools import product

import pytest

from continua.cantor import ChainWitness, ConjugacyReport, TernaryIndex
from continua.continuum import Arc, YHomeo, YModel, YPoint, build_arc_model
from continua.plmap import Orientation, OrientedInterval, PLHomeo, _Frozen, _json, identity
from continua.shadowing import (
    InwardNeighborhood,
    PseudoOrbit,
    QuasiAttractorCertificate,
    ShadowingSet,
    Stub,
)

from conftest import dataclass_twin

R, L = Orientation.R, Orientation.L
IV = OrientedInterval(F(1, 3), F(2, 3), R)
IV_L = OrientedInterval(F(7, 9), F(8, 9), L)
SEG = ((F(0), F(0)), (F(1, 2), F(0)))
STUB = Stub("h2", 0, F(1, 4))
NB = InwardNeighborhood("h1", (STUB, Stub("v1", 1, F(3, 4))))
MODEL_1 = build_arc_model(1)

# per class: constructor argument lists, two of them equal where the class
# is hashable, and the argument lists its __post_init__ refuses
CASES = {
    TernaryIndex: ([(0, 0), (1, 2), (1, 2), (2, 0)], [(-1, 0), (1, 3), (0, 1)]),
    OrientedInterval: (
        [(F(1, 3), F(2, 3), R), (F(1, 3), F(2, 3), L), (F(1, 3), F(2, 3), R), (0, 1, R)],
        [(F(1, 2), F(1, 2), R), (1, 0, L)],
    ),
    ChainWitness: (
        [((IV,), F(1, 2)), ((IV, IV_L), F(1, 2)), ((IV,), F(1, 2)), ((IV,), F(1, 3))],
        [((), F(1, 2)), ((IV_L,), F(1, 2)), ((IV, IV), F(1, 2)), ((IV_L, IV), F(1, 2))],
    ),
    ConjugacyReport: (
        [
            (identity(), 1, ((IV, TernaryIndex(0, 0)),), F(0)),
            (identity(), 1, ((IV, TernaryIndex(0, 0)),), F(0)),
            (identity(), 2, ((IV, TernaryIndex(0, 0)),), F(0)),
            (PLHomeo((F(0), F(1, 2), F(1)), (F(0), F(1, 3), F(1))), 1, (), F(1, 9)),
        ],
        [],
    ),
    Arc: (
        [
            ("h1", "a", "b", "segment", SEG, F(1, 2), F(1, 2)),
            ("h1", "a", "b", "segment", SEG, F(1, 2), F(1, 2)),
            ("h1", "a", "b", "segment", SEG, F(1, 3), F(1, 2)),
            ("v1", "b", "t", "segment", ((F(0), F(0)), (F(0), F(1))), F(1), F(1)),
        ],
        [
            ("h1", "a", "b", "segment", SEG, F(0), F(1)),
            ("h1", "a", "b", "segment", SEG, F(1), F(1, 2)),
            ("h1", "a", "b", "segment", SEG[::-1], F(1, 2), F(1, 2)),
        ],
    ),
    YPoint: (
        [("h1", F(1, 2)), ("h1", F(1, 2)), ("h1", 1), ("v1", F(1, 2))],
        [("h1", F(3, 2)), ("h1", -1)],
    ),
    YModel: (
        [
            (1, MODEL_1.vertices, MODEL_1.arcs),
            (1, dict(MODEL_1.vertices), MODEL_1.arcs),
            (2, MODEL_1.vertices, MODEL_1.arcs),
        ],
        [],
    ),
    YHomeo: (
        [({"h1": identity()},), ({"h1": identity()},), ({"h1": identity(), "v1": identity()},)],
        [],
    ),
    PseudoOrbit: (
        [((F(0), F(1, 2)), 0), ((F(0), F(1, 2)), 1), ((F(0), F(1, 2)), 0), ((F(0),), 0)],
        [((), 0), ((F(0),), 1), ((F(0),), -1)],
    ),
    ShadowingSet: (
        [(None, F(1, 10)), ((F(0), F(1)), F(1, 10)), (None, F(1, 10)), (None, F(1, 9))],
        [],
    ),
    Stub: ([("h2", 0, F(1, 4)), ("h2", 1, F(1, 4)), ("h2", 0, F(1, 4))], []),
    InwardNeighborhood: ([("h1", (STUB,)), ("h1", ()), ("h1", (STUB,)), ("h2", (STUB,))], []),
    QuasiAttractorCertificate: (
        [
            ("h1", F(1, 10), F(1, 20), F(1, 100), NB, F(1, 64), F(1, 400)),
            ("h1", F(1, 10), F(1, 20), F(1, 100), NB, F(1, 64), F(1, 400)),
            ("h1", F(1, 10), F(1, 20), F(1, 100), NB, F(1, 20), F(1, 400)),
        ],
        [],
    ),
}
UNHASHABLE = {YModel, YHomeo}


@pytest.fixture(params=list(CASES), ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_cases_cover_every_value_class():
    assert set(_Frozen.__subclasses__()) - {PLHomeo} == set(CASES)
    assert len(CASES) == 13


def test_repr_eq_hash_match_twin(cls):
    twin = dataclass_twin(cls)
    good, _ = CASES[cls]
    ours = [cls(*args) for args in good]
    theirs = [twin(*args) for args in good]
    for x, tx in zip(ours, theirs):
        assert repr(x) == repr(tx)
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(x)
            with pytest.raises(TypeError):
                hash(tx)
        else:
            assert hash(x) == hash(tx)
    pairs = list(product(range(len(good)), repeat=2))
    assert [ours[i] == ours[j] for i, j in pairs] == [theirs[i] == theirs[j] for i, j in pairs]
    assert [ours[i] != ours[j] for i, j in pairs] == [theirs[i] != theirs[j] for i, j in pairs]
    # the samples hold both answers, and no value equals another class's,
    # a subclass's with equal fields included
    assert any(ours[i] == ours[j] for i, j in pairs if i != j)
    assert any(ours[i] != ours[j] for i, j in pairs)
    assert ours[0] != theirs[0] and not ours[0] == theirs[0]
    assert ours[0] != object()
    sub = type(cls.__name__, (cls,), {})(*good[0])
    tsub = type(twin.__name__, (twin,), {})(*good[0])
    assert (sub == ours[0], sub != ours[0]) == (tsub == theirs[0], tsub != theirs[0])
    assert sub != ours[0]


def test_refusals_match_twin(cls):
    twin = dataclass_twin(cls)
    _, bad = CASES[cls]
    for args in bad:
        with pytest.raises(Exception) as ours:
            cls(*args)
        with pytest.raises(Exception) as theirs:
            twin(*args)
        assert (type(ours.value), str(ours.value)) == (type(theirs.value), str(theirs.value))


def test_argument_count_refusals_match_twin(cls):
    twin = dataclass_twin(cls)
    args = CASES[cls][0][0]
    for wrong in (args[:-1], (*args, args[-1])):
        with pytest.raises(Exception) as ours:
            cls(*wrong)
        with pytest.raises(Exception) as theirs:
            twin(*wrong)
        assert type(ours.value) is type(theirs.value) is TypeError


def test_immutable(cls):
    x = cls(*CASES[cls][0][0])
    for name in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == repr(cls(*CASES[cls][0][0]))


def test_cached_properties():
    arc = Arc(*CASES[Arc][0][0])
    records = arc._segment_ints
    assert arc._segment_ints is records and len(records) == 1
    assert arc == Arc(*CASES[Arc][0][0])
    assert MODEL_1.arc("h1") is MODEL_1._arcs_by_id["h1"]
    assert NB.kept == {"h2": (F(1, 4), F(1)), "v1": (F(0), F(3, 4))}
    assert NB.kept is NB.kept
    with pytest.raises(AttributeError):
        NB.kept = {}


def test_one_json_rule():
    # _Frozen.to_json writes each field by name: a Fraction as its string
    # pair, a value class by its own to_json, a tuple as a list, a dict by
    # value, and anything else as it is
    stub_v1 = {"arc": "v1", "end": 1, "cut": ["3", "4"]}
    assert STUB.to_json() == {"arc": "h2", "end": 0, "cut": ["1", "4"]}
    assert NB.to_json() == {"arc": "h1", "stubs": [STUB.to_json(), stub_v1]}
    cert = QuasiAttractorCertificate(*CASES[QuasiAttractorCertificate][0][0])
    assert cert.to_json() == {
        "arc": "h1", "epsilon": ["1", "10"], "delta1": ["1", "20"], "alpha": ["1", "100"],
        "neighborhood": NB.to_json(), "delta": ["1", "64"], "separation_sq": ["1", "400"],
    }
    assert TernaryIndex(1, 2).to_json() == {"n": 1, "k": 2}
    assert ChainWitness((IV, IV_L), F(1, 2)).to_json() == {
        "intervals": [IV.to_json(), IV_L.to_json()], "epsilon": ["1", "2"],
    }
    assert YPoint("h1", 1).to_json() == {"arc": "h1", "t": ["1", "1"]}
    assert _json({"a": (F(-1, 2), None, 3)}) == {"a": [["-1", "2"], None, 3]}
