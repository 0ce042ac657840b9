"""What every value type of the package promises: a tuple of its fields,
immutable, built by position or keyword, equal and hashed by value, a
``Name(field=value)`` repr, and input validation that raises InputError, also
through ``_replace`` and ``_make``."""
import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import polygcd
from polygcd import (
    AtlasEntry,
    BruteForceProfile,
    Factorization,
    GcdAtlas,
    IntMatrix,
    IntPoly,
    MonicIntPoly,
    NotSquarefree,
    SnfResult,
    ZeroResultant,
)
from polygcd.errors import InputError

F = MonicIntPoly((1, 0, 3))
G = MonicIntPoly((1, 2, 4))
FACT = Factorization(-12, ((2, 2), (3, 1)))
I2 = IntMatrix(2, 2, (1, 0, 0, 1))

# (type, its fields in order, their values, the same with one field changed)
VALUES = [
    (AtlasEntry, ("divisor", "multiplicity", "residues"), (13, 1, (5,)), (13, 1, (6,))),
    (
        GcdAtlas,
        ("factorization", "roots", "entries"),
        (Factorization(13, ((13, 1),)), {13: 5}, (AtlasEntry(13, 1, (5,)),)),
        (Factorization(13, ((13, 1),)), {13: 6}, (AtlasEntry(13, 1, (5,)),)),
    ),
    (ZeroResultant, ("common_factor", "sample_values"), (F, (3, 4)), (G, (3, 4))),
    (
        NotSquarefree,
        ("factorization", "histogram", "period", "witness", "common_prime"),
        (FACT, {1: 8, 3: 4}, 6, 0, None),
        (FACT, {1: 8, 3: 4}, 12, None, 2),
    ),
    (BruteForceProfile, ("modulus", "values", "histogram"), (2, (1, 2), {1: 1, 2: 1}), (2, (2, 1), {1: 1, 2: 1})),
    (SnfResult, ("d", "U", "V"), ((1, 1), I2, I2), ((1, 2), I2, I2)),
    (IntPoly, ("coeffs",), ((2, 0, -1),), ((2, 0, 1),)),
    (MonicIntPoly, ("coeffs",), ((1, 0, 3),), ((1, 2, 4),)),
    (IntMatrix, ("rows", "cols", "entries"), (1, 2, (3, -4)), (2, 1, (3, -4))),
    (Factorization, ("n", "factors"), (-12, ((2, 2), (3, 1))), (12, ((2, 2), (3, 1)))),
]
IDS = [cls.__name__ for cls, *_ in VALUES]


@pytest.mark.parametrize("cls, names, values, other", VALUES, ids=IDS)
def test_construction_by_position_and_keyword(cls, names, values, other):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for value in by_position, by_keyword:
        assert type(value) is cls
        assert tuple(getattr(value, name) for name in names) == values
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls, names, values, other", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, other):
    value = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, values[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert tuple(getattr(value, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, other", VALUES, ids=IDS)
def test_equality_and_hash_by_value(cls, names, values, other):
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != object()
    if any(isinstance(v, dict) for v in values):
        # A dict field makes the value unhashable, as it makes a tuple.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2


@pytest.mark.parametrize("cls, names, values, other", VALUES, ids=IDS)
def test_values_are_tuples_of_their_fields(cls, names, values, other):
    value = cls(*values)
    first, *rest = value
    assert isinstance(value, tuple) and value == values and (first, *rest) == values
    assert value[0] is getattr(value, names[0])


def test_values_order_like_tuples():
    assert sorted([IntPoly((1, 1)), IntPoly((1, 0)), IntPoly((-1,))]) == [((-1,),), ((1, 0),), ((1, 1),)]
    assert IntMatrix(1, 2, (3, 4)) < IntMatrix(2, 1, (0, 0)) and FACT < Factorization(12, ((2, 2), (3, 1)))


@pytest.mark.parametrize("cls, names, values, other", VALUES, ids=IDS)
def test_repr_names_every_field(cls, names, values, other):
    body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, names, values, other", VALUES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, names, values, other):
    value = cls(*values)
    for clone in copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)):
        assert type(clone) is cls
        assert clone == value


@pytest.mark.parametrize(
    "build",
    [
        lambda: MonicIntPoly((5,)),
        lambda: MonicIntPoly(()),
        lambda: MonicIntPoly((2, 1)),
        lambda: MonicIntPoly(coeffs=(0, 0, 3, 1)),
        lambda: IntMatrix(0, 2, ()),
        lambda: IntMatrix(2, -1, ()),
        lambda: IntMatrix(2, 2, (1, 2, 3)),
        lambda: IntMatrix(rows=1, cols=2, entries=(1, 2, 3)),
        lambda: Factorization(0, ()),
        lambda: Factorization(12, ((3, 1), (2, 2))),
        lambda: Factorization(12, ((2, 2), (3, 0), (3, 1))),
        lambda: Factorization(12, ((2, 1), (3, 1))),
        lambda: Factorization(n=-5, factors=()),
        # _replace and _make build through the same checks
        lambda: MonicIntPoly((1, 3))._replace(coeffs=(2, 3)),
        lambda: IntMatrix._make((2, 2, (1, 2, 3))),
        lambda: Factorization._make((12, ((2, 1), (3, 1)))),
        lambda: I2._replace(entries=(1, 0, 0)),
        lambda: FACT._replace(n=24),
    ],
)
def test_every_validation_raises_input_error(build):
    with pytest.raises(InputError):
        build()


@pytest.mark.parametrize("cls, names, values, other", VALUES, ids=IDS)
def test_replace_and_make_return_the_same_type(cls, names, values, other):
    value = cls(*values)
    changed = value._replace(**{name: new for name, old, new in zip(names, values, other) if old != new})
    assert type(changed) is cls and changed == cls(*other)
    assert type(cls._make(values)) is cls and cls._make(values) == value


def test_monic_names_a_leading_coefficient_too_long_to_print_by_its_digits():
    # 2^16000 has 4817 digits; formatting it would raise the interpreter's
    # ValueError, so the message counts its digits instead.
    with pytest.raises(InputError) as exc:
        MonicIntPoly.parse("2^16000*x+1")
    assert str(exc.value) == "is not monic: leading coefficient has 4817 digits, expected 1"


def test_cli_import_loads_no_dataclasses_json_or_decimal():
    # Each CLI call is a fresh process, so what the import loads is paid
    # on every call; json and decimal load only on the paths that use them.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import polygcd.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "polygcd.cli.main(['analyze', '--f', 'x^2+3', '--g', '(x+1)^2+3', '--json'])\n"
        "polygcd.cli.main(['analyze', '--f', '2^16000*x+1', '--g', 'x'])\n"
    )
    src = str(Path(polygcd.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    added, _, doc = run.stdout.partition("\n")
    assert "polygcd.cli" in added.split()
    assert not {"dataclasses", "inspect", "json", "decimal"} & set(added.split())
    assert json.loads(doc)["resultant"] == "13"
    assert run.stderr == (
        "error: '2^16000*x+1' is not monic: leading coefficient has 4817 digits,"
        " expected 1\n"
    )
