"""The one range rule of the three config classes: each number field declares
its interval on its annotation, and a built config holds only values inside it.

The property draws JSON-like values, as a config file can hold, for each
field: building the config either raises the class's own error, naming the
field first, or gives a config whose value is in the field's interval and,
in a float field, converts to a finite float.
"""

import ast
import dataclasses
import inspect
import math
import re
import textwrap
import typing

import pytest
from hypothesis import given, settings, strategies as st

from onebt.data import DataError, SynthSpec
from onebt.model import ModelConfig
from onebt.tensor import ConfigError
from onebt.train import TrainConfig

# On a failure hypothesis's pytest plugin imports libcst, whose import warns
# through mypy_extensions; as an error that warning would hide the failure.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

ERRORS = {ModelConfig: ConfigError, TrainConfig: ConfigError, SynthSpec: DataError}
# number fields that may hold any finite value
UNBOUNDED = {"SynthSpec.amplitude_scale"}
INTERVAL = re.compile(r"[\[(](-?\d+), (\d+|inf)[\])]")


def _split(tp):
    """(the types a field takes, its declared interval or None)."""
    tp, interval = typing.get_args(tp) if typing.get_origin(tp) is typing.Annotated else (tp, None)
    return typing.get_args(tp) or (tp,), interval


def _in(v, interval):
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    return (type(v) in (int, float)
            and (v > lo if interval[0] == "(" else v >= lo)
            and (v < hi if interval[-1] == ")" else v <= hi))


def test_every_number_field_declares_its_interval():
    bare, malformed = set(), set()
    for cls in ERRORS:
        for f in dataclasses.fields(cls):
            types, interval = _split(f.type)
            if {int, float} & set(types) and interval is None:
                bare.add(f"{cls.__name__}.{f.name}")
            if interval is not None and not INTERVAL.fullmatch(interval):
                malformed.add(f"{cls.__name__}.{f.name}")
    assert bare == UNBOUNDED
    assert malformed == set()


def _compares(cls):
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__post_init__)))
    return [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)]


def test_post_init_holds_no_hand_written_range_check():
    """check_field_types enforces every declared interval; the one comparison
    left is the count of betas, which no interval can state."""
    assert {cls.__name__: _compares(cls) for cls in ERRORS} == {
        "ModelConfig": [], "TrainConfig": ["len(self.betas) != 2"], "SynthSpec": []}


SCALARS = st.one_of(
    st.integers(-3, 70_000), st.integers(), st.integers(-(10 ** 400), 10 ** 400),
    st.floats(), st.floats(-1.0, 2.0), st.booleans(), st.text(max_size=3), st.none())
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3))
FIELDS = [(cls, f) for cls in ERRORS for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls, f", FIELDS, ids=[f"{c.__name__}.{f.name}" for c, f in FIELDS])
@settings(max_examples=100)       # one field's values need fewer draws than the profile's 300
@given(value=VALUES)
def test_config_is_built_in_range_or_refused_by_field(cls, f, value):
    """Every range rule is on one field, so each field gets its own draws. A
    SynthSpec whose window cannot be one record is refused as `cannot store ...`."""
    try:
        value = getattr(cls(**{f.name: value}), f.name)
    except ERRORS[cls] as e:
        assert str(e).startswith((f"{f.name} ", "cannot store")), str(e)
        return
    types, interval = _split(f.type)
    if float in types and value is not None:
        assert math.isfinite(float(value))
    if interval is not None and value is not None:
        assert all(_in(v, interval) for v in (value if isinstance(value, tuple) else (value,)))
