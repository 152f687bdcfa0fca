"""The frozen record base keeps what @dataclass(frozen=True) gave the value
classes: fields from their own annotations, value equality within one
class, hashing, a dataclass-style repr, refused assignment and the
__post_init__ checks."""

from typing import get_type_hints

import pytest

from ic_alloc.baselines import ThinningSpec
from ic_alloc.design import ICParameters, SupportInfo, derive_parameters
from ic_alloc.errors import InvalidDimensions, InvalidPhi
from ic_alloc.metrics import BoundCheck
from ic_alloc.tasks import TaskSet

FIELDS = ["n", "d", "N", "k", "f", "case", "s", "s0", "g", "n_prime", "N_prime", "q", "p",
          "r", "k_capped"]


def test_fields_are_the_own_annotations_in_order():
    params = derive_parameters(12, 2, 9)
    assert list(params.__dict__) == FIELDS == list(ICParameters.__match_args__)
    assert list(get_type_hints(ICParameters)) == FIELDS  # the base adds none
    x = TaskSet(5, 2, ((1, 2),))
    assert x.__dict__ == {"n": 5, "d": 2, "edges": ((1, 2),), "phi": None, "seed": None,
                          "generator_id": None}
    assert BoundCheck("b", 1.0, True, True).detail == ""


def test_equality_and_hash_by_value_within_one_class():
    a, b = derive_parameters(12, 2, 9), derive_parameters(12, 2, 9)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != derive_parameters(12, 2, 8)
    assert a != tuple(a.__dict__.values())
    assert SupportInfo((1, 2), 2, 0) != BoundCheck((1, 2), 2, 0, None)  # same values
    assert {ThinningSpec(0.5, 1), ThinningSpec(0.5, 1)} == {ThinningSpec(0.5, 1)}
    with pytest.raises(TypeError):  # the hash is of the field values, here a list
        hash(TaskSet(5, 2, ([1, 2],)))


def test_repr_and_refused_assignment():
    spec = ThinningSpec(phi=0.5, seed=3)
    assert repr(spec) == "ThinningSpec(phi=0.5, seed=3)"
    with pytest.raises(AttributeError):
        spec.phi = 1.0
    with pytest.raises(AttributeError):
        del spec.seed
    assert spec == ThinningSpec(0.5, 3)


def test_constructor_checks_and_arguments():
    with pytest.raises(InvalidDimensions):
        TaskSet(3, 4, ())
    with pytest.raises(InvalidPhi):
        ThinningSpec(phi=1.5, seed=0)
    with pytest.raises(TypeError, match="ThinningSpec.__init__"):
        ThinningSpec(0.5)
    with pytest.raises(TypeError, match="unexpected keyword argument 'zz'"):
        ICParameters(**derive_parameters(12, 2, 9).__dict__, zz=1)
