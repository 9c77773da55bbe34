import random
from fractions import Fraction

import pytest

from r1poly.checks import random_laurent_system, random_system
from r1poly.core import CoeffSystem


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def random_systems(rng):
    return [random_system(rng) for _ in range(6)]


@pytest.fixture
def laurent_system(rng):
    return random_laurent_system(rng)


@pytest.fixture
def ones():
    return CoeffSystem(
        lambda n: Fraction(1), lambda n: Fraction(1), lambda n: Fraction(1), name="ones"
    )
