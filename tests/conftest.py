"""Hypothesis profiles, and the octahedral group as a fixture.
``pytest --hypothesis-profile=ci`` prints a ``@reproduce_failure`` blob
with each falsifying example, so a failure seen only in a CI log can be
replayed; it changes no drawn example."""

import numpy as np
import pytest
from hypothesis import settings

from symkoop import GroupElement, generate_group

settings.register_profile("ci", print_blob=True)


@pytest.fixture(scope="session")
def octahedral_group():
    """The order-48 symmetry group of the cube, signed 3 x 3 permutations,
    generated by a 3-cycle, a transposition and a sign flip: non-abelian,
    with non-normal subgroups such as <swap> and <cycle>."""
    return generate_group([
        GroupElement("cycle", np.array([[0.0, 0, 1], [1, 0, 0], [0, 1, 0]])),
        GroupElement("swap", np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])),
        GroupElement("flip", np.diag([-1.0, 1, 1])),
    ])
