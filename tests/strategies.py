"""Hypothesis strategies shared by the property suites."""

import numpy as np
from hypothesis import reject
from hypothesis import strategies as st

from repro.core import SafetyDefinition, label_mesh
from repro.faults import FaultSet, clustered, uniform_random
from repro.mesh import Mesh2D, Torus2D


@st.composite
def fault_sets(draw, width, height, max_faults, min_faults=0):
    """Between ``min_faults`` and ``max_faults`` distinct faulty nodes,
    uniform over a ``width x height`` grid."""
    n = draw(st.integers(min_faults, max_faults))
    coords = draw(
        st.lists(
            st.tuples(st.integers(0, width - 1), st.integers(0, height - 1)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return FaultSet.from_coords((width, height), coords)


@st.composite
def labeling_results(draw):
    """A pipeline result on a small mesh or torus, under either definition,
    from uniform or clustered faults."""
    w, h = draw(st.integers(6, 16)), draw(st.integers(6, 16))
    torus = draw(st.booleans())
    topology = (Torus2D if torus else Mesh2D)(w, h)
    count = draw(st.integers(0, min(w, h) // 2 if torus else w * h // 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        faults = clustered((w, h), count, rng, clusters=draw(st.integers(1, 3)), spread=1.5)
    else:
        faults = uniform_random((w, h), count, rng)
    try:
        return label_mesh(topology, faults, draw(st.sampled_from(list(SafetyDefinition))))
    except ValueError:  # the torus pattern wraps all the way round: no planar view
        reject()
