"""Hypothesis strategies shared by the property suites."""

from hypothesis import strategies as st

from repro.faults import FaultSet


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
