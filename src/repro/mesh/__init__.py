"""Grid topology substrate: 2-D meshes and tori, coordinates, ghost frames.

This package models the interconnection network of a mesh-connected
multicomputer at the level the paper needs: node addresses, per-dimension
neighbourhoods, boundary (ghost-node) handling, and vectorized
neighbour views of label grids.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DIRECTIONS",
    "Dimension",
    "Direction",
    "GhostFrame",
    "Mesh2D",
    "Quadrant",
    "Topology",
    "Torus2D",
    "add",
    "chebyshev",
    "neighbors4",
    "neighbors8",
    "sub",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "coords": (
        "DIRECTIONS", "Dimension", "Direction", "Quadrant", "add", "chebyshev",
        "neighbors4", "neighbors8", "sub",
    ),
    "ghost": ("GhostFrame",),
    "topology": ("Mesh2D", "Topology", "Torus2D"),
})
