"""Grid topology substrate: 2-D meshes and tori, coordinates, directions.

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
    "Mesh2D",
    "Quadrant",
    "Topology",
    "Torus2D",
    "add",
    "sub",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "coords": ("DIRECTIONS", "Dimension", "Direction", "Quadrant", "add", "sub"),
    "topology": ("Mesh2D", "Topology", "Torus2D"),
})
