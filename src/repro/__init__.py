"""repro — distributed formation of orthogonal convex polygons in meshes.

A production-quality reproduction of Jie Wu, *"A Distributed Formation
of Orthogonal Convex Polygons in Mesh-Connected Multicomputers"*
(IPPS 2001): the two-phase safe/unsafe + enabled/disabled labeling that
shrinks rectangular faulty blocks to minimal orthogonal convex fault
polygons, together with the substrates the paper sits on — a 2-D
mesh/torus model, a synchronous message-passing fabric, rectilinear
geometry, fault models, fault-tolerant routing, and the experiment
harness that regenerates the paper's Figure 5.

Quickstart
----------
>>> import numpy as np
>>> from repro import Mesh2D, label_mesh, uniform_random
>>> mesh = Mesh2D(100, 100)
>>> faults = uniform_random(mesh.shape, 60, np.random.default_rng(7))
>>> result = label_mesh(mesh, faults)
>>> from repro.core import theorems
>>> all(c.holds for c in theorems.check_all(result))
True
"""

from repro._lazy import lazy_exports
from repro._version import __version__

__all__ = [
    "CellSet",
    "DisabledRegion",
    "FaultSet",
    "FaultyBlock",
    "LabelGrid",
    "LabelingResult",
    "Mesh2D",
    "NodeStatus",
    "Rect",
    "SafetyDefinition",
    "Torus2D",
    "__version__",
    "clustered",
    "is_orthoconvex",
    "label_mesh",
    "orthoconvex_closure",
    "shaped",
    "uniform_random",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    # ``import repro`` keeps these subpackages reachable as attributes
    **{name: (name,) for name in ("core", "faults", "geometry", "mesh")},
    "core.blocks": ("FaultyBlock",),
    "core.pipeline": ("LabelingResult", "label_mesh"),
    "core.regions": ("DisabledRegion",),
    "core.status": ("LabelGrid", "NodeStatus", "SafetyDefinition"),
    "faults.faultset": ("FaultSet",),
    "faults.generators": ("clustered", "shaped", "uniform_random"),
    "geometry.cells": ("CellSet",),
    "geometry.orthoconvex": ("is_orthoconvex", "orthoconvex_closure"),
    "geometry.rectangles": ("Rect",),
    "mesh.topology": ("Mesh2D", "Torus2D"),
})
