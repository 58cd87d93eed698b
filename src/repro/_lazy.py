"""PEP 562 lazy exports for the package ``__init__`` modules.

A package lists where each public name lives, and a name's submodule is
imported the first time the name is read, so ``import repro`` (or a
command that uses one corner of the library) loads only the modules it
touches.  Usage, at the bottom of a package ``__init__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "pipeline": ("LabelingResult", "label_mesh"),
        "theorems": ("theorems",),   # the submodule itself
    })

A name equal to its submodule's name means the submodule itself: once a
submodule is imported, Python binds it on its package under that name,
which would shadow a lazy function of the same name.  Such a function
(``repro.analysis.sweep.sweep`` and the like) must be imported eagerly.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package`` resolving
    the names of ``table`` (``{submodule: names}``, submodule paths
    relative to ``package``)."""
    where: Dict[str, str] = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        sub = where.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # __import__, unlike importlib.import_module, is seen by -X importtime.
        __import__(f"{package}.{sub}")
        module = sys.modules[f"{package}.{sub}"]
        value = module if sub == name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
