"""Materializing generated components as importable module files.

The mutation pipeline requires real source files: operators read method
bodies via ``inspect.getsource``, the outcome cache fingerprints a class
by the contents of the files that supply its code (for a generated
component, this module file, which carries the synthesized t-spec and
model text, and the ``repro`` tree its base classes come from), and
worker processes define mutants inside the owner's defining module.  So a
generated component is *written to disk*
in a workspace directory and imported from that file — its module name
embeds a content digest (see :mod:`repro.scenarios.genspec`), which makes
materialization idempotent and lets concurrent runs share one workspace:
the same recipe always lands on the same file with the same bytes.

``sys.path`` is never touched.  The module is loaded by file path and
registered in ``sys.modules`` under its canonical name; other processes
resolve the class through the pickling fallback in
:mod:`repro.scenarios.runtime`.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional, Union

from ..core.errors import GenerationError
from .genspec import GeneratedComponent

PathLike = Union[str, Path]


def default_workspace() -> Path:
    """The shared per-machine workspace (content-addressed, so safe to
    share between runs and users; files are only ever byte-identical
    re-writes of themselves)."""
    return Path(tempfile.gettempdir()) / "repro-scenarios"


def write_module(component: GeneratedComponent,
                 workspace: Optional[PathLike] = None) -> Path:
    """Write the component's module file (atomically) and return its path.

    Idempotent: an existing file with the expected content is left
    untouched, so repeated sweeps don't churn mtimes or linecache.
    """
    root = Path(workspace) if workspace is not None else default_workspace()
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{component.module_name}.py"
    if path.exists():
        try:
            if path.read_text(encoding="utf-8") == component.source:
                return path
        except OSError:
            pass
    handle, staging = tempfile.mkstemp(
        dir=str(root), prefix=f".{component.module_name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(component.source)
        os.replace(staging, path)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise
    return path


def materialize(component: GeneratedComponent,
                workspace: Optional[PathLike] = None) -> type:
    """Write (if needed) and import the component; return its class.

    The module registers under its canonical content-hashed name, so a
    second materialization of the same recipe — even into a different
    workspace — reuses the already-loaded module and returns the same
    class object.
    """
    module = sys.modules.get(component.module_name)
    if module is None:
        path = write_module(component, workspace)
        spec = importlib.util.spec_from_file_location(
            component.module_name, path
        )
        if spec is None or spec.loader is None:
            raise GenerationError(
                f"cannot import generated module from {path}"
            )
        module = importlib.util.module_from_spec(spec)
        sys.modules[component.module_name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            sys.modules.pop(component.module_name, None)
            raise
    try:
        return getattr(module, component.class_name)
    except AttributeError:
        raise GenerationError(
            f"generated module {component.module_name} does not define "
            f"{component.class_name}"
        ) from None
