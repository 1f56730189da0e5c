"""Pass registry, pipelines, and the pipeline runner."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple, Union

from ..errors import PassError
from ..ir import Module, verify_module
from . import dce, dualchain, faultinject, mem2reg, taintchain

#: name -> pass entry point ``run(module, **options)``
REGISTRY: Dict[str, Callable] = {
    "mem2reg": mem2reg.run,
    "dce": dce.run,
    "faultinject": faultinject.run,
    "dualchain": dualchain.run,
    "taintchain": taintchain.run,
}

PassSpec = Union[str, Tuple[str, Mapping]]


def run_passes(
    module: Module,
    passes: Sequence[PassSpec],
    *,
    verify: bool = True,
) -> Module:
    """Apply a pass pipeline in order, optionally verifying after each.

    Each element is a pass name or ``(name, options-dict)``.  The module is
    mutated in place and returned for chaining.
    """
    for spec in passes:
        if isinstance(spec, str):
            name, options = spec, {}
        else:
            name, options = spec[0], dict(spec[1])
        fn = REGISTRY.get(name)
        if fn is None:
            raise PassError(f"unknown pass {name!r}")
        fn(module, **options)
        if verify:
            verify_module(module)
    return module


def pipeline_for_mode(mode: str, inject_kinds: Iterable[str] = ("arith",)):
    """Standard pipeline for a build mode.

    ``"blackbox"`` is fault injection only (what a plain LLFI binary is),
    ``"fpm"`` adds dual-chain propagation tracking and ``"taint"`` the
    over-approximating taint chain.
    """
    inject = ("faultinject", {"kinds": tuple(inject_kinds)})
    if mode == "blackbox":
        return ("mem2reg", "dce", inject)
    if mode == "fpm":
        return ("mem2reg", "dce", inject, "dualchain")
    if mode == "taint":
        return ("mem2reg", "dce", inject, "taintchain")
    raise PassError(f"unknown build mode {mode!r}")
