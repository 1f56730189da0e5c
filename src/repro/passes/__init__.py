"""Compiler passes: the instrumentation half of the framework.

``mem2reg``/``dce`` are conventional cleanups that make register/memory
residency realistic; ``faultinject`` is the LLFI++ site-marking pass;
``dualchain`` is the paper's FPM source-to-source transformation;
``taintchain`` is the naive over-approximating baseline the paper argues
against (kept for the ablation benchmarks).  Every registered pass runs
in at least one :func:`pipeline_for_mode` pipeline.
"""

from . import dce, dualchain, faultinject, mem2reg, taintchain
from .pass_manager import REGISTRY, pipeline_for_mode, run_passes

__all__ = [
    "REGISTRY", "dce", "dualchain", "faultinject", "mem2reg",
    "pipeline_for_mode", "run_passes", "taintchain",
]
