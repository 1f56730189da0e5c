"""Shared fixtures: compiled programs and small helper factories."""

from __future__ import annotations

import pytest

from repro.core.config import RunConfig
from repro.core.runner import build_program, run_job
from repro.frontend import compile_source
from repro.ir import Module
from repro.passes import pipeline_for_mode, run_passes


@pytest.fixture(scope="session")
def tiny_loop_source() -> str:
    return """
func main(rank: int, size: int) {
    var a: float[8];
    for (var i: int = 0; i < 8; i += 1) { a[i] = float(i) + 1.0; }
    var s: float = 0.0;
    for (var t: int = 0; t < 5; t += 1) {
        for (var i: int = 0; i < 8; i += 1) { a[i] = a[i] * 1.5 + 0.25; }
        mark_iteration();
    }
    for (var i: int = 0; i < 8; i += 1) { s += a[i]; }
    emit(s);
}
"""


def compile_modes(source: str, name: str = "t"):
    """(blackbox module, fpm module) for the same source."""
    bb = compile_source(source, name)
    run_passes(bb, pipeline_for_mode("blackbox"))
    fpm = compile_source(source, name)
    run_passes(fpm, pipeline_for_mode("fpm"))
    return bb, fpm


@pytest.fixture(scope="session")
def single_rank_config() -> RunConfig:
    return RunConfig(nranks=1)


def run_source(source: str, mode: str = "blackbox", nranks: int = 1,
               faults=(), config: RunConfig = None, **cfg):
    """Compile and run a MiniHPC snippet; returns the JobResult."""
    config = config or RunConfig(nranks=nranks, **cfg)
    program = build_program(source, mode, config=config)
    return run_job(program, config, faults=faults)


def assert_jobs_identical(a, b):
    """Two JobResults agree in every observable, CML trace included."""
    assert str(a.trap) == str(b.trap)
    for name in ("status", "cycles", "rank_cycles", "iterations",
                 "inj_counts", "ever_contaminated"):
        assert getattr(a, name) == getattr(b, name), name
    # values may be NaN, which equals nothing: compare their spelling
    assert repr(a.outputs) == repr(b.outputs)
    assert repr([[vars(e) for e in rank] for rank in a.injections]) \
        == repr([[vars(e) for e in rank] for rank in b.injections])
    assert (a.trace is None) == (b.trace is None)
    for name in ("times", "cml_per_rank", "live_words", "ranks_contaminated",
                 "first_contamination") if a.trace is not None else ():
        assert getattr(a.trace, name) == getattr(b.trace, name), name
