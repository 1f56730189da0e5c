"""Core orchestration: run configuration, settings and the job runner."""

from .config import RunConfig
from .runner import build_program, run_job

__all__ = ["RunConfig", "build_program", "run_job"]
