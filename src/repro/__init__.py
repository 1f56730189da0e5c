"""repro — reproduction of "Understanding the Propagation of Transient
Errors in HPC Applications" (Ashraf et al., SC '15).

The package builds the paper's entire stack from scratch in Python:

* :mod:`repro.frontend` — MiniHPC, a small C-like language (stands in for
  C/C++ + clang);
* :mod:`repro.ir` / :mod:`repro.passes` — a typed register IR with the
  LLFI++ fault-site marking pass and the FPM dual-chain transformation;
* :mod:`repro.vm` / :mod:`repro.mpi` — a virtual machine per MPI rank and
  a simulated MPI runtime with contamination-carrying messages;
* :mod:`repro.fpm` — the runtime shadow table and propagation traces;
* :mod:`repro.apps` — MiniHPC analogs of LULESH, LAMMPS, miniFE, AMG2013
  and MCB, plus the paper's Fig. 1 matvec example;
* :mod:`repro.inject` / :mod:`repro.analysis` / :mod:`repro.models` — the
  campaign driver, outcome classification, and the FPS propagation
  models of Sec. 5.

One entry point in two forms: :func:`repro.run_campaign` /
:func:`repro.resume_campaign` define a campaign, :class:`repro.Session`
holds one.  Everything in ``__all__`` is the supported public surface;
anything else may move between releases.
"""

from .api import Session
from .core import RunConfig, build_program, run_job
from .errors import ReproError
from .inject.campaign import CampaignResult, run_campaign
from .inject.engine import resume_campaign
from .models import fit_cml_stream
from .obs.observer import ObserveConfig

__version__ = "2.0.0"

__all__ = [
    "CampaignResult", "ObserveConfig", "ReproError", "RunConfig", "Session",
    "__version__", "build_program", "fit_cml_stream", "resume_campaign",
    "run_campaign", "run_job",
]
