"""Information budgets for ill-posed operator equations.

Given a compact self-adjoint operator with known eigenvalue decay and data
accurate to ``eps``, this package answers two questions about the first-kind
equation ``A f = g``:

* **metrically** — how many bits does an ``eps``-accurate description of the
  recoverable part of ``f`` take (entropy/capacity sandwich, cutoff growth
  orders)?
* **probabilistically** — with a Gaussian prior on the coefficients and
  Gaussian observation noise, how much information do the observations carry
  per component, which components are worth keeping, and what is the
  resulting mean-square risk?

Both views rest on the same spectral-cutoff rule: keep coefficient ``k``
while ``lambda_k >= eps``.
"""

from . import channel, errors, harness, metric, spectra, truncation
from .errors import *
from .spectra import *
from .truncation import *
from .metric import *
from .channel import *
from .harness import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *spectra.__all__, *truncation.__all__,
           *metric.__all__, *channel.__all__, *harness.__all__]
