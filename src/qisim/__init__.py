"""Numerical simulator for a narrow-band photon-pair source coupled to an
atomic slow-light memory: joint spectra, time distributions, transparency
and the memory's retrieval decay, and the polarization-qubit layer on
top.  Each layer is imported from its module; importing the package
loads only the errors."""
from .errors import InputError, ModelError, QisimError

__version__ = "0.1.0"
