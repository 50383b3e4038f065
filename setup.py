"""Setup shim.

This file exists so the package can be installed in environments without
network access (no build isolation, no ``wheel`` package) via either::

    pip install -e . --no-build-isolation --no-use-pep517

or the legacy ``python setup.py develop``.

``numpy`` is a *runtime* dependency, not a dev convenience: spectral
placement (``repro.partition.placement.spectral_placement``) takes the
Fiedler vector of the communication graph's Laplacian with
``numpy.linalg.eigh``.  It is imported on the first spectral placement,
not by ``import repro``, so only compiles that use it pay for loading it;
it stays declared here so ``pip install`` pulls it in; ``requirements-dev.txt`` pins the same package
for the PYTHONPATH-based CI jobs that never install the distribution.
"""

from setuptools import setup

setup(install_requires=["numpy"])
