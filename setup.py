"""Setuptools packaging for the Unison Cache reproduction.

Metadata is declared here (no ``pyproject.toml``) so the package can be
installed editable (``pip install -e . --no-use-pep517``) in offline
environments that lack the ``wheel`` package required by PEP 660 editable
builds.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'__version__ = "([^"]+)"', _INIT.read_text()).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Trace-driven reproduction of Unison Cache (Jevdjic et al., "
        "MICRO 2014) with a declarative sweep API"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    # numpy is required: every in-memory trace is a packed numpy record
    # array, from the trace store to the batch engine's kernels.
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:run",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Intended Audience :: Science/Research",
        "Topic :: System :: Hardware",
    ],
)
