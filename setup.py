"""Packaging for the COMA reproduction (the ``repro`` package under ``src/``).

This file holds all project metadata.  It is a classic ``setup.py`` because
PEP 660 editable installs build a wheel, and the ``wheel`` package may not be
available offline.  With ``wheel`` installed, the legacy editable install is::

    pip install -e . --no-use-pep517 --no-build-isolation --no-deps

Without it, ``python setup.py develop --no-deps`` installs the same
development link using setuptools alone.
"""

import pathlib
import re

from setuptools import find_packages, setup

HERE = pathlib.Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="coma-repro",
    version=VERSION,
    description="COMA: flexible combination of schema matching approaches (VLDB 2002)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
