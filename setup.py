"""Setuptools entry point: ``pip install -e .`` installs ``repro`` from ``src/``.

There is no ``pyproject.toml``; this file is the one place the package
is declared.  The library needs only the standard library.  The test
suite needs ``pytest`` and ``hypothesis`` (``pip install -e .[test]``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={"test": ["pytest", "hypothesis"]},
)
