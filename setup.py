"""Setup shim for offline environments without the `wheel` package.

All real metadata lives in pyproject.toml; this file only enables pip's
legacy editable-install path (`pip install -e . --no-build-isolation`).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of PLASMA: Programmable Elasticity for Stateful "
        "Cloud Computing Applications (EuroSys 2020)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
)
