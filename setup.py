"""Setup for environments without the wheel package.

Enables ``pip install -e .`` on offline machines.
"""

from setuptools import find_packages, setup

setup(
    name="repro-powerpruning",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.24"],
    extras_require={
        # Optional HTTP experiment service (repro.service): an async
        # job queue over the sweep engine.  The job layer itself is
        # dependency-free; fastapi/uvicorn only serve it over HTTP
        # (`python -m repro serve`).  Tier-1 tests skip the HTTP layer
        # cleanly when the extra is absent.
        "service": ["fastapi>=0.100", "uvicorn>=0.23"],
    },
)
