"""Setuptools entry point: the package's only build configuration.

``pip install -e .`` installs it editable; the tests and scripts run
from a checkout with ``PYTHONPATH=src`` instead.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "DSCS-Serverless: in-storage domain-specific acceleration for "
        "serverless computing (ASPLOS 2024) — full-system reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # 3.10+: dataclasses.field(kw_only=True) (accelerator.simulator).
    python_requires=">=3.10",
    install_requires=["numpy"],
)
