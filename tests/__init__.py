"""Tier-1 test suite (a package, so its conftest helpers import as
``tests.conftest`` beside ``benchmarks/conftest.py``)."""
