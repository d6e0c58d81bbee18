"""Kernel builders, grouped by algorithm family.

Every builder returns assembly source text for one EEMBC-Automotive-like
kernel.  See :mod:`repro.workloads.registry` for the name-to-builder map
and :mod:`repro.workloads.builder` for the shared helpers.
"""
