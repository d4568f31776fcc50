"""Core formal machinery: events, histories, object types, properties.

This subpackage is dependency-free within the library (everything else
imports it, it imports nothing but :mod:`repro.util`).
"""
