"""High-level shared object types and their safety checkers.

Import from the defining module (:mod:`repro.objects.opacity`,
:mod:`repro.objects.consensus`, ...): the package loads none of them.
"""
