"""Shared-object implementations evaluated by the experiments.

Import from the family packages (:mod:`repro.algorithms.consensus`,
:mod:`repro.algorithms.tm`, :mod:`repro.algorithms.locks`): this
package loads none of them.
"""
