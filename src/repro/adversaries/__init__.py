"""Adversary strategies from the paper, as simulator drivers.

Import from the defining module (:mod:`repro.adversaries.consensus_flp`,
:mod:`repro.adversaries.valency`, ...): the package loads none of them.
"""
