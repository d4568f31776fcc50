"""High-level shared object types and their safety checkers."""

from repro.objects.consensus import (
    AgreementValidity,
    ConsensusSpec,
    consensus_object_type,
)
from repro.objects.tm import (
    ABORTED,
    COMMITTED,
    OK,
    STATUS_ABORTED,
    STATUS_COMMIT_PENDING,
    STATUS_COMMITTED,
    STATUS_LIVE,
    TM_OPERATIONS,
    Transaction,
    TransactionCall,
    committed_transactions,
    parse_transactions,
    tm_object_type,
)
from repro.objects.opacity import (
    OpacityChecker,
    SearchBudgetExceeded,
    StrictSerializability,
)
from repro.objects.counterexample_s import (
    TimestampAbortRule,
    counterexample_safety,
)
from repro.objects.set_agreement import (
    KSetAgreement,
    OwnValueSetAgreement,
    set_agreement_object_type,
)

__all__ = [
    "AgreementValidity",
    "ConsensusSpec",
    "consensus_object_type",
    "ABORTED",
    "COMMITTED",
    "OK",
    "STATUS_ABORTED",
    "STATUS_COMMIT_PENDING",
    "STATUS_COMMITTED",
    "STATUS_LIVE",
    "TM_OPERATIONS",
    "Transaction",
    "TransactionCall",
    "committed_transactions",
    "parse_transactions",
    "tm_object_type",
    "OpacityChecker",
    "SearchBudgetExceeded",
    "StrictSerializability",
    "TimestampAbortRule",
    "counterexample_safety",
    "KSetAgreement",
    "OwnValueSetAgreement",
    "set_agreement_object_type",
]
