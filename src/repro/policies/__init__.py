"""repro.policies — pluggable allocation/parking strategies.

The layer between rename and the back-end resources: an
:class:`AllocationPolicy` decides, per renamed instruction, whether to
allocate its IQ slot / physical register / LQ-SQ entries now
("dispatch"), defer them into a parking structure ("park"), or stall
rename; and decides when parked instructions wake.  The paper's Long
Term Parking is one registered policy among several, all
:class:`AllocationPolicy` subclasses that differ in who parks and how
parked instructions wake — see
:mod:`repro.policies.base` for the hook surface and the facts each
policy class states about itself, and :mod:`repro.policies.registry`
for how names resolve.

Built-in policies:

========================  ============================================
``ltp``                   the paper's mechanism (default; equals the
                          baseline when ``ltp.enabled`` is False)
``baseline-stall``        rename-time allocation, never parks
``oracle-park``           perfect (oracle) Non-Urgent classification
``random-park``           criticality-blind random parking strawman
``depth-park``            dependence-depth parking, wake-when-ready
``model-park``            frozen offline-trained model inference
                          (:mod:`repro.policies.learned`)
``confidence-park``       UIT verdicts gated by per-PC confidence
``loadpred-park``         memory-hierarchy load-latency prediction
========================  ============================================
"""

from repro.policies.base import DISPATCH, PARK, STALL, AllocationPolicy
from repro.policies.learned import (ConfidenceParkPolicy,
                                    LoadPredParkPolicy, ModelParkPolicy)
from repro.policies.ltp import BaselineStallPolicy, LTPPolicy
from repro.policies.registry import (DEFAULT_POLICY, build_policy,
                                     policy_class,
                                     policy_descriptions, policy_names,
                                     policy_needs_oracle, register_policy)
from repro.policies.scenarios import (DepthParkPolicy, OracleParkPolicy,
                                      RandomParkPolicy)

__all__ = [
    "AllocationPolicy",
    "BaselineStallPolicy",
    "ConfidenceParkPolicy",
    "DEFAULT_POLICY",
    "DISPATCH",
    "DepthParkPolicy",
    "LTPPolicy",
    "LoadPredParkPolicy",
    "ModelParkPolicy",
    "OracleParkPolicy",
    "PARK",
    "RandomParkPolicy",
    "STALL",
    "build_policy",
    "policy_class",
    "policy_descriptions",
    "policy_names",
    "policy_needs_oracle",
    "register_policy",
]
