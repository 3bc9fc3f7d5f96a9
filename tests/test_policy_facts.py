"""What each registered policy needs and which structures it clocks.

The session computes the trace oracle annotation only for a policy
that needs it, the energy model charges only the window structures a
policy clocks (and scales them by the DRAM-timer monitor's enabled
fraction only where that monitor power-gates them), and
``build_policy`` hands the config's model artifact only to a policy
that consumes one.  This pins those facts for every registered policy
under four LTP configs, through the public lookups alone, so the same
table holds however the policy layer states them.
"""

import pytest

from repro.core.params import ltp_params
from repro.energy.model import compute_energy
from repro.ltp.config import limit_ltp, no_ltp, proposed_ltp
from repro.ltp.oracle import OracleInfo
from repro.policies import build_policy, policy_names, policy_needs_oracle
from repro.policies.learned import ModelArtifactError

CONFIGS = {
    "no-ltp": no_ltp(),
    "proposed": proposed_ltp(),
    "limit": limit_ltp("nr+nu"),
    # oracle-classified but disabled: LTP still classifies with it
    "oracle-disabled": limit_ltp("nr+nu").but(enabled=False),
}

T, F = True, False

#: policy -> config -> (needs the oracle, charges the parking queue,
#: charges the UIT)
FACTS = {
    "ltp": {"no-ltp": (F, F, F), "proposed": (T, T, T),
            "limit": (T, T, F), "oracle-disabled": (T, F, F)},
    "baseline-stall": {"no-ltp": (F, F, F), "proposed": (F, F, F),
                       "limit": (T, F, F), "oracle-disabled": (T, F, F)},
    "oracle-park": dict.fromkeys(CONFIGS, (T, T, F)),
    "random-park": dict.fromkeys(CONFIGS, (F, T, F)),
    "depth-park": dict.fromkeys(CONFIGS, (F, T, F)),
    "model-park": dict.fromkeys(CONFIGS, (F, T, F)),
    "confidence-park": dict.fromkeys(CONFIGS, (F, T, T)),
    "loadpred-park": dict.fromkeys(CONFIGS, (F, T, F)),
}

#: policies whose charged structures the DRAM-timer monitor power-gates
POWER_GATED = {"ltp"}
#: policies that consume the config's frozen model artifact
NEEDS_MODEL = {"model-park"}

CASES = [(policy, config) for policy in sorted(FACTS)
         for config in CONFIGS]


def _result(enabled_fraction):
    return {"cycles": 1000, "avg_iq": 30.0, "avg_rf_int": 60.0,
            "avg_rf_fp": 60.0, "avg_ltp": 40.0,
            "ltp_enabled_fraction": enabled_fraction}


def _oracle(n=64):
    return OracleInfo(levels=[None] * n, long_latency=[False] * n,
                      urgent=[True] * n, non_ready=[False] * n)


def test_the_table_covers_every_registered_policy():
    assert sorted(FACTS) == policy_names()


@pytest.mark.parametrize("policy, config", CASES)
def test_oracle_need(policy, config):
    needs_oracle = FACTS[policy][config][0]
    assert policy_needs_oracle(policy, CONFIGS[config]) is needs_oracle


@pytest.mark.parametrize("policy, config", CASES)
def test_energy_charges(policy, config):
    _, queue, uit = FACTS[policy][config]
    ltp = CONFIGS[config]
    gated_off = compute_energy(ltp_params(), ltp, _result(0.0),
                               policy=policy)
    gated_on = compute_energy(ltp_params(), ltp, _result(1.0),
                              policy=policy)
    assert (gated_on.ltp > 0) is queue
    assert (gated_on.uit > 0) is uit
    # a power-gated structure burns less while the monitor is off
    gated = policy in POWER_GATED and (queue or uit)
    assert (gated_off.total < gated_on.total) is gated


@pytest.mark.parametrize("policy, config", CASES)
def test_model_need(policy, config):
    """Only a model-consuming policy sees (and rejects) a bad artifact."""
    def build():
        return build_policy(policy, CONFIGS[config], 200,
                            oracle=_oracle(), model={"format": "bogus"})

    if policy in NEEDS_MODEL:
        with pytest.raises(ModelArtifactError):
            build()
    else:
        assert build().name == policy


def test_the_default_policy_is_the_ltp_policy_for_energy():
    for ltp in CONFIGS.values():
        for fraction in (0.0, 0.5, 1.0):
            assert compute_energy(ltp_params(), ltp, _result(fraction)) \
                == compute_energy(ltp_params(), ltp, _result(fraction),
                                  policy="ltp")
