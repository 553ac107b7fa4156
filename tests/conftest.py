import pytest

from goc.envelope import build_envelope_table
from goc.environment import PhysicalArmEnv, physical_gates
from goc.noise import uniform_scenario, truncated_gaussian_scenario
from goc.oracle import best_response
from goc.utility import UtilitySpec


@pytest.fixture(scope="session")
def unif():
    return uniform_scenario(delta=1.0, big_m=1e4)


@pytest.fixture(scope="session")
def tgauss():
    return truncated_gaussian_scenario(sigma=0.5, delta=1.0, big_m=1e4)


@pytest.fixture(scope="session")
def table_unif_2(unif):
    return build_envelope_table(unif, 2.0)


@pytest.fixture(scope="session")
def table_unif_25(unif):
    return build_envelope_table(unif, 2.5)


@pytest.fixture(scope="session")
def spec_default():
    """Collector linear in (acceptance - 0.3 error); adversary acceptance times error."""
    return UtilitySpec(dc_kind="linear", dc_gamma=0.3, ad_kind="product", ad_theta=1.0)


@pytest.fixture(scope="session")
def spec_gamma1():
    return UtilitySpec(dc_kind="linear", dc_gamma=1.0, ad_kind="product", ad_theta=1.0)


@pytest.fixture(scope="session")
def spec_pa_only():
    """Collector cares about acceptance only; adversary effectively too."""
    return UtilitySpec(
        dc_kind="linear", dc_gamma=0.0, ad_kind="weighted_sum", ad_w_mse=1e-9, ad_w_pa=1.0
    )


def best_response_rates(tables, spec):
    """Each table's best-response acceptance rate: the arm rates ``prepare_instance`` resolves."""
    return [best_response(t, spec).alpha_star for t in tables]


def arm_inputs(cls, scenario, tables, spec):
    """``InstanceArtifacts.arms`` for ``cls`` as ``prepare_instance`` resolves them: each
    arm's best-response rate, or for ``PhysicalArmEnv`` that rate's ``_Gate``."""
    rates = best_response_rates(tables, spec)
    return physical_gates(scenario, tables, rates) if cls is PhysicalArmEnv else rates
