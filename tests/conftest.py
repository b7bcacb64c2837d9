import pytest
from hypothesis import settings

from trusttoken import token_authority

# A larger example budget for the property tests that leave max_examples
# to the profile (tier-1 runs them at hypothesis' default of 100), run as
# its own CI step with --hypothesis-profile=deep.
settings.register_profile("deep", max_examples=2000)
from trusttoken.puf_model import PufParams, new_chip


@pytest.fixture(scope="session")
def default_params():
    return PufParams()


@pytest.fixture(scope="session")
def chip(default_params):
    return new_chip(7, default_params)


@pytest.fixture()
def colliding_draws(monkeypatch):
    """Make provisioning's second PUF draw repeat its first; returns the
    list of batches of challenges drawn, in order."""
    batches, draws = [], []
    noiseless_responses = token_authority.noiseless_responses

    def responses(chip, challenges, params):
        batches.append(list(challenges))
        for token in noiseless_responses(chip, challenges, params):
            draws.append(draws[0] if len(draws) == 1 else token)
        return draws[len(draws) - len(challenges):]

    monkeypatch.setattr(token_authority, "noiseless_responses", responses)
    return batches
