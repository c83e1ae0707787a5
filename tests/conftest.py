import pytest
from oracles import cached_system

from p3fusion import cli


@pytest.fixture(scope="session", autouse=True)
def commands_share_the_session_systems():
    """Commands run in-process read the session's systems, as the tests do
    through builtin_fusion_system; a subprocess still builds its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "fusion_system", cached_system)
        yield
