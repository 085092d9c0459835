import pytest

from lampwalk.analysis import WindowIndex
from lampwalk.construction import Config, Construction


def _built(c, depth):
    """Yield ``c`` built to ``depth``; at teardown, no test may have grown it."""
    c.build_to(depth)
    yield c
    assert c.max_built == depth, f"a test grew a shared construction to {c.max_built} levels"


@pytest.fixture(scope="session")
def mini_asym():
    yield from _built(Construction("asymmetric", "mini"), 2)


@pytest.fixture(scope="session")
def mini_sym():
    yield from _built(Construction("symmetric", "mini"), 2)


@pytest.fixture(scope="session")
def mini_asym_small():
    # window size frozen at 1: the smallest oracle-friendly mini instance
    c = Construction("asymmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
    yield from _built(c, 2)


@pytest.fixture(scope="session")
def mini_sym_small():
    c = Construction("symmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
    yield from _built(c, 2)


@pytest.fixture(scope="session")
def paper_asym():
    yield from _built(Construction("asymmetric", "paper"), 3)


@pytest.fixture
def factor_builds(monkeypatch):
    """The slice count of each direct ``WindowIndex._build_factor`` call."""
    builds = []
    build = WindowIndex._build_factor

    def counted(mids, qa_list, qb_list):
        builds.append(len(mids))
        return build(mids, qa_list, qb_list)

    monkeypatch.setattr(WindowIndex, "_build_factor", staticmethod(counted))
    return builds
