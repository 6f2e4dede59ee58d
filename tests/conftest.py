import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layers.py"


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run the long-running exhaustive checks",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def layers():
    """tools/layers.py, loaded once: its table of command lines, its module
    lister and `run_expecting`, the one runner of `python` on src/."""
    spec = importlib.util.spec_from_file_location("layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def listings(layers, tmp_path_factory):
    """The stdout and every loaded module of each line of the tool's
    startup_commands, from one run of each."""
    return layers.startup_listings(tmp_path_factory.mktemp("listings"))
