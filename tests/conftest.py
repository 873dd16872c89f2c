import os
from pathlib import Path

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="regenerate golden fixture files from the oracle implementations",
    )


def pytest_configure(config):
    # Child processes (``python -m treekv``) import the same src/ as the tests.
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def regen_golden(request):
    return request.config.getoption("--regen-golden")
