import sys
import zlib
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))

DATA = TESTS_DIR / "data"

# every IPv4 ruleset of the corpus with the chain it is analyzed at
CORPUS = [
    ("synology.iptables", "INPUT"),
    ("example_ruleset.iptables", "FORWARD"),
    ("fwbuilder.iptables", "INPUT"),
    ("blogpost.iptables", "OUTPUT"),
    ("forward_foo.iptables", "FORWARD"),
    ("return_ports.iptables", "FORWARD"),
    ("docker_default.iptables", "FORWARD"),
    ("docker_mynet.iptables", "FORWARD"),
    ("webapp_central.iptables", "FORWARD"),
]


@pytest.fixture(scope="session")
def data_dir():
    return DATA


def load_ruleset(name):
    return (DATA / name).read_text()


def stable_hash(*parts):
    """A hash of the parts' text that, unlike hash() of a str, is the
    same under every PYTHONHASHSEED, so seeded oracles and packet draws
    repeat from run to run."""
    return zlib.crc32("|".join(map(str, parts)).encode())
