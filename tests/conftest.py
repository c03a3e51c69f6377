import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fixtures import all_fixtures
from stripfol.io import serialize


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory) -> Path:
    """All reference surfaces serialized to JSON files."""
    root = tmp_path_factory.mktemp("fixtures")
    for name, surface in all_fixtures().items():
        (root / f"{name}.json").write_text(serialize(surface))
    return root
