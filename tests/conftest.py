import re
import tempfile
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches what it reads from source files in its home
# directory, ./.hypothesis by default; keep it out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "skygrab-hypothesis")

_DIGEST = re.compile(r"[0-9a-fA-F]{64}")


def pytest_collection_modifyitems(items):
    # A pinned digest in a test id renames the test at every re-bless;
    # give such cases ids of their own.
    named = [item.nodeid for item in items if _DIGEST.search(item.nodeid)]
    if named:
        raise pytest.UsageError("test ids hold a 64-hex-digit digest: " + ", ".join(named))
