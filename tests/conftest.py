import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches what it reads from source files in its home
# directory, ./.hypothesis by default; keep it out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "skygrab-hypothesis")
