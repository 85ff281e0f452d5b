"""The tier-1 warning filters as `-W` flags for a fresh interpreter.

pytest's `filterwarnings` setting applies only inside the pytest process, so a
test that starts `python` passes these flags to hold the subprocess to the
same filters.
"""

import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# Python 3.10, the requires-python floor, has no tomllib, so the entries are
# read with a regex.
_BLOCK = re.search(r"^filterwarnings = \[\n(.*?)^\]", PYPROJECT.read_text(), re.M | re.S)
FILTERS = re.findall(r'"([^"]+)"', _BLOCK.group(1)) if _BLOCK else []
WARNING_FLAGS = [flag for entry in FILTERS for flag in ("-W", entry)]
