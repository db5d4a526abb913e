"""Set-up probe: import the CLI, load and validate one config, then say ready.

``run.py`` launches this script several times and times each launch from
process start until the ``ready`` line arrives; that interval is ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aperiodic import cli  # noqa: E402,F401  (the import is what is timed)
from aperiodic.config import load_config  # noqa: E402

load_config(sys.argv[1])
print("ready", flush=True)
