import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilbmat


@pytest.fixture(scope="session")
def run_python():
    """``run(args, env=None, **kwargs)``: ``subprocess.run`` of ``python args``
    in a fresh interpreter that imports this hilbmat, with the variables of
    ``env`` added to this process's environment."""
    src = str(Path(hilbmat.__file__).resolve().parent.parent)

    def run(args, env=None, **kwargs):
        env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                              timeout=120, **kwargs)

    return run
