"""Run Python as if numpy were not installed.

`NO_NUMPY` is source to put first in a fresh interpreter's `-c` script: a
`sys.meta_path` finder that answers every import of numpy, or of a module
in it, with the ModuleNotFoundError a missing package raises.
"""

import subprocess
import sys

NO_NUMPY = """\
import sys


class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, _NoNumpy())
"""

# the `cmt` command line, as the console script runs it
CMT = NO_NUMPY + "from cmt.cli import run\nrun()\n"


def run_without_numpy(script: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """`python -c NO_NUMPY + script ARGS...`, its output captured as text."""
    return subprocess.run([sys.executable, "-c", NO_NUMPY + script, *args],
                          capture_output=True, text=True, **kwargs)
