"""Let the subprocesses some tests start import the package under test.

pytest's ``pythonpath`` setting reaches only the test process itself, so
the directory holding the imported ``asymloss`` is put on ``PYTHONPATH``
for child interpreters too.
"""

import os

import asymloss

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(asymloss.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
