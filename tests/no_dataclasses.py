"""Exit 1 if importing detform and detform.cli imports dataclasses.

Generating a dataclass's methods cost about a millisecond a class on every
import of the package. The check runs on whichever detform is on the path:
tests/test_imports.py runs it with PYTHONPATH=src, and CI against the
installed package. It prints the file detform was imported from.
"""

import sys

before = "dataclasses" in sys.modules
import detform  # noqa: E402
import detform.cli  # noqa: E402, F401

print(detform.__file__)
sys.exit(not before and "dataclasses" in sys.modules)
