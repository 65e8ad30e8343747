from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import p3walls

# Importing the package must leave nothing behind that outlives its modules:
# a module-level typing alias such as ``Union[A, B]`` is memoized by typing
# for the life of the process, and through the classes' methods it keeps the
# whole module dict of every import alive.
REIMPORT = textwrap.dedent(
    """
    import gc
    import sys
    import weakref

    import p3walls.chern
    import p3walls.stability
    import p3walls.walls

    refs = [
        weakref.ref(p3walls.walls.Circle),
        weakref.ref(p3walls.chern.ChernTruncation),
        weakref.ref(p3walls.stability.TiltPoint),
    ]
    for name in [n for n in sys.modules if n == "p3walls" or n.startswith("p3walls.")]:
        del sys.modules[name]
    import p3walls.walls  # noqa: F811

    gc.collect()
    alive = [ref().__qualname__ for ref in refs if ref() is not None]
    print(" ".join(alive))
    sys.exit(1 if alive else 0)
    """
)


def test_dropped_package_modules_are_collected():
    src = os.path.dirname(os.path.dirname(os.path.abspath(p3walls.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", REIMPORT], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, f"still alive after re-import: {done.stdout}{done.stderr}"
