"""Run ``python -m metafib`` in a child process from a plain checkout."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*args, **kwargs):
    """``python ARGS`` with ``src`` first on the child's PYTHONPATH.

    Output is captured as text; other keyword arguments go to
    ``subprocess.run`` unchanged.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, **kwargs)


def run_metafib(*args, **kwargs):
    """``python -m metafib ARGS``, run as ``run_python`` runs it."""
    return run_python("-m", "metafib", *args, **kwargs)


def cap_child_memory(limit=1 << 30):
    """``preexec_fn`` that limits the child alone to ``limit`` bytes of
    address space, 1 GiB unless given."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
