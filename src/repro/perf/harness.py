"""Host provenance for benchmark reports.

:func:`host_info` is stamped into every perfbench report
(``perfbench/run.py``'s ``provenance``), so a number can be traced to
the interpreter, machine and source revision that produced it.
"""

import os
import platform


def host_info():
    """Provenance block: interpreter, platform, CPU count and the repo's
    git revision (when available) -- enough to know which machine and
    source produced a number."""
    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": None,
    }
    try:
        import subprocess
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
    except Exception:
        pass
    return info
