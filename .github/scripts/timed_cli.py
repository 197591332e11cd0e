"""Run one ``ginibre_overcrowding.cli`` command in a child process; print its wall time and peak RSS.

    python .github/scripts/timed_cli.py ARG... [-- EXTRA...]

The child runs ``python -m ginibre_overcrowding.cli ARG... EXTRA...`` with its stdout discarded, and
one Markdown list item goes to stdout: ``- `ARG...`: <wall> s, <rss> MB max RSS``.  Arguments after
``--`` (an output path, say) are passed on but left out of that line.  A command that exits non-zero
raises ``CalledProcessError``, so the script fails too and prints no line.
"""

import resource
import subprocess
import sys
import time

args = sys.argv[1:]
argv, extra = (args[: args.index("--")], args[args.index("--") + 1 :]) if "--" in args else (args, [])
started = time.perf_counter()
subprocess.run([sys.executable, "-m", "ginibre_overcrowding.cli", *argv, *extra], check=True, stdout=subprocess.DEVNULL)
wall = time.perf_counter() - started
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"- `{' '.join(argv)}`: {wall:.3f} s, {rss:.1f} MB max RSS")
