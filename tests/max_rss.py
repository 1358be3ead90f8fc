"""Run one metrosim command in this process and gate its max RSS.

    python tests/max_rss.py BOUND_MB CLI-ARGS...

runs metrosim.cli.main(CLI-ARGS), prints the process's max RSS and exits 1
when the command fails or the max RSS is over BOUND_MB. Nothing else runs in
the process, so any check of the command's output runs after it, in another.
"""
from __future__ import annotations

import resource
import sys

from metrosim.cli import main

if __name__ == "__main__":
    bound_mb, args = float(sys.argv[1]), sys.argv[2:]
    status = main(args)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"metrosim {' '.join(args)}: exit {status}, max RSS {rss_mb:.0f} MB (bound {bound_mb:g} MB)")
    sys.exit(1 if status or rss_mb > bound_mb else 0)
