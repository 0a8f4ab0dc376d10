"""`python -m berndenom` under the benchmark's tracing wrappers.

    PERFBENCH_TRACE_DIR=DIR python perfbench/traced_cli.py ARGS...

The tracer is installed at import time, outside the `__main__` guard, so a
pool worker started by spawn or forkserver, which imports this module as
`__mp_main__`, is traced too; a forked worker inherits the wrappers and
clears the parent's records through the tracer's fork hook.
"""

import sys

import spans

spans.install_from_env()

if __name__ == "__main__":
    from berndenom.cli import main

    sys.exit(main(sys.argv[1:]))
