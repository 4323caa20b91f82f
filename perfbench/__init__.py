"""Fixed-seed benchmark of the ``tobitcount`` command-line interface.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  See ``perfbench/NOTES.md``.
"""
