"""Wall-clock benchmark of the skyline library, run as ``python3 perfbench/run.py``.

The benchmark measures the program from outside: it times calls into
public entry points and reads what the runtime already returns
(``JobStats``, ``ProcessPoolEngine.last_phases`` / ``shm_counters``).
Nothing under ``src/`` knows it exists.
"""
