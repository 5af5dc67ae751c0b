"""The benchmark tracer finds every library name it wraps.

``perfbench/tracing.py`` looks its targets up by name, so deleting or
renaming one of them (``linalg.solve`` and ``matrices.matrix_exp`` have no
engine caller) would break only the traced benchmark runs.  This test makes
the tier-1 suite fail with that name.  The tracer file is read, never
imported from its directory, so no bytecode cache is written next to it.
"""

import pathlib
import types

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls_on_the_library():
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(tracing))
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
