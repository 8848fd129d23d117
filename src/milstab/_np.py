"""numpy, imported on the first read of one of its names.

The package's modules write ``from . import _np as np`` where they would
write ``import numpy as np``. ``import milstab`` then leaves numpy out, so the
calls that never build an array (``--help``, ``exponent ms-exact`` and
``theta-ms``, ``exponent as-quad`` and ``theta-as`` on either route, root
series or shipped Gauss-Hermite rule, ``sweep-dt`` of those four methods,
``region`` and the refusals that fire first) start without its import. The
first ``np.x`` imports numpy and stores ``x`` here, so every later read is a
plain module-attribute lookup. Dunder names are refused, so probes such as
``__path__`` or ``__wrapped__`` load nothing.
"""


def __getattr__(name: str):
    if name.startswith("__") and name.endswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value
