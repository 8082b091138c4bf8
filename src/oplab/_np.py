"""numpy, imported on first attribute access (PEP 562).

The layers use ``from . import _np as np``, so importing oplab does not import
numpy; the first ``np.<name>`` does, and caches the attribute here.  The
classical paths (Kolmogorov feasibility, partition entropy, dissipation)
never touch ``np`` and so run without numpy loaded.
"""


def __getattr__(name):
    # Probes such as __path__ or __all__ answer for this module, so that
    # introspection neither imports numpy nor sees numpy's package attributes.
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value
