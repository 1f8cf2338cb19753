"""teamgaze: joint-visual-attention scoring and team collaboration
analytics from per-frame gaze-point predictions.

The package exports the names the demos start from; every public name is
importable from its own module (``teamgaze.model``, ``teamgaze.jva``,
``teamgaze.io_report``, ...). The exports are imported on first use
(PEP 562), so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_EXPORTS = {
    "Heatmap": "gazefield",
    "Point2D": "model",
    "decode_heatmap": "gazefield",
    "SynthSpec": "synth",
    "analyze_table": "frame_table",
    "emit_report": "io_report",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
