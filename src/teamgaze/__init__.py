"""teamgaze: joint-visual-attention scoring and team collaboration
analytics from per-frame gaze-point predictions.

The package exports the names the demos start from; every public name is
importable from its own module (``teamgaze.model``, ``teamgaze.jva``,
``teamgaze.io_report``, ...).
"""

from .model import Heatmap, Point2D
from .gazefield import decode_heatmap, multiscale_fields
from .synth import SynthSpec
from .io_report import analyze_table, emit_report

__version__ = "0.1.0"
