"""Cascaded two-system quantum dynamics with wave-packet transformation.

Modules by concern:

* cascade    -- Lindblad generators and master-equation integration
* trajectory -- Monte-Carlo wave-function unraveling
* wavepacket -- envelopes, the reversing transformation, time maps
* transfer   -- single-excitation state-transfer experiment
* cli        -- config-driven experiments with CSV/SVG artifacts
* floatrepr  -- repr's shortest round-trip text of float64 arrays, vectorized
* svgplot    -- dependency-free SVG line plots
"""

__version__ = "0.1.0"
