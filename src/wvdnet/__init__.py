"""Audio classification through quadratic time-frequency images.

Pipeline: channel averaging, anti-alias decimation, analytic transform,
lag-windowed quadratic time-frequency image, bilinear resize, min-max
normalization, then a small from-scratch CNN. See the CLI (`wvdnet`) for the
end-to-end commands.

The API is the modules: import each name from its own module, for example
`from wvdnet.neuralnet import train`. Importing the package loads none of them.
"""

__version__ = "0.1.0"
