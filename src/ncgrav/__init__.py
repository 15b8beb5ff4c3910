"""Bicrossproduct quantum-spacetime calculus and its gravitating wave operators.

Modules
-------
coeff, exactalg : exact symbolic normal ordering over Z[i][lam, beta]
timeops         : finite-difference time operators on shiftable functions
geometry        : radial beta/mu/nu profiles and their ODE system
waveops         : the assembled wave operators on separable fields
dispersion      : deformed mass shell and group velocities
effective       : effective inertial/gravitational masses and V0
spectrum        : bound-state spectra of the reduced radial problem
verify          : named self-check registry behind the CLI
"""

__version__ = "0.1.0"
