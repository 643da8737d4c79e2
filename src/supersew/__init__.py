"""Exact symbolic engine for N=1 superconformal coordinates, supersphere
sewing, Neveu-Schwarz modules and NS vertex operator superalgebras.

Layers, bottom up: ``scalars`` (Gaussian rationals), ``grassmann`` (the
exterior algebra with even indeterminates), ``series`` (super Laurent
series and maps), ``nscoord`` (the coordinate bijection), ``sewing``
(sewing and the projective factor), ``nsmod`` (Neveu-Schwarz modules) and
``vosa`` (the NS VOSA on a Fock space).  Nothing is imported here, so
importing one layer loads only what it needs.
"""
