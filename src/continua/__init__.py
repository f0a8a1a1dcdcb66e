"""Exact-arithmetic dynamics of PL interval homeomorphisms and arc continua.

Each public name lives in one module and is imported from it, e.g.
``from continua.plmap import PLHomeo, compose``:

- ``rational``: exact scalars, their wire formats and square roots;
- ``geometry``: exact point and segment predicates in the plane, and the
  integer point–segment projection behind the nearest-point search and
  the neighbourhood separation;
- ``plmap``: the PL map algebra;
- ``cantor``: the alternating ternary construction with its chain
  property, conjugacies and explosions;
- ``continuum``: the truncated plane arc model and its arcwise maps;
- ``shadowing``: pseudo-orbit shadowing and quasi-attractor certificates;
- ``svg``: SVG rendering;
- ``cli``: the command-line front end, which imports all of the above.
"""
