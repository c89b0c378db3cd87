"""ainfsign: exact verification toolkit for the sign conventions of
filtered A-infinity operations.

Subpackages and modules:

- ``frozen``   -- the base class of the immutable value types
- ``novikov``  -- exact truncated Novikov-ring arithmetic and gapped spectra
- ``f2poly``   -- GF(2) algebraic-normal-form engine and sign-expression DSL
- ``signs``    -- parity formulas: operation, boundary, composition signs
                  and their proof decompositions
- ``strata``   -- boundary-stratum combinatorics and composition matching
- ``prover``   -- symbolic identity proofs and the formal relation replay
- ``geomodel`` -- exact de Rham push-pull model on interval-circle products
- ``ainfty``   -- concrete filtered structures, relation checker, algebra
                  embedding and bounding-cochain deformation
- ``structio`` -- JSON structure files
- ``cli``      -- the ``ainfsign`` command
"""

__version__ = "0.1.0"
