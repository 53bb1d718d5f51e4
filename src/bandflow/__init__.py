"""Band rearrangement toolkit for axially symmetric spin-orbit models.

Four views of the same one-parameter family: full quantum joint spectra with
spectral flow, semi-quantum Chern numbers on the sphere, the classical
energy-momentum map with Duistermaat-Heckman volumes, and monodromy of the
joint-spectrum lattice.
"""

from .classical import (ClassicalPoint, CriticalValue, EMImage,
                        OrbitSpaceReport, ReducedPoint, ReducedVolumeProfile,
                        dh_volume, em_image, h_classical, orbit_space_check,
                        reduced_invariants, syzygy_residual)
from .linalg import (EigenDecomposition, SpinOperators, eigh, hermitian_matrix,
                     spin_operators)
from .monodromy import (LatticeCell, QuantumLattice, TransportAmbiguityError,
                        TransportError, TransportResult, build_lattice,
                        transport_cell)
from .params import PhysParams
from .semiquantum import (BandCount, ChernReport, CountingReport,
                          DegeneracyPoint, MeshTooCoarseError, SphereMesh,
                          chern_numbers, check_closed_oriented, degeneracy_scan,
                          delta_chern, h_semiquantum, sphere_mesh,
                          verify_counting)
from .spectrum import (BandAssignmentError, BandDecomposition, JointSpectrum,
                       JzBlock, Level, SpectralFlowReport, assign_bands,
                       joint_spectrum, jz_blocks, jz_values,
                       sweep_spectral_flow)

__version__ = "0.1.0"

__all__ = [
    "PhysParams",
    "hermitian_matrix", "spin_operators", "SpinOperators",
    "eigh", "EigenDecomposition",
    "jz_values", "jz_blocks", "JzBlock",
    "joint_spectrum", "JointSpectrum", "Level",
    "assign_bands", "BandDecomposition", "BandAssignmentError",
    "sweep_spectral_flow", "SpectralFlowReport",
    "sphere_mesh", "SphereMesh", "check_closed_oriented",
    "h_semiquantum", "degeneracy_scan", "DegeneracyPoint",
    "chern_numbers", "ChernReport", "MeshTooCoarseError",
    "delta_chern", "verify_counting", "CountingReport", "BandCount",
    "ClassicalPoint", "ReducedPoint", "reduced_invariants", "syzygy_residual",
    "h_classical", "em_image", "EMImage", "CriticalValue",
    "dh_volume", "ReducedVolumeProfile", "orbit_space_check", "OrbitSpaceReport",
    "build_lattice", "QuantumLattice", "LatticeCell",
    "transport_cell", "TransportResult",
    "TransportError", "TransportAmbiguityError",
    "__version__",
]
