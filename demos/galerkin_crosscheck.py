"""Galerkin compression against the exact spectrum.

For a map fixing the origin the compression onto polynomials of total
degree <= D is block lower triangular in the graded basis order, so its
eigenvalues are exact eigenvalues of the full operator. The demo builds the compression for
(z/2, w/3), compares its eigenvalues to the exact point family, and
verifies the compression eigenvectors as approximate eigenfunctions.

Run:  python3 demos/galerkin_crosscheck.py
"""

import numpy as np

import lfmspec as L


def main():
    f = L.LinearFractionalMap(np.diag([0.5, 1 / 3]), [0, 0], [0, 0], 1)
    degree = 6

    eigs = L.compression_spectrum(f, degree)
    expected = sorted(
        (0.5 ** j * (1 / 3) ** k for j in range(degree + 1) for k in range(degree + 1 - j)),
        reverse=True,
    )
    print(f"compression at degree {degree}: {len(eigs)} eigenvalues")
    worst = max(abs(g - e) for g, e in zip(sorted(eigs, key=lambda z: -abs(z)), expected))
    print(f"largest deviation from exact products 2^-j 3^-k: {worst:.3e}")

    eigs, vecs, comp = L.compression_spectrum(f, degree, return_vectors=True)
    print("\n eigenvalue      residual of the recovered eigenfunction")
    for k in range(0, len(eigs), 5):
        func = L.series_from_vector(comp, vecs[:, k])
        r = L.eigenfunction_residual(f, eigs[k], func, degree)
        print(f"  {eigs[k].real: .8f}    {r:.3e}")


if __name__ == "__main__":
    main()
