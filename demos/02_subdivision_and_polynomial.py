"""From a diagram to a certified regular subdivision and its polynomial.

The default lifting nu(i, j) = T(i) + T(j) (triangular numbers) already
realizes the wanted squares-and-triangles tiling for straight
boundaries.  Bent boundaries often defeat it; the engine then kinks the
same separable lifting along the rows and columns of the boundary
corners and re-verifies the hull.

Run:  python3 demos/02_subdivision_and_polynomial.py
"""

from tropnewton import (
    analyze_support,
    build_patchwork,
    emit_polynomial_text,
    subdivide_diagram,
)

for label, pts in [("cusp x^2+y^3", [(2, 0), (0, 3)]),
                   ("bent staircase", [(0, 8), (5, 2), (8, 0)])]:
    nd = analyze_support(pts)
    sdd = subdivide_diagram(nd)
    print(f"{label}:")
    print(f"  cells: {len(sdd.subdivision.cells)} total, "
          f"{len(sdd.inside_cells)} under the boundary")
    print(f"  kinds under the boundary: {sdd.inside_kinds()}")
    print(f"  default lifting sufficed: {not sdd.used_fallback}")

    text = emit_polynomial_text(build_patchwork(nd, sdd))
    if len(text) > 70:
        text = text[:67] + "..."
    print(f"  polynomial: {text}\n")

# The lifting values themselves, for the cusp: each support point gets
# the exponent of t on its coefficient.
lifting = build_patchwork(analyze_support([(2, 0), (0, 3)]))
for p in sorted(lifting.points, key=lambda p: (p.i + p.j, -p.i)):
    print(f"  nu({p.i},{p.j}) = {lifting.nu[p]}")
