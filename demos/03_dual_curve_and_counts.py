"""Build the dual tropical curve, verify duality, restrict, and count.

Every cell of the subdivision becomes a curve vertex at the gradient of
its plane; interior edges become segments, boundary edges become rays.
Restricting to the region under the Newton boundary and counting
4-valent vertices (v) and bounded regions (r) recovers the Milnor
number as v + r.

Run:  python3 demos/03_dual_curve_and_counts.py
"""

from tropnewton import (
    analyze_support,
    count_bounded_regions,
    count_four_valent,
    dual_tropical_curve,
    milnor_number,
    restrict,
    subdivide_diagram,
    verify_duality,
)

nd = analyze_support([(5, 0), (2, 2), (0, 5)])
sdd = subdivide_diagram(nd)
tc = dual_tropical_curve(sdd.subdivision)

rays = [e for e in tc.edges if e.kind == "ray"]
print(f"curve: {len(tc.vertices)} vertices, {len(tc.edges) - len(rays)} segments, "
      f"{len(rays)} rays")
for e in rays:
    if e.weight > 1:
        a = tc.vertices[e.endpoints[0]].coords
        print(f"  heavy ray: weight {e.weight}, direction {e.direction}, "
              f"anchored at ({a[0]}, {a[1]})")

rep = verify_duality(tc)
print(f"\nduality report: ok = {rep.ok}")
print(f"  complement components: {rep.complement_components} "
      f"(= {rep.subdivision_vertex_count} subdivision vertices)")
print(f"  bounded {rep.bounded_components} = interior vertices "
      f"{rep.interior_vertex_count}")
print(f"  unbounded {rep.unbounded_components} = boundary vertices "
      f"{rep.boundary_vertex_count}")

# Restrict to the region under the boundary: the pocket cell outside it
# drops out, cutting two segments into half-edges.
sc = restrict(tc, nd.gamma_minus)
print(f"\nrestricted: {len(sc.vprime)} vertices kept, "
      f"{len(sc.full_segments)} whole segments, "
      f"{len(sc.half_edges)} half-edges, {len(sc.rays)} rays")
for k in sc.half_edges:
    v, w = tc.edges[k].endpoints
    if v not in sc.vprime:
        v, w = w, v
    a, b = tc.vertices[v].coords, tc.vertices[w].coords
    print(f"  half-edge from ({a[0]}, {a[1]}) to midpoint "
          f"({(a[0] + b[0]) / 2}, {(a[1] + b[1]) / 2})")

v = count_four_valent(sc)
r = count_bounded_regions(sc)
mu = milnor_number(nd)
print(f"\nv = {v}, r = {r}, v + r = {v + r}, mu = {mu}")
assert mu == v + r
