#!/usr/bin/env python3
"""Measure the empirical constants of the lab and write them to one JSON
record: the tube neighborhood constant A1, the core projection constant A,
the Loomis-Whitney ratio ceiling over the shape zoo, the horizontal Sobolev
ratio ceiling over the function zoo, and the normalized incidence ratio band
of the sharpness families.
"""

import json
import sys

from geomlab import acceptance as A
from geomlab.heisenberg import (Plane, VerticalPlanePoint,
                                measure_core_projection_constant,
                                tube_inclusion_check)
from geomlab.planar import Scale
from geomlab.sobolev import FUNCTION_ZOO, gns_check, zoo_function


def main() -> int:
    out = {}
    a1 = 0.0
    for dexp in (4, 6, 8, 10):
        s = Scale(2.0 ** -dexp)
        for w in (VerticalPlanePoint(Plane.W_X, 0.0, 0.0),
                  VerticalPlanePoint(Plane.W_X, 0.31, -0.47),
                  VerticalPlanePoint(Plane.W_Y, -0.2, 0.6)):
            a1 = max(a1, tube_inclusion_check(w, s))
    out["A1_tube_neighborhood"] = a1
    out["A_core_projection"] = measure_core_projection_constant(Scale(2.0 ** -6))

    out["lw_ratio_ceiling"] = A.lw_sweep([1 / 48], 0.5).summary[
        "measured_ceiling"]
    out["gns_ratio_ceiling"] = max(
        gns_check(zoo_function(name, 1 / 64)).ratio for name in FUNCTION_ZOO)

    sweeps = [A.incidence_sweep([2.0 ** -d for d in dexps],
                                A.sweep_family(name))
              for name, dexps in (("tube", range(6, 13)),
                                  ("rectangle", range(4, 8)))]
    ratios = [r["ratio"] for res in sweeps for r in res.rows]
    out["incidence_ratio_min"] = min(ratios)
    out["incidence_ratio_max"] = max(ratios)

    print(json.dumps(out, indent=2, sort_keys=True))
    with open("out_constants.json", "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
