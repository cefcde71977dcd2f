"""Exact-arithmetic detection of strong corks from knot Floer complexes.

The library decides, from a finitely generated bigraded complex over
F2[U,V] equipped with a chain symmetry and the skew involution, whether
surgery diffeomorphisms obstruct extending over homology balls: it
computes the basepoint full-twist map, involutive tensor products,
diagonal subcomplexes, the cylinder obstruction delta, local-map
existence, connected models, and twist-nontriviality, and maps the
results through the cork-detection rule book.
"""

__version__ = "0.1.0"

from .complexes import (  # noqa: F401
    Endomorphism,
    KnotComplex,
    PhiIotaComplex,
    dual,
    iota_complex,
    phi_psi_maps,
    sarkar_map,
    serialize,
    tensor,
    to_dict,
    validate,
)
from .connected import (  # noqa: F401
    ConnectedResult,
    StandardForm,
    connected_complex,
    recognize_standard,
    s_nontrivial,
)
from .errors import CorkscrewError  # noqa: F401
from .homotopy import (  # noqa: F401
    Homotopy,
    LocalityCertificate,
    MorphismSpace,
    commutes_up_to_homotopy,
    homotopic,
    local_map_exists,
    self_local_space,
)
from .invariants import (  # noqa: F401
    DeltaResult,
    UComplex,
    UHomology,
    a0,
    build_cyl,
    delta,
    delta_zero_iff_local,
    homology_u,
)
from .knot_table import (  # noqa: F401
    KnotTableRow,
    bundled_table,
    census,
    census_names,
    parse_knot_csv,
)
from .models import (  # noqa: F401
    box_complex,
    bundled,
    figure_eight_with_actions,
    parse_complex,
    solve_involution,
    staircase_model,
    thin_model,
    torus_model,
    trivial,
    unknot,
)
from .verdicts import (  # noqa: F401
    KnotDescriptor,
    Verdict,
    cor13_arithmetic,
    cor51_rule,
    replay_certificate,
    verdict_delta,
    verdict_gompf,
    verdict_periodic,
    verdict_split,
)
