"""wreathlab: exact finite-group computations around wreath products.

Build named groups and actions, materialize wreath products, embed group
extensions into them (regular and coset variants), realize the quadratic
radical-tower embedding over exact multiquadratic fields, and reproduce the
size formulas and plot data for both wreath routes.
"""

from .actions import (
    FiniteGSet,
    action_from_json,
    action_to_json,
    check_equivariant,
    coset_action,
    load_action,
    natural_action,
    regular_action,
    save_action,
)
from .embeddings import (
    EmbeddingReport,
    ShortExactSequence,
    all_sections,
    kk_embedding,
    omega_embedding,
    random_section,
    solvability_witness,
    transport_iso,
    transport_subgroup,
    verify_embedding,
)
from .errors import (
    ActionValidationError,
    DivisibilityViolationError,
    GroupFormatError,
    GroupValidationError,
    NonNormalSubgroupError,
    NotEquivariantError,
    NotIsomorphismError,
    NotSurjectiveError,
    SearchBudgetExceededError,
    SectionMismatchError,
    SizeLimitError,
    TowerError,
    UnsupportedPrimeError,
    WreathlabError,
)
from .fields import (
    FieldAutomorphism,
    MultiQuadElement,
    MultiQuadField,
    QuadraticTower,
    chi,
    galois_group,
    quadratic_kummer_embedding,
    restriction_hom,
    tower_extension,
    verify_cocycle,
)
from .groups import (
    Certificate,
    FiniteGroup,
    GroupHom,
    Section,
    center_subgroup,
    certify_hom,
    check_presentation_d4,
    construct_named,
    coset_partition,
    default_section,
    direct_product,
    group_from_json,
    group_to_json,
    identity_hom,
    load_group,
    normal_core,
    quotient,
    save_group,
    subgroup_from_elements,
    subgroup_generated,
)
from .search import are_isomorphic, embeds_into, identify_small
from .sizes import (
    FigureRow,
    SizeRow,
    crossover_report,
    figure_csv,
    figure_data,
    omega_size,
    regular_size,
    table1,
    tower_size_comparison,
)
from .wreath import (
    WreathGroup,
    build_wreath,
    regular_wreath,
)

__version__ = "0.1.0"
