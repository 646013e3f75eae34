"""ctwalk: spectral simulation of continuous-time classical and quantum walks
on finite undirected graphs: transition probabilities, long-time averages,
average return probabilities, degeneracy-based bounds, and transport
efficiency diagnostics."""

from .graphs import (
    Graph,
    FAMILY_LABELS,
    MAX_NODES,
    adjacency,
    check_node_count,
    from_edge_list,
    format_edge_list,
    gen_broom,
    gen_cycle,
    gen_family,
    gen_path,
    gen_star,
    is_connected,
    laplacian,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from .spectral import (
    DEFAULT_DEG_TOL,
    ConvergenceError,
    DegeneracyClass,
    Spectrum,
    cluster_degeneracies,
    eigendecompose,
    format_spectrum,
    nearest_class,
    symmetry_degree,
)
from .transport import (
    DEFAULT_GRID,
    MAX_GRID_POINTS,
    PAIR_QUANTITIES,
    QUANTITIES,
    ProbabilityMatrix,
    TimeGrid,
    TransportSeries,
    alpha_bar_sq,
    approx_alpha_bar_sq,
    avg_return_classical,
    avg_return_quantum,
    chi_bar,
    chi_bar_lb,
    classical_prob,
    lta_matrix,
    pair_kernel,
    pair_table,
    propagator,
    quantum_amplitude,
    quantum_prob,
    series,
    transition_matrix,
)
from .analysis import (
    EfficiencyReport,
    VERDICTS,
    decay_slope,
    efficiency_report,
    equipartition_time,
    running_time_average,
    verdict,
)

__version__ = "0.1.0"
