"""ctwalk: spectral simulation of continuous-time classical and quantum walks
on finite undirected graphs: transition probabilities, long-time averages,
average return probabilities, degeneracy-based bounds, and transport
efficiency diagnostics."""

from .graphs import (
    Graph,
    FAMILY_LABELS,
    MAX_NODES,
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
    Spectrum,
    eigendecompose,
    nearest_class,
    symmetry_degree,
)
from .transport import (
    DEFAULT_GRID,
    MAX_GRID_POINTS,
    PAIR_QUANTITIES,
    PHASE_KINDS,
    QUANTITIES,
    ProbabilityMatrix,
    TimeGrid,
    TransportSeries,
    chi_bar,
    chi_bar_lb,
    class_phases,
    from_phases,
    lta_matrix,
    series,
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
