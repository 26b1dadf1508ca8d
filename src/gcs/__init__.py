"""Style-guided autoregressive sampling over discrete codebook token grids.

The pipeline: estimate a style's token distribution and the dataset's
Monte-Carlo token distribution, form their element-wise ratio as a
guidance weight vector, and rebalance a trained autoregressive prior with
it at every generation step.  Every statistic is one `ScopedDistributions`
whose layout is global, per semantic region or per spatial cell.
"""

from .core import (
    FormatError,
    SemanticGrid,
    TokenBatch,
    TokenGrid,
    ValidationError,
    validate_grid,
)
from .distributions import (
    ScopedDistributions,
    average_scoped,
    collapse_scoped,
    histogram_by_cell,
    histogram_by_region,
    histogram_from_grid,
    histograms,
    monte_carlo_distribution,
)
from .guidance import (
    LikelihoodTable,
    global_likelihood_table,
    scoped_likelihoods,
    select_likelihood,
)
from .metrics import (
    GuidanceReport,
    StyleReference,
    guidance_report,
    kl_divergence,
    spatial_divergence,
    style_match_rate,
    total_variation,
)
from .prior import (
    MarkovGridPrior,
    load_model,
    save_model,
    train_markov_prior,
)
from .sampler import (
    SamplingConfig,
    batch_sample,
    exact_sequence_distribution,
    sample_grid,
)
from .world import (
    BenchmarkConfig,
    LayoutSpec,
    StyleSpec,
    default_landscape_config,
    generate_scene,
    generate_scenes,
    make_benchmark,
    spatial_contrast_config,
)

__version__ = "0.1.0"
