"""Style-guided autoregressive sampling over discrete codebook token grids.

The pipeline: estimate a style's token distribution and the dataset's
Monte-Carlo token distribution, form their element-wise ratio as a
guidance weight vector, and rebalance a trained autoregressive prior with
it at every generation step.  Every statistic is one `ScopedDistributions`
whose layout is global, per semantic region or per spatial cell.  Each
layer is its own module (`gcs.core`, `gcs.world`, `gcs.prior`, ...), and
its names are imported from there.
"""

__version__ = "0.1.0"
