"""layoutloom: training-free layout generation with transport-based retrieval,
LLM drafting, staged refinement, and a quantitative evaluation suite."""

from .errors import LayoutLoomError
from .model import (
    BBox,
    Canvas,
    Element,
    HtmlSnippet,
    Layout,
    denormalize,
    parse_html,
    to_html,
)
from .dataset import (
    AreaStats,
    CanonicalDataset,
    DatasetManifest,
    PKU_MANIFEST,
    PUBLAYNET_MANIFEST,
    SaliencyRaster,
    compute_area_stats,
    ingest,
    load_raster,
    save_raster,
)
from .transport import TransportPlan, solve_exact
from .retrieval import (
    RetrievalIndex,
    build_index,
    load_index,
    ltsim_score,
    pseudo_layout,
    save_index,
    topk_retrieve,
    transport_distance,
)
from .metrics import (
    MetricReport,
    ReScore,
    alignments,
    layout_samples,
    max_iou,
    occlusion_utilization,
    overlaps,
    population_report,
    readability,
    size_reasonableness,
    underlay_effectiveness,
    validities,
)
from .prompts import (
    ConstraintSpec,
    PromptBundle,
    build_coarse_prompt,
    build_stage_prompt,
    render_constraint,
)
from .gateway import (
    BackendConfig,
    ExtractionFailure,
    Gateway,
    extract_layout,
    transcript_key,
)
from .pipeline import (
    PipelineConfig,
    RankerWeights,
    RefinementTrace,
    generate_coarse,
    rank_candidates,
    refine_cot,
    run_task,
)
from .render import render_svg

__version__ = "0.1.0"
