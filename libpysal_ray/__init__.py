"""libpysal_ray — a Ray-Data-native spatial weights + tiling engine.

A from-scratch rebuild of the weights-construction semantics of
pysal/libpysal (reference: /root/reference) on top of ``ray.data.Dataset``
pipelines. The one canonical relation is the Arrow edge table
``(focal: int64, neighbor: int64, weight: float64)`` — the same layout the
reference's own ``Graph`` serializes to Parquet
(reference: graph/io/_parquet.py:27-36). Every builder is a
``flat_map``/``map_batches`` + shuffle pipeline; every transform is a
groupby / join over the edge Dataset; the PIP join's polygon index is
built once per worker process inside ordinary map tasks.

Nothing here calls ``ray.init()`` — the caller owns the Ray session.
"""

from libpysal_ray.core.graph import RayGraph

__all__ = ["RayGraph"]
__version__ = "0.2.0"


def __getattr__(name):
    """Lazy convenience access to the builder families without importing
    every module at package import (keeps Ray worker import cost low):
    ``libpysal_ray.queen / rook / knn / distance_band / kernel /
    delaunay / voronoi / knn_arc / ...``."""
    _BUILDERS = {
        "queen": "libpysal_ray.builders.contiguity",
        "rook": "libpysal_ray.builders.contiguity",
        "rook_perimeter": "libpysal_ray.builders.contiguity",
        "block": "libpysal_ray.builders.contiguity",
        "fuzzy": "libpysal_ray.builders.contiguity",
        "nonplanar_neighbors": "libpysal_ray.builders.contiguity",
        "knn": "libpysal_ray.builders.distance",
        "distance_band": "libpysal_ray.builders.distance",
        "kernel": "libpysal_ray.builders.distance",
        "delaunay": "libpysal_ray.builders.delaunay",
        "delaunay_bounded": "libpysal_ray.builders.delaunay",
        "voronoi": "libpysal_ray.builders.delaunay",
        "alpha_shape_edges": "libpysal_ray.builders.delaunay",
        "gabriel": "libpysal_ray.builders.triangulation",
        "relative_neighborhood": "libpysal_ray.builders.triangulation",
        "knn_arc": "libpysal_ray.builders.sphere",
        "distance_band_arc": "libpysal_ray.builders.sphere",
        "arcdist": "libpysal_ray.builders.sphere",
        "lat2graph": "libpysal_ray.builders.lattice",
        "hexlat2graph": "libpysal_ray.builders.lattice",
        "read_shapefile": "libpysal_ray.sources.shapefile",
        "read_gal": "libpysal_ray.sources.weights_io",
        "read_gwt": "libpysal_ray.sources.weights_io",
        "read_mtx": "libpysal_ray.sources.weights_io",
        "read_arcgis_text": "libpysal_ray.sources.weights_io",
        "read_dat": "libpysal_ray.sources.weights_io",
        "read_arcgis_dbf": "libpysal_ray.sources.weights_io",
        "read_swm": "libpysal_ray.sources.weights_io",
        "read_stata_text": "libpysal_ray.sources.weights_io",
        "read_geobugs": "libpysal_ray.sources.weights_io",
        "read_mat": "libpysal_ray.sources.weights_io",
        "read_wk1": "libpysal_ray.sources.weights_io",
        "read_geoda_txt": "libpysal_ray.sources.tables",
        "polygons_from_wkt": "libpysal_ray.sources.shapefile",
        "build_travel_graph": "libpysal_ray.builders.network",
        "snap_to_nodes": "libpysal_ray.builders.network",
        "spatial_matching": "libpysal_ray.builders.matching",
        "read_db_polygons": "libpysal_ray.sources.db",
        "write_db_polygons": "libpysal_ray.sources.db",
        "dissolve_stats": "libpysal_ray.spatial.ops",
        "scrub": "libpysal_ray.text.scrub",
        "word_counts": "libpysal_ray.text.analysis",
        "length_quantiles": "libpysal_ray.text.analysis",
        "url_dedup": "libpysal_ray.text.urls",
        "canonicalize_urls": "libpysal_ray.text.urls",
        "asof_join": "libpysal_ray.temporal.joins",
        "range_count_join": "libpysal_ray.temporal.joins",
        "tumbling_window": "libpysal_ray.temporal.joins",
        "ahash_dedup": "libpysal_ray.multimodal.stages",
    }
    if name in _BUILDERS:
        import importlib

        return getattr(importlib.import_module(_BUILDERS[name]), name)
    raise AttributeError(name)
