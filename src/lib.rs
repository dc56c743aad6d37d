//! # knn-repro — umbrella crate for the SPAA 2020 k-NN reproduction
//!
//! Re-exports the full public API of the workspace:
//!
//! * [`kmachine`] — the k-machine model simulator (engine, bandwidth,
//!   metrics, leader election);
//! * [`points`] — points, metrics, distance keys;
//! * [`selection`] — the sequential selection kernels the protocols call
//!   (bounded-heap top-ℓ, weighted median);
//! * [`kdtree`] — the k-d tree substrate;
//! * [`workloads`] — synthetic data and adversarial partitions;
//! * [`core`] — the paper's distributed algorithms and the
//!   [`core::cluster::KnnCluster`] facade.
//!
//! See `examples/` for runnable walkthroughs and `crates/bench` for the
//! experiment harness that regenerates the paper's figure and tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kmachine;
pub use knn_core as core;
pub use knn_kdtree as kdtree;
pub use knn_points as points;
pub use knn_selection as selection;
pub use knn_workloads as workloads;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use kmachine::{BandwidthMode, NetConfig, RunMetrics, TagMetrics};
    pub use knn_core::cluster::{BatchAnswer, KnnAnswer, KnnCluster, Neighbor};
    pub use knn_core::local::IndexedPoint;
    pub use knn_core::ml::{KnnClassifier, KnnRegressor};
    pub use knn_core::report::Report;
    pub use knn_core::runner::{Algorithm, ElectionKind, QueryOptions};
    pub use knn_core::session::QuerySession;
    pub use knn_points::{
        Dataset, Dist, DistKey, IdAssigner, Label, Metric, Point, PointId, Record, ScalarPoint,
        VecPoint,
    };
    pub use knn_workloads::{GaussianMixture, PartitionStrategy, QueryStream, ScalarWorkload};
}
