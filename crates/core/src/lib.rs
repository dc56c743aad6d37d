//! # knn-core — distributed ℓ-NN in the k-machine model (SPAA 2020)
//!
//! Reproduction of Fathi, Molla, Pandurangan, *Efficient Distributed
//! Algorithms for the K-Nearest Neighbors Problem* (SPAA 2020,
//! arXiv:2005.07373). Given n points spread over k machines and a query
//! point q, compute the ℓ points nearest to q — in `O(log ℓ)` communication
//! rounds and `O(k log ℓ)` messages, regardless of n and k.
//!
//! ## What lives here
//!
//! * [`protocols::selection`] — **Algorithm 1**: distributed randomized
//!   selection (ℓ-smallest of n distributed values), `O(log n)` rounds whp.
//! * [`protocols::knn`] — **Algorithm 2**: the ℓ-NN protocol; per-machine
//!   sampling prunes the candidates from `kℓ` to `O(ℓ)` whp (Lemma 2.3),
//!   then Algorithm 1 finishes the job in `O(log ℓ)` rounds.
//! * [`protocols::simple`] — the **baseline** the paper measures against:
//!   every machine ships its local ℓ-NN to the leader (`Θ(ℓ)` rounds).
//! * [`protocols::saukas_song`] — the deterministic weighted-median
//!   selection of Saukas–Song \[16\], `O(log(kℓ))` rounds.
//! * [`protocols::binsearch`] — bisection over the *value domain* \[3, 18\]:
//!   `O(log V)` rounds, the non-comparison-based regime.
//! * [`cluster::KnnCluster`] — the user-facing facade: load data, pick an
//!   algorithm, run queries, inspect exact round/message costs.
//!   Every query reads per-shard indices ([`local::ShardIndex`]: exact
//!   [`local::IndexedPoint`] structures or the approximate
//!   [`local::NswIndex`] graph, chosen via [`local::IndexBackend`]) that
//!   generate local candidates in `O(ℓ log n)` instead of `O(n)`. Both
//!   backends stay live under [`cluster::KnnCluster::insert`]: a new point
//!   is absorbed into its shard's index in place, with no reload and no
//!   rebuild.
//! * [`report::Report`] — the one cost / fault / recovery / audit account
//!   every answer and outcome embeds.
//! * [`session::QuerySession`] — the **batched serving path**: one leader
//!   election per session, one engine run per batch (queries multiplexed
//!   over shared links, query `j` coordinated by the machine `j` places
//!   after the leader).
//! * [`ml`] — ℓ-NN classification (majority vote) and regression (mean),
//!   the applications motivating the paper.
//!
//! ## Quick example
//!
//! ```
//! use knn_core::cluster::KnnCluster;
//! use knn_core::runner::Algorithm;
//! use knn_points::{Dataset, IdAssigner, ScalarPoint};
//! use knn_workloads::PartitionStrategy;
//!
//! let mut ids = IdAssigner::new(1);
//! let points: Vec<ScalarPoint> = (0..20_000).map(|i| ScalarPoint(i * 10)).collect();
//! let data = Dataset::from_points(points, &mut ids);
//!
//! let mut cluster = KnnCluster::builder().machines(8).seed(7).build();
//! cluster.load(data, PartitionStrategy::Shuffled);
//!
//! let answer = cluster.query(&ScalarPoint(4242), 400).unwrap();
//! let values: Vec<u64> = answer.neighbors.iter().map(|n| n.dist.as_u64()).collect();
//! assert_eq!(answer.neighbors.len(), 400);
//! assert!(values.windows(2).all(|w| w[0] <= w[1]));
//! // The same query through the paper's baseline gives the same neighbors
//! // but pays Θ(ell) rounds instead of O(log ell) — at ell = 400 the
//! // logarithmic algorithm is already well past the crossover:
//! let slow = cluster.query_with(Algorithm::Simple, &ScalarPoint(4242), 400).unwrap();
//! assert_eq!(
//!     answer.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
//!     slow.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
//! );
//! assert!(slow.metrics.rounds >= answer.metrics.rounds);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod cluster;
pub mod error;
mod frozen;
pub mod local;
pub mod ml;
pub mod protocols;
pub mod report;
pub mod runner;
pub mod session;

pub use audit::{audit_claims, AuditReport};
pub use cluster::{BatchAnswer, ClusterBuilder, KnnAnswer, KnnCluster, Neighbor};
pub use error::CoreError;
pub use local::{IndexBackend, IndexedPoint, NswIndex, NswParams, ShardIndex};
pub use report::Report;
pub use runner::{Algorithm, ElectionKind, QueryOptions};
pub use session::{BatchOutcome, QuerySession};

/// One SplitMix64 step from state `x`: the one pure `u64 → u64` scrambler
/// behind insert routing, NSW level draws, audit sampling and source-level
/// lies — stateless, so each is the same at every pool size.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    kmachine::rng::splitmix64(&mut x)
}
