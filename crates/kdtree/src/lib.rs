//! # knn-kdtree — a k-d tree (Bentley 1975; Friedman–Bentley–Finkel 1977)
//!
//! The space-partitioning structure the paper discusses in related work
//! (§1.4): it accelerates *sequential* nearest-neighbor queries to
//! logarithmic expected time, and underlies the distributed PANDA baseline
//! of Patwary et al. \[14\] that the paper contrasts with its
//! communication-light approach.
//!
//! This crate provides a bucketed k-d tree over dense `f64` points, laid
//! out the way PANDA lays out its local trees: split nodes hold only an
//! axis, a split value and two children, and the points live in leaves of
//! up to 64 (128 once inserts have filled them), stored column-major with their ids alongside. It offers
//!
//! * median-split construction on the axis of widest spread (`O(n log n)`,
//!   balanced by construction);
//! * in-place insertion (`KdTree::insert`): one descent and an append to
//!   the leaf it reaches, which splits at its median once full, with a
//!   scapegoat rule that re-splits the offending subtree whenever an insert
//!   lands too deep, so the depth stays `O(log n)` under any insert order;
//! * ℓ-nearest-neighbor queries with bounded-heap search. Euclidean queries
//!   scan a leaf across all its points at once and prune by the distance to
//!   a subtree's whole cell; the other Minkowski norms prune by the gap to
//!   the splitting plane, and Hamming, which no gap bounds, searches
//!   exhaustively. Every answer equals the linear scan's, distance bits and
//!   `(distance, id)` tie-breaks included;
//! * structural statistics for the benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod query;
mod tree;

pub use tree::{KdStats, KdTree};
