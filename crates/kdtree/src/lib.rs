//! # knn-kdtree — a k-d tree (Bentley 1975; Friedman–Bentley–Finkel 1977)
//!
//! The space-partitioning structure the paper discusses in related work
//! (§1.4): it accelerates *sequential* nearest-neighbor queries to
//! logarithmic expected time, and underlies the distributed PANDA baseline
//! of Patwary et al. \[14\] that the paper contrasts with its
//! communication-light approach.
//!
//! This crate provides an arena-allocated k-d tree over dense `f64` points
//! with:
//!
//! * median-split construction (`O(n log n)`, balanced by construction);
//! * in-place insertion (`KdTree::insert`): one descent and one new leaf,
//!   with a scapegoat rule that re-splits the offending subtree whenever an
//!   insert lands too deep, so the depth stays `O(log n)` under any insert
//!   order;
//! * ℓ-nearest-neighbor queries with bounded-heap search and hyperplane
//!   pruning, valid for every Minkowski norm (pruning is disabled for
//!   Hamming, where the axis gap does not lower-bound the distance);
//! * structural statistics for the benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod query;
mod tree;

pub use tree::{KdStats, KdTree};
