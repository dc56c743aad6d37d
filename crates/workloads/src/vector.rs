//! Labeled vector workloads for the ML examples.
//!
//! Generation is parallel: points are produced in fixed-size chunks of
//! [`GEN_CHUNK`], each chunk drawing from its own RNG stream derived from
//! `(seed, chunk index)`. Chunk boundaries never depend on the pool size,
//! so the generated dataset is byte-identical whether rayon runs on 1
//! thread or 64 — only the wall clock changes.

use knn_points::{Label, VecPoint};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use rayon::prelude::*;

/// Points per generation chunk (and per-chunk RNG stream). Fixed — never
/// derived from the pool size — so outputs are pool-size-invariant.
pub const GEN_CHUNK: usize = 4096;

/// Run `fill` over `[0, n)` in parallel [`GEN_CHUNK`]-sized chunks, each
/// with a private RNG stream derived from `(seed, chunk index)`, and
/// concatenate the per-chunk outputs in index order.
fn par_chunks<T: Send>(
    n: usize,
    seed: u64,
    fill: impl Fn(&mut StdRng, std::ops::Range<usize>) -> Vec<T> + Sync,
) -> Vec<T> {
    let chunks = n.div_ceil(GEN_CHUNK);
    (0..chunks)
        .into_par_iter()
        .map(|c| {
            // SplitMix64-style odd multiplier decorrelates the per-chunk
            // streams from each other and from the center stream.
            let mut rng =
                StdRng::seed_from_u64(seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            fill(&mut rng, c * GEN_CHUNK..((c + 1) * GEN_CHUNK).min(n))
        })
        .collect::<Vec<Vec<T>>>()
        .into_iter()
        .flatten()
        .collect()
}

/// A mixture of isotropic Gaussian clusters in `R^d`, labeled by cluster —
/// the classic synthetic benchmark for a k-NN *classifier* (the paper's
/// motivating application, §1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianMixture {
    /// Dimensionality.
    pub dims: usize,
    /// Number of clusters (= number of classes).
    pub clusters: usize,
    /// Standard deviation of each cluster.
    pub spread: f64,
    /// Cluster centers are drawn uniformly from `[-range, range]^dims`.
    pub range: f64,
}

impl Default for GaussianMixture {
    fn default() -> Self {
        GaussianMixture { dims: 2, clusters: 3, spread: 0.5, range: 10.0 }
    }
}

impl GaussianMixture {
    /// The cluster centers this configuration induces for `seed`.
    pub fn centers(&self, seed: u64) -> Vec<VecPoint> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC3A5_C85C_97CB_3127);
        (0..self.clusters)
            .map(|_| {
                VecPoint::new(
                    (0..self.dims)
                        .map(|_| rng.random_range(-self.range..self.range))
                        .collect::<Vec<f64>>(),
                )
            })
            .collect()
    }

    /// Draw `n` labeled points; point i belongs to cluster `i % clusters`,
    /// so classes are balanced.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<(VecPoint, Label)> {
        self.generate_with(n, seed, seed)
    }

    /// Like [`GaussianMixture::generate`], but with independent seeds for
    /// the cluster centers and the per-point noise — use the same
    /// `centers_seed` with different `noise_seed`s to draw train and test
    /// sets from the *same* distribution.
    pub fn generate_with(
        &self,
        n: usize,
        centers_seed: u64,
        noise_seed: u64,
    ) -> Vec<(VecPoint, Label)> {
        assert!(self.clusters > 0 && self.dims > 0, "degenerate mixture");
        let centers = self.centers(centers_seed);
        par_chunks(n, noise_seed ^ 0x2545_F491_4F6C_DD1D, |rng, range| {
            range
                .map(|i| {
                    let c = i % self.clusters;
                    let coords: Vec<f64> =
                        centers[c].0.iter().map(|&mu| mu + self.spread * gaussian(rng)).collect();
                    (VecPoint::new(coords), Label::Class(c as u32))
                })
                .collect()
        })
    }

    /// Draw `n` points with a *regression* target: the value is a smooth
    /// function (sum of coordinates) plus Gaussian noise.
    pub fn generate_regression(&self, n: usize, noise: f64, seed: u64) -> Vec<(VecPoint, Label)> {
        let dims = self.dims;
        let range = self.range;
        par_chunks(n, seed ^ 0x9E6C_63D0_876A_9D7B, |rng, idx| {
            idx.map(|_| {
                let coords: Vec<f64> = (0..dims).map(|_| rng.random_range(-range..range)).collect();
                let target: f64 = coords.iter().sum::<f64>() + noise * gaussian(rng);
                (VecPoint::new(coords), Label::Value(target))
            })
            .collect()
        })
    }
}

/// Uniform points in the cube `[lo, hi]^dims`.
pub fn uniform_cube(n: usize, dims: usize, lo: f64, hi: f64, seed: u64) -> Vec<VecPoint> {
    assert!(lo < hi, "empty cube");
    par_chunks(n, seed ^ 0x8533_41F0_4A1C_2E09, |rng, idx| {
        idx.map(|_| {
            VecPoint::new((0..dims).map(|_| rng.random_range(lo..hi)).collect::<Vec<f64>>())
        })
        .collect()
    })
}

/// A standard normal sample via Box–Muller (the offline crate set has no
/// `rand_distr`, and two lines of math beat a dependency).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixture_labels_are_balanced() {
        let gm = GaussianMixture { clusters: 4, ..Default::default() };
        let data = gm.generate(400, 1);
        for c in 0..4u32 {
            let count = data.iter().filter(|(_, l)| *l == Label::Class(c)).count();
            assert_eq!(count, 100);
        }
    }

    #[test]
    fn points_cluster_near_their_centers() {
        let gm = GaussianMixture { dims: 2, clusters: 2, spread: 0.1, range: 100.0 };
        let centers = gm.centers(9);
        let data = gm.generate(200, 9);
        for (i, (p, _)) in data.iter().enumerate() {
            let c = &centers[i % 2];
            let d: f64 =
                p.0.iter().zip(c.0.iter()).map(|(a, b)| (a - b).powi(2)).sum::<f64>().sqrt();
            assert!(d < 2.0, "point {i} is {d} from its center");
        }
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn regression_targets_track_coordinates() {
        let gm = GaussianMixture { dims: 3, range: 5.0, ..Default::default() };
        let data = gm.generate_regression(100, 0.0, 2);
        for (p, l) in &data {
            let Label::Value(v) = l else { panic!("expected value label") };
            let s: f64 = p.0.iter().sum();
            assert!((s - v).abs() < 1e-9);
        }
    }

    #[test]
    fn uniform_cube_bounds() {
        let pts = uniform_cube(100, 4, -1.0, 2.0, 3);
        assert_eq!(pts.len(), 100);
        assert!(pts.iter().all(|p| p.0.iter().all(|&x| (-1.0..2.0).contains(&x))));
    }

    #[test]
    fn deterministic_per_seed() {
        let gm = GaussianMixture::default();
        assert_eq!(gm.generate(50, 5), gm.generate(50, 5));
        assert_ne!(gm.generate(50, 5), gm.generate(50, 6));
    }

    #[test]
    fn generation_is_pool_size_invariant() {
        // Chunk boundaries are fixed, so the dataset is byte-identical at
        // any pool size — spanning a chunk boundary on purpose.
        let n = GEN_CHUNK + 100;
        let gm = GaussianMixture::default();
        let pool = |t: usize| rayon::ThreadPoolBuilder::new().num_threads(t).build().expect("pool");
        let base = pool(1).install(|| gm.generate(n, 5));
        let base_reg = pool(1).install(|| gm.generate_regression(n, 0.3, 5));
        let base_cube = pool(1).install(|| uniform_cube(n, 3, -1.0, 1.0, 5));
        for t in [2usize, 8] {
            assert_eq!(pool(t).install(|| gm.generate(n, 5)), base, "pool {t}");
            assert_eq!(pool(t).install(|| gm.generate_regression(n, 0.3, 5)), base_reg);
            assert_eq!(pool(t).install(|| uniform_cube(n, 3, -1.0, 1.0, 5)), base_cube);
        }
    }

    #[test]
    fn split_seeds_share_centers_but_not_noise() {
        let gm = GaussianMixture { spread: 0.05, ..Default::default() };
        let a = gm.generate_with(30, 7, 1);
        let b = gm.generate_with(30, 7, 2);
        assert_ne!(a, b, "different noise streams");
        // Same centers: matched pairs are close.
        for ((p, la), (q, lb)) in a.iter().zip(&b) {
            assert_eq!(la, lb);
            let d: f64 =
                p.0.iter().zip(q.0.iter()).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
            assert!(d < 1.0, "points from the same center should be close, got {d}");
        }
    }
}
