//! Concrete generators.

use crate::{RngCore, SeedableRng};

/// SplitMix64 step, used only to expand a 64-bit seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's standard deterministic generator: xoshiro256++.
///
/// Small, fast, and statistically strong (Blackman & Vigna, 2018). Unlike
/// `rand`'s ChaCha-based `StdRng` it makes no cryptographic claims — the
/// simulator needs reproducibility and statistical quality, not secrecy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // Expand via SplitMix64 per the xoshiro authors' recommendation; the
        // all-zero state (unreachable from SplitMix64) would be a fixed point.
        let mut sm = seed;
        StdRng {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Alias kept for call sites that name the small generator explicitly.
pub type SmallRng = StdRng;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_is_never_all_zero() {
        for seed in 0..64 {
            let rng = StdRng::seed_from_u64(seed);
            assert_ne!(rng.s, [0, 0, 0, 0]);
        }
    }

    #[test]
    fn streams_differ_across_seeds() {
        let mut outs = std::collections::HashSet::new();
        for seed in 0..256 {
            outs.insert(StdRng::seed_from_u64(seed).next_u64());
        }
        assert_eq!(outs.len(), 256);
    }
}
