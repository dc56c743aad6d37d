//! Deterministic per-machine randomness.
//!
//! The model gives each machine a private source of true random bits. For
//! reproducibility every machine's stream is derived from the run's master
//! seed and the machine id through SplitMix64, so a run is a pure function
//! of `(protocols, NetConfig)`.

use rand::{rngs::StdRng, SeedableRng};

/// SplitMix64 step: a high-quality 64-bit mixer (Steele et al.).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    finalize(*state)
}

/// SplitMix64's output finalizer: a stateless, well-mixed `u64 → u64`
/// scramble, also behind the links' loss rolls and digest chains.
#[inline]
pub(crate) fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a `(master seed, stream index)` pair into an independent sub-seed.
#[inline]
fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut s = master ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    let a = splitmix64(&mut s);
    let b = splitmix64(&mut s);
    a ^ b.rotate_left(32)
}

/// The RNG handed to machine `id` for a run with the given master seed.
pub fn machine_rng(master: u64, id: usize) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, id as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn derive_is_deterministic() {
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
    }

    #[test]
    fn different_streams_differ() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn machine_rngs_are_reproducible_and_distinct() {
        let x: u64 = machine_rng(7, 0).random();
        let y: u64 = machine_rng(7, 0).random();
        let z: u64 = machine_rng(7, 1).random();
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn splitmix_known_behaviour() {
        // Mixing from zero state must not return zero and must advance state.
        let mut s = 0u64;
        let v1 = splitmix64(&mut s);
        let v2 = splitmix64(&mut s);
        assert_ne!(v1, 0);
        assert_ne!(v1, v2);
    }
}
