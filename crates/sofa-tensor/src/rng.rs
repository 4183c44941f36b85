//! Deterministic random number generation for reproducible experiments.
//!
//! Every experiment binary and test in the workspace derives its randomness
//! from [`seeded_rng`] so that two runs of the benchmark harness print the
//! same tables.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Constructs a ChaCha8 RNG from a 64-bit seed.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// let mut a = sofa_tensor::seeded_rng(42);
/// let mut b = sofa_tensor::seeded_rng(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(7);
        let mut b = seeded_rng(7);
        let xs: Vec<u32> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u32> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let xs: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }
}
