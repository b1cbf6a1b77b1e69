//! The stochastic distributions used by the paper's experiments.
//!
//! The inverse-CDF sampling code is written out here rather than pulled from
//! a distributions crate so that the exact distributional assumptions of the
//! experiments are visible and unit-testable.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution over positive cycle counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Always `value` cycles (the paper's cache-fault latency: "network
    /// response time is uniform, which is reasonable for lightly loaded
    /// networks").
    Constant(u64),
    /// Geometric with the given mean: a fixed probability `1/mean` of the
    /// event on each cycle (the paper's run-length model). Support is
    /// `1, 2, 3, ...`.
    Geometric {
        /// Mean in cycles; must be at least 1.
        mean: f64,
    },
    /// Exponential with the given mean, rounded up to at least one cycle
    /// (the paper's synchronization-wait model).
    Exponential {
        /// Mean in cycles; must be positive.
        mean: f64,
    },
    /// Uniform over `lo..=hi`.
    UniformInt {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// A mixture of the two fault-latency processes of the paper's section
    /// 3: with probability `p_cache` the fault is a remote cache miss
    /// (constant latency), otherwise a synchronization wait (exponential).
    /// Used by the "experiments involving both types of faults".
    CacheSyncMix {
        /// Probability a fault is a cache miss.
        p_cache: f64,
        /// Constant cache-miss latency in cycles.
        cache_latency: u64,
        /// Mean synchronization wait in cycles.
        sync_mean: f64,
    },
}

impl Dist {
    /// Draws one sample, through a [`Sampler`] prepared for this one draw.
    ///
    /// # Panics
    ///
    /// Panics if the distribution's parameters are invalid (see
    /// [`Dist::validate`]); construct-time validation is the caller's job.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        Sampler::new(*self).unwrap_or_else(|why| panic!("{why}")).sample(rng)
    }

    /// The distribution's mean.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(v) => v as f64,
            Dist::Geometric { mean } | Dist::Exponential { mean } => mean,
            Dist::UniformInt { lo, hi } => (lo + hi) as f64 / 2.0,
            Dist::CacheSyncMix { p_cache, cache_latency, sync_mean } => {
                p_cache * cache_latency as f64 + (1.0 - p_cache) * sync_mean
            }
        }
    }

    /// Checks parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when parameters are out of range.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Dist::Constant(_) => Ok(()),
            Dist::Geometric { mean } if mean >= 1.0 => Ok(()),
            Dist::Geometric { mean } => Err(format!("geometric mean {mean} must be >= 1")),
            Dist::Exponential { mean } if mean > 0.0 => Ok(()),
            Dist::Exponential { mean } => Err(format!("exponential mean {mean} must be > 0")),
            Dist::UniformInt { lo, hi } if lo <= hi => Ok(()),
            Dist::UniformInt { lo, hi } => Err(format!("uniform bounds {lo}..={hi} out of order")),
            Dist::CacheSyncMix { p_cache, sync_mean, .. } => {
                if !(0.0..=1.0).contains(&p_cache) {
                    Err(format!("mixture weight {p_cache} must be in [0, 1]"))
                } else if sync_mean <= 0.0 {
                    Err(format!("mixture sync mean {sync_mean} must be > 0"))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// A validated [`Dist`] prepared for repeated sampling: the geometric's
/// `ln(1 - 1/mean)` is computed once here instead of once per draw.
/// [`Dist::sample`] draws through this same code, so a prepared sampler
/// and its distribution produce the identical stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampler {
    dist: Dist,
    /// `ln(1 - 1/mean)` for [`Dist::Geometric`]; unused otherwise.
    ln_stay: f64,
}

impl Sampler {
    /// Prepares `dist` for sampling.
    ///
    /// # Errors
    ///
    /// The [`Dist::validate`] reason when the parameters are out of range.
    pub fn new(dist: Dist) -> Result<Sampler, String> {
        dist.validate()?;
        let ln_stay = match dist {
            Dist::Geometric { mean } => (1.0 - 1.0 / mean).ln(),
            _ => 0.0,
        };
        Ok(Sampler { dist, ln_stay })
    }

    /// Draws one sample.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self.dist {
            Dist::Constant(v) => v,
            Dist::Geometric { mean } => {
                if mean == 1.0 {
                    return 1;
                }
                // P(fault on a cycle) = 1/mean; support {1, 2, ...} with
                // E[X] = mean. Inverse CDF: X = ceil(ln(1-u) / ln(1-p)).
                let u: f64 = rng.gen_range(0.0..1.0);
                ceil_u64((1.0 - u).ln() / self.ln_stay).max(1)
            }
            Dist::Exponential { mean } => exponential(mean, rng),
            Dist::UniformInt { lo, hi } => rng.gen_range(lo..=hi),
            Dist::CacheSyncMix { p_cache, cache_latency, sync_mean } => {
                if rng.gen_range(0.0..1.0) < p_cache {
                    cache_latency
                } else {
                    exponential(sync_mean, rng)
                }
            }
        }
    }
}

/// Exponential with the given mean, rounded to at least one cycle.
fn exponential<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let x = -mean * (1.0 - u).ln();
    (x.round() as u64).max(1)
}

/// `q.ceil() as u64` for every `f64`, NaN and infinities included, without
/// the float `ceil` call (a soft-float library call on the baseline x86-64
/// target). The truncating cast saturates and maps NaN to 0 exactly like
/// the cast after `ceil`; rounding up is needed only when truncation
/// dropped a fraction, and saturates at `u64::MAX` like the cast would.
#[inline]
fn ceil_u64(q: f64) -> u64 {
    let t = q as u64;
    if (t as f64) < q {
        t.saturating_add(1)
    } else {
        t
    }
}

/// The paper's context-size (`C`) distributions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ContextSizeDist {
    /// `C` uniform over `lo..=hi` registers (the headline experiments use
    /// 6..=24, which the paper notes is biased toward large power-of-two
    /// contexts).
    Uniform {
        /// Inclusive lower bound in registers.
        lo: u32,
        /// Inclusive upper bound in registers.
        hi: u32,
    },
    /// Homogeneous `C` (the section 3.4 experiments use 8 and 16).
    Fixed(u32),
    /// A mix of coarse and fine-grained threads (the flexibility case of
    /// paper section 2: the register file "divided ... into different
    /// combinations of context sizes, supporting a mix of both coarse and
    /// fine-grained threads").
    Bimodal {
        /// Register count of fine-grained threads.
        small: u32,
        /// Register count of coarse-grained threads.
        large: u32,
        /// Probability a thread is fine-grained.
        p_small: f64,
    },
}

impl ContextSizeDist {
    /// The paper's headline distribution: `C ~ U(6, 24)`.
    pub const PAPER_UNIFORM: ContextSizeDist = ContextSizeDist::Uniform { lo: 6, hi: 24 };

    /// Draws a context size in registers.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match *self {
            ContextSizeDist::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            ContextSizeDist::Fixed(c) => c,
            ContextSizeDist::Bimodal { small, large, p_small } => {
                if rng.gen_range(0.0..1.0) < p_small {
                    small
                } else {
                    large
                }
            }
        }
    }

    /// The mean context size in registers.
    pub fn mean(&self) -> f64 {
        match *self {
            ContextSizeDist::Uniform { lo, hi } => (lo + hi) as f64 / 2.0,
            ContextSizeDist::Fixed(c) => c as f64,
            ContextSizeDist::Bimodal { small, large, p_small } => {
                p_small * small as f64 + (1.0 - p_small) * large as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mean_of(d: Dist, n: usize) -> f64 {
        let mut rng = SmallRng::seed_from_u64(42);
        (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(Dist::Constant(7).sample(&mut rng), 7);
        }
    }

    #[test]
    fn geometric_empirical_mean_close() {
        for mean in [2.0, 8.0, 32.0, 128.0] {
            let m = mean_of(Dist::Geometric { mean }, 200_000);
            assert!((m - mean).abs() / mean < 0.03, "mean {mean}: got {m}");
        }
    }

    #[test]
    fn geometric_mean_one_is_always_one() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(Dist::Geometric { mean: 1.0 }.sample(&mut rng), 1);
        }
    }

    #[test]
    fn exponential_empirical_mean_close() {
        for mean in [10.0, 100.0, 1000.0] {
            let m = mean_of(Dist::Exponential { mean }, 200_000);
            assert!((m - mean).abs() / mean < 0.03, "mean {mean}: got {m}");
        }
    }

    #[test]
    fn exponential_memorylessness_rough() {
        // P(X > 2L) should be about e^-2 of P(X > L) relative to total.
        let d = Dist::Exponential { mean: 100.0 };
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 100_000;
        let samples: Vec<u64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let above_l = samples.iter().filter(|&&x| x > 100).count() as f64 / n as f64;
        assert!((above_l - (-1.0f64).exp()).abs() < 0.02, "got {above_l}");
    }

    #[test]
    fn uniform_covers_bounds() {
        let d = Dist::UniformInt { lo: 6, hi: 24 };
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((6..=24).contains(&x));
            seen_lo |= x == 6;
            seen_hi |= x == 24;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn samples_are_always_positive() {
        let mut rng = SmallRng::seed_from_u64(11);
        for d in [
            Dist::Geometric { mean: 1.5 },
            Dist::Exponential { mean: 0.5 },
            Dist::Constant(1),
        ] {
            for _ in 0..1000 {
                assert!(d.sample(&mut rng) >= 1);
            }
        }
    }

    #[test]
    fn validation() {
        assert!(Dist::Geometric { mean: 0.5 }.validate().is_err());
        assert!(Dist::Exponential { mean: 0.0 }.validate().is_err());
        assert!(Dist::UniformInt { lo: 5, hi: 4 }.validate().is_err());
        assert!(Dist::Geometric { mean: 8.0 }.validate().is_ok());
        assert!(Dist::CacheSyncMix { p_cache: 1.5, cache_latency: 10, sync_mean: 10.0 }
            .validate()
            .is_err());
        assert!(Dist::CacheSyncMix { p_cache: 0.5, cache_latency: 10, sync_mean: 0.0 }
            .validate()
            .is_err());
        assert!(Dist::CacheSyncMix { p_cache: 0.5, cache_latency: 10, sync_mean: 10.0 }
            .validate()
            .is_ok());
    }

    #[test]
    fn mixture_mean_and_composition() {
        let d = Dist::CacheSyncMix { p_cache: 0.75, cache_latency: 100, sync_mean: 1000.0 };
        assert!((d.mean() - (0.75 * 100.0 + 0.25 * 1000.0)).abs() < 1e-12);
        let m = mean_of(d, 200_000);
        assert!((m - d.mean()).abs() / d.mean() < 0.05, "got {m}");
        // Degenerate weights collapse to the pure processes.
        let mut rng = SmallRng::seed_from_u64(13);
        let pure_cache =
            Dist::CacheSyncMix { p_cache: 1.0, cache_latency: 42, sync_mean: 9.0 };
        for _ in 0..100 {
            assert_eq!(pure_cache.sample(&mut rng), 42);
        }
    }

    #[test]
    fn context_size_dists() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(ContextSizeDist::Fixed(8).sample(&mut rng), 8);
        assert_eq!(ContextSizeDist::PAPER_UNIFORM.mean(), 15.0);
        for _ in 0..100 {
            let c = ContextSizeDist::PAPER_UNIFORM.sample(&mut rng);
            assert!((6..=24).contains(&c));
        }
    }

    #[test]
    fn bimodal_mixes_coarse_and_fine() {
        let d = ContextSizeDist::Bimodal { small: 4, large: 32, p_small: 0.75 };
        let mut rng = SmallRng::seed_from_u64(17);
        let mut smalls = 0;
        let n = 10_000;
        for _ in 0..n {
            match d.sample(&mut rng) {
                4 => smalls += 1,
                32 => {}
                other => panic!("unexpected size {other}"),
            }
        }
        let frac = smalls as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "got {frac}");
        assert!((d.mean() - (0.75 * 4.0 + 0.25 * 32.0)).abs() < 1e-12);
    }

    /// The geometric draw as it was written before [`Sampler`]: the log
    /// of the stay probability and the float `ceil` on every sample.
    fn geometric_reference(mean: f64, rng: &mut SmallRng) -> u64 {
        if mean == 1.0 {
            return 1;
        }
        let p = 1.0 / mean;
        let u: f64 = rng.gen_range(0.0..1.0);
        let x = ((1.0 - u).ln() / (1.0 - p).ln()).ceil();
        (x as u64).max(1)
    }

    #[test]
    fn prepared_geometric_matches_the_per_sample_formula() {
        for mean in [1.0, 1.0 + 1e-12, 1.5, 2.0, 8.0, 32.0, 100.0, 1e9, 1e300, f64::INFINITY] {
            let sampler = Sampler::new(Dist::Geometric { mean }).unwrap();
            let mut a = SmallRng::seed_from_u64(mean.to_bits());
            let mut b = SmallRng::seed_from_u64(mean.to_bits());
            for _ in 0..20_000 {
                assert_eq!(sampler.sample(&mut a), geometric_reference(mean, &mut b), "mean {mean}");
            }
            // The streams stayed in lockstep: both consumed the same words.
            assert_eq!(a.to_state(), b.to_state());
        }
    }

    #[test]
    fn integer_ceil_matches_float_ceil_on_edge_values() {
        let two53 = (1u64 << 53) as f64;
        let two64 = 18_446_744_073_709_551_616.0f64;
        for q in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            3.0,
            two53 - 1.0,
            two53 - 0.5,
            two53,
            two53 + 2.0,
            (1u64 << 63) as f64,
            two64 - 2048.0,
            two64,
            two64 * 2.0,
            f64::MAX,
            f64::INFINITY,
            -0.5,
            -1.0,
            -1e300,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            assert_eq!(ceil_u64(q), q.ceil() as u64, "q = {q:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Any bit pattern at all, including NaN payloads and subnormals.
        #[test]
        fn integer_ceil_matches_float_ceil_on_any_bits(bits in any::<u64>()) {
            let q = f64::from_bits(bits);
            prop_assert_eq!(ceil_u64(q), q.ceil() as u64, "q = {:e}", q);
        }

        /// The quotients the geometric sampler actually forms.
        #[test]
        fn integer_ceil_matches_float_ceil_on_geometric_quotients(
            u in 0.0f64..1.0,
            mean in 1.0f64..1e6,
        ) {
            let q = (1.0 - u).ln() / (1.0 - 1.0 / mean).ln();
            prop_assert_eq!(ceil_u64(q), q.ceil() as u64, "q = {:e}", q);
        }
    }

    #[test]
    fn invalid_dists_do_not_prepare() {
        assert!(Sampler::new(Dist::Geometric { mean: 0.5 }).is_err());
        assert!(Sampler::new(Dist::Geometric { mean: f64::NAN }).is_err());
        assert!(Sampler::new(Dist::Exponential { mean: 0.0 }).is_err());
        assert!(Sampler::new(Dist::UniformInt { lo: 2, hi: 1 }).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let d = Dist::Geometric { mean: 32.0 };
        let a: Vec<u64> = {
            let mut rng = SmallRng::seed_from_u64(7);
            (0..50).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = SmallRng::seed_from_u64(7);
            (0..50).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
