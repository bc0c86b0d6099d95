//! Program-independent parts of the `tierbench` benchmark: the metric
//! spec, order statistics, `/proc` readers, the in-memory span tracer,
//! the child-to-parent report, and the run-to-run comparison. The
//! workloads themselves live in the binary (`src/workloads.rs`), the
//! only code that calls the program.

#![forbid(unsafe_code)]

pub mod compare;
pub mod report;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;

/// The SplitMix64 finalizer: a bijective 64-bit mix.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Input seed of iteration `i` in a run seeded with `seed`. Every
/// iteration gets fresh inputs, so no process-wide cache can serve an
/// iteration from an earlier one.
pub fn iter_seed(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ i)
}

/// 64-bit FNV-1a, the digest recorded for every iteration's output.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds a float by its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_stream() {
        // First two outputs of the reference SplitMix64 generator seeded
        // with 0: the state advances by the golden gamma per draw.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn iteration_seeds_are_distinct_and_reproducible() {
        let seeds: Vec<u64> = (0..1000).map(|i| iter_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(iter_seed(42, 7), iter_seed(42, 7));
        assert_ne!(iter_seed(42, 7), iter_seed(43, 7));
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv1a::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }
}
