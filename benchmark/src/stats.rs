//! Small statistics and digest helpers shared by the workloads.

/// Nearest-rank quantile of `v` (`q` in `[0, 1]`); 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median (nearest rank) of `v`; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// FNV-1a 64-bit running digest over the simulated statistics a run
/// must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a string (its UTF-8 bytes plus a terminator).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    /// Folds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1).u64(2);
        let mut b = Digest::default();
        b.u64(2).u64(1);
        assert_ne!(a, b);
    }
}
