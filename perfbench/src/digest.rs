//! `input_digest`: an FNV-1a 64 fold over everything the generators
//! produce (graph elements and operations), so two runs of one seed can
//! be shown to have measured the same inputs.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so `("ab","c")` and `("a","bc")` differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let mut a = Digest::default();
        a.str("ab");
        a.str("c");
        let mut b = Digest::default();
        b.str("a");
        b.str("bc");
        let mut c = Digest::default();
        c.str("ab");
        c.str("c");
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.hex().len(), 16);
    }
}
