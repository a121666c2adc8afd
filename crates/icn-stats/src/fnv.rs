//! FNV-1a, the workspace's one stable 64-bit hash: golden-snapshot
//! stage hashes, checkpoint state hashes and the per-service noise seeds
//! all go through it, so its output must never change.

/// Streaming 64-bit FNV-1a. Feeding bytes in several [`Fnv1a::write`]
/// calls hashes the same as feeding their concatenation once.
///
/// ```
/// use icn_stats::Fnv1a;
/// assert_eq!(Fnv1a::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv1a {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}
