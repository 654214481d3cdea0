//! A multiplicative hasher for the program's integer-keyed tables.
//!
//! `gmp-log`'s admitted-command set is probed once or more per command, and
//! `NetState`'s link blocks and delay overrides (`(u32, u32)` keys) once
//! per send; those two stay empty unless an experiment sets a link. (The
//! engine's per-send FIFO clamp is not hashed: it lives in per-sender
//! rows, see `net.rs`.) Every key is generated by the program itself —
//! process ids and request counters — so SipHash's resistance to crafted
//! collisions buys nothing there. None of these tables is ever iterated on
//! a path that reaches the run RNG or the trace, so their iteration order
//! is free to change.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit constant derived from the golden ratio (Fibonacci hashing).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Xor-multiply hasher for keys the program generates itself (ids,
/// counters): fast, and with no defence against crafted collisions.
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn finish(&self) -> u64 {
        // A product's entropy sits in its high bits, the table's bucket
        // index is taken from the low ones: rotate the former onto the
        // latter.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` over [`IntHasher`]. Its iteration order is arbitrary: keep
/// it away from anything a run's output depends on.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
/// A `HashSet` over [`IntHasher`]; same caveat as `IntMap`.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(key: impl Hash) -> u64 {
        let mut h = IntHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    /// The keys the program actually uses — directed links, here every
    /// link of a 128-clique, as an experiment that blocks or slows links
    /// keys them, and a run of consecutive counter values — spread over
    /// the low bits a 32 Ki-bucket table indexes by without piling up.
    #[test]
    fn engine_shaped_keys_spread_over_the_low_bits() {
        const BUCKETS: usize = 1 << 15;
        let links = (0..128u32).flat_map(|f| (0..128u32).map(move |t| hash_of((f, t))));
        let counters = (1..=16_384u64).map(hash_of);
        for (what, hashes) in [
            ("links", links.collect::<Vec<_>>()),
            ("counter values", counters.collect()),
        ] {
            let mut load = vec![0u32; BUCKETS];
            for h in &hashes {
                load[(*h as usize) % BUCKETS] += 1;
            }
            let worst = load.iter().copied().max().unwrap_or(0);
            assert!(worst <= 8, "{what}: {worst} keys share one bucket");
        }
    }
}
