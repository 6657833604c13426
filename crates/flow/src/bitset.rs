//! Fixed-width bitset frontiers for the flow kernels.
//!
//! The kernels' visited/membership sets (`residual_reachable` marks, BFS
//! `seen`) used to be `Vec<bool>` — one byte
//! per node, refilled element-by-element on every sweep. [`BitSet`] packs
//! them 64 nodes to a word, so clearing an n-node frontier touches
//! `⌈n/64⌉` words instead of `n` bytes and membership tests stay a single
//! shift-and-mask. The [`words_cleared`](BitSet::words_cleared) counter
//! feeds `SolveStats::bitset_words_cleared`, making the word-at-a-time
//! clear observable from the solver diagnostics.

/// A growable bitset sized in 64-bit words.
///
/// Reset with [`reset`](Self::reset) before each sweep; bits outside the
/// reset length read as unset.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
    /// Words zeroed by [`reset`](Self::reset) since construction — the
    /// cost of frontier clears, in words.
    words_cleared: u64,
}

impl BitSet {
    /// An empty bitset; backing words are allocated by the first `reset`.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Clear the set and size it for `len` bits, zeroing word-at-a-time.
    pub fn reset(&mut self, len: usize) {
        let words = len.div_ceil(64);
        // Zero only the words that may hold stale bits, then grow: fresh
        // words from `resize` are already zero.
        let dirty = self.words.len().min(words);
        for w in &mut self.words[..dirty] {
            *w = 0;
        }
        self.words.resize(words, 0);
        self.words_cleared += dirty as u64;
    }

    /// Whether bit `i` is set (false for any `i` beyond the reset length).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        match self.words.get(i >> 6) {
            Some(w) => (w >> (i & 63)) & 1 != 0,
            None => false,
        }
    }

    /// Set bit `i`.
    ///
    /// # Panics
    /// Panics if `i` is beyond the length given to the last `reset`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Clear bit `i`.
    ///
    /// # Panics
    /// Panics if `i` is beyond the length given to the last `reset`.
    #[inline]
    pub fn clear_bit(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Words zeroed by `reset` calls since construction.
    pub fn words_cleared(&self) -> u64 {
        self.words_cleared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_reset() {
        let mut b = BitSet::new();
        b.reset(130);
        assert!(!b.get(0) && !b.get(129));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(65));
        b.reset(130);
        assert!(!b.get(0) && !b.get(129), "reset clears all bits");
    }

    #[test]
    fn out_of_range_reads_are_unset() {
        let mut b = BitSet::new();
        b.reset(10);
        assert!(!b.get(1000));
    }

    #[test]
    fn words_cleared_counts_only_dirty_words() {
        let mut b = BitSet::new();
        b.reset(128); // fresh allocation: nothing to clear
        assert_eq!(b.words_cleared(), 0);
        b.reset(128); // 2 words zeroed
        assert_eq!(b.words_cleared(), 2);
        b.reset(64); // shrink: only 1 word may be stale... but both exist
        assert_eq!(b.words_cleared(), 3);
    }

    #[test]
    fn shrinking_reset_hides_old_bits() {
        let mut b = BitSet::new();
        b.reset(200);
        b.set(199);
        b.reset(10);
        assert!(!b.get(199), "bits beyond the reset length read unset");
        b.reset(200);
        assert!(!b.get(199), "regrowing must not resurrect old bits");
    }
}
