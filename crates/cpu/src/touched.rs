//! Touched-entry tracking shared by every restorable pipeline structure.
//!
//! The incremental same-snapshot restore path (see [`crate::Cpu::restore_from`])
//! rests on one invariant per structure: *every entry mutated since the last
//! restore is tagged*.  A core restored from the snapshot it was last restored
//! from then rewrites only tagged entries — untagged entries still hold the
//! snapshot's bits by construction — and the early-exit convergence probe
//! compares only the union of tagged entries against a precomputed
//! checkpoint-to-checkpoint diff.
//!
//! Two shapes of structure need two shapes of tag:
//!
//! * **Array-shaped** structures (physical register file, RAT, store/load
//!   queue slots, predictor counter tables, BTB, cache lines, memory chunks)
//!   have stable per-entry indices, so they carry a [`TouchedSet`] — one bit
//!   per entry, set at every mutation site, drained by the restore walk.
//! * **Queue-shaped** structures (ROB, fetch buffer, free list) push, pop and
//!   clear; entries have no index that survives the suffix, so they carry a
//!   single whole-structure [`TouchedFlag`].  An untouched queue is skipped
//!   entirely on restore; a touched one is rewritten element-wise in place
//!   (no reallocation once capacity is warm) via [`restore_deque`].
//!
//! Tags are bookkeeping, not state: like `SnapId`, they are **never
//! serialised** (`binio` formats are unchanged; decode constructs cleared
//! tags) and they compare equal to everything, so structures embedding them
//! can keep `#[derive(PartialEq)]` and snapshot comparisons see only real
//! data.

use crate::cow::{CowSeq, ForkBytes};

/// A fixed-capacity bitset tagging which entries of an array-shaped
/// structure were mutated since the last restore.
///
/// Compares equal to any other `TouchedSet` (tags are bookkeeping, not
/// state) and is never serialised.
#[derive(Debug, Clone)]
pub struct TouchedSet {
    words: Vec<u64>,
}

impl TouchedSet {
    /// An all-clear set covering `entries` entries.
    pub fn new(entries: usize) -> Self {
        TouchedSet {
            words: vec![0; entries.div_ceil(64)],
        }
    }

    /// Tags entry `idx` as mutated.
    #[inline]
    pub fn mark(&mut self, idx: usize) {
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Tags every entry (used when a structure is rewritten wholesale, e.g.
    /// a full squash that the caller cannot attribute to single entries).
    pub fn mark_all(&mut self) {
        self.words.fill(u64::MAX);
    }

    /// Whether entry `idx` is tagged.
    #[inline]
    pub fn is_marked(&self, idx: usize) -> bool {
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Clears the tag of entry `idx`.
    #[inline]
    pub fn clear(&mut self, idx: usize) {
        self.words[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Clears every tag (a full restore trusts no tag and resets them all).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Whether any entry is tagged.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of tagged entries.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every entry tagged in `other` is also tagged in `self`
    /// (`other ⊆ self`) — the word-parallel subset test the convergence
    /// probe uses against a checkpoint-pair diff.
    pub fn contains_all(&self, other: &TouchedSet) -> bool {
        debug_assert_eq!(self.words.len(), other.words.len());
        self.words
            .iter()
            .zip(&other.words)
            .all(|(s, o)| o & !s == 0)
    }

    /// Tags every entry tagged in `other` (`self ∪= other`) — the
    /// word-parallel union the fork path uses to inherit the source core's
    /// since-restore tags in one pass.
    pub fn merge(&mut self, other: &TouchedSet) {
        debug_assert_eq!(self.words.len(), other.words.len());
        for (s, o) in self.words.iter_mut().zip(&other.words) {
            *s |= o;
        }
    }

    /// Replaces this set's tags with `other`'s in one word-parallel pass —
    /// the CoW fork path, where the fork's state *is* the source's state
    /// (page handles included), discards its own stale tags wholesale.
    pub fn copy_from(&mut self, other: &TouchedSet) {
        debug_assert_eq!(self.words.len(), other.words.len());
        self.words.copy_from_slice(&other.words);
    }

    /// Iterates the tagged entry indices in ascending order without
    /// clearing them (the convergence probe must not disturb the tags).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut word = w;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Iterates the tagged entry indices in ascending order, clearing each
    /// as it is produced — the restore walk's single pass.
    pub fn drain(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter_mut().enumerate().flat_map(|(wi, w)| {
            std::iter::from_fn(move || {
                if *w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

/// Tags never participate in state comparison: two sets always compare
/// equal, exactly like `SnapId`, so embedding structures can keep derived
/// `PartialEq` without leaking bookkeeping into snapshot identity.
impl PartialEq for TouchedSet {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for TouchedSet {}

/// Whole-structure mutation tag for queue-shaped structures whose entries
/// have no stable index (ROB, fetch buffer, free list).  Compares equal to
/// everything and is never serialised, like [`TouchedSet`].
#[derive(Debug, Clone, Default)]
pub struct TouchedFlag {
    touched: bool,
}

impl TouchedFlag {
    /// Tags the structure as mutated since the last restore.
    #[inline]
    pub fn mark(&mut self) {
        self.touched = true;
    }

    /// Whether the structure was mutated since the last restore.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.touched
    }

    /// Clears the tag (restore complete — structure equals the snapshot).
    pub fn clear(&mut self) {
        self.touched = false;
    }

    /// Replaces this tag's state with `other`'s (the CoW fork path, which
    /// makes the fork's queue identical to the source's, tags included).
    pub fn copy_from(&mut self, other: &TouchedFlag) {
        self.touched = other.touched;
    }
}

impl PartialEq for TouchedFlag {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for TouchedFlag {}

/// A pipeline structure that can rewrite itself to equal its snapshot copy,
/// either wholesale or — on the same-snapshot path — only where its tags
/// say the suffix mutated it.
///
/// `restore_from` returns the number of bytes rewritten, feeding the honest
/// per-structure `restored_bytes` accounting in
/// [`crate::RestoreStats`].  After it returns, `self` is bit-identical to
/// `snap` (in state terms; tags are cleared) on **both** paths; the
/// incremental path is purely a cost optimisation whose soundness rests on
/// the every-mutation-is-tagged invariant.
pub trait Restorable {
    /// Rewrites `self` to equal `snap`.  When `incremental` is true the
    /// caller guarantees every entry of `self` not tagged since the last
    /// restore already equals `snap`'s copy, so only tagged entries are
    /// rewritten.  Returns bytes rewritten.
    fn restore_from(&mut self, snap: &Self, incremental: bool) -> u64;
}

/// Restores a queue to equal its snapshot copy, skipping the work entirely
/// when `incremental` holds and the queue's tag is clear.  A rewrite is one
/// handle share (O(1)); the returned byte count is the queue state made
/// equal to the snapshot, mirroring the pre-CoW element-wise accounting.
pub fn restore_deque<T: Clone>(
    live: &mut CowSeq<T>,
    snap: &CowSeq<T>,
    tag: &mut TouchedFlag,
    incremental: bool,
) -> u64 {
    if incremental && !tag.is_set() {
        debug_assert_eq!(live.len(), snap.len());
        return 0;
    }
    live.share_from(snap);
    tag.clear();
    (snap.len() * std::mem::size_of::<T>()) as u64
}

/// Forks a queue from its source by cloning the handle — the fork shares the
/// source's storage until one of them writes — and mirrors the source's tag
/// (the fork's divergence from the shared restore base is exactly the
/// source's).  The returned [`ForkBytes`] reports the whole queue as shared.
pub fn fork_deque<T: Clone>(
    live: &mut CowSeq<T>,
    src: &CowSeq<T>,
    src_tag: &TouchedFlag,
    live_tag: &mut TouchedFlag,
) -> ForkBytes {
    let bytes = (src.len() * std::mem::size_of::<T>()) as u64;
    live.share_from(src);
    live_tag.copy_from(src_tag);
    ForkBytes {
        copied: 0,
        shared: bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_iter_and_drain() {
        let mut t = TouchedSet::new(130);
        assert!(!t.any());
        t.mark(0);
        t.mark(63);
        t.mark(64);
        t.mark(129);
        assert!(t.any());
        assert_eq!(t.count(), 4);
        assert!(t.is_marked(63) && t.is_marked(129));
        assert!(!t.is_marked(1));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        // `iter` does not clear.
        assert_eq!(t.count(), 4);
        assert_eq!(t.drain().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert!(!t.any());
    }

    #[test]
    fn subset_test_is_exact() {
        let mut a = TouchedSet::new(100);
        let mut b = TouchedSet::new(100);
        assert!(a.contains_all(&b));
        b.mark(70);
        assert!(!a.contains_all(&b));
        a.mark(70);
        a.mark(3);
        assert!(a.contains_all(&b));
        assert!(!b.contains_all(&a));
        a.mark_all();
        assert!(a.contains_all(&b));
        a.clear_all();
        assert!(!a.any());
    }

    #[test]
    fn merge_unions_tags_word_parallel() {
        let mut a = TouchedSet::new(130);
        let mut b = TouchedSet::new(130);
        a.mark(1);
        b.mark(64);
        b.mark(129);
        a.merge(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 64, 129]);
        assert!(a.contains_all(&b));
        // `other` is untouched by the union.
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn fork_deque_shares_and_mirrors_divergence() {
        let base: CowSeq<u32> = CowSeq::from_deque((0..4).collect());
        let mut src = base.clone();
        let src_tag = TouchedFlag::default();
        let mut live = base.clone();
        let mut live_tag = TouchedFlag::default();
        // Source still equals the shared base: the fork shares the handle.
        let fb = fork_deque(&mut live, &src, &src_tag, &mut live_tag);
        assert_eq!((fb.copied, fb.shared), (0, 4 * 4));
        assert!(!live_tag.is_set());
        // A diverged source is shared too, and the fork's tag mirrors the
        // source's divergence.
        src.make_mut().push_back(9);
        let mut src_tag = TouchedFlag::default();
        src_tag.mark();
        let fb = fork_deque(&mut live, &src, &src_tag, &mut live_tag);
        assert_eq!((fb.copied, fb.shared), (0, 5 * 4));
        assert_eq!(live, src);
        assert!(live_tag.is_set());
    }

    #[test]
    fn tags_are_invisible_to_equality() {
        let mut a = TouchedSet::new(10);
        let b = TouchedSet::new(10);
        a.mark(3);
        assert_eq!(a, b);
        let mut f = TouchedFlag::default();
        let g = TouchedFlag::default();
        f.mark();
        assert_eq!(f, g);
        assert!(f.is_set() && !g.is_set());
        f.clear();
        assert!(!f.is_set());
    }

    #[test]
    fn deque_restore_skips_clean_and_rewrites_dirty() {
        let snap: CowSeq<u32> = CowSeq::from_deque((0..8).collect());
        let mut live = snap.clone();
        let mut tag = TouchedFlag::default();
        // Clean incremental restore touches nothing.
        assert_eq!(restore_deque(&mut live, &snap, &mut tag, true), 0);
        // A mutated queue is rewritten (by re-sharing the snapshot's handle)
        // and the tag cleared.
        live.make_mut().pop_front();
        tag.mark();
        let bytes = restore_deque(&mut live, &snap, &mut tag, true);
        assert_eq!(bytes, 8 * 4);
        assert_eq!(live, snap);
        assert!(!tag.is_set());
        // The full path rewrites regardless of the tag.
        assert_eq!(restore_deque(&mut live, &snap, &mut tag, false), 8 * 4);
        assert_eq!(live, snap);
    }
}
