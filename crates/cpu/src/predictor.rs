//! Branch direction predictor and branch target buffer.
//!
//! Prediction exists so that the core executes *wrong-path* micro-ops that
//! later get squashed — the paper's ACE-like interval definition explicitly
//! excludes reads performed by squashed instructions, so a reproduction
//! without wrong-path execution would have nothing to exclude.

use crate::cow::{CowTable, ForkBytes};
use crate::touched::{Restorable, TouchedSet};
use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use merlin_isa::Rip;

/// Copy-on-write page size for the direction counter tables, in counters.
const COUNTER_PAGE: usize = 512;

/// Copy-on-write page size for the BTB entry array, in entries.
const BTB_PAGE: usize = 128;

/// A 2-bit saturating counter direction predictor (bimodal) combined with a
/// global-history gshare table; the stronger of the two provides the
/// prediction, loosely mirroring the tournament predictor of Table 1.
///
/// Counters are epoch-tagged ([`TouchedSet`]) **per table**: the bimodal and
/// gshare tables each carry their own set, so a same-snapshot restore and
/// the fork path rewrite only the counters the suffix actually bumped in
/// that table, with no index translation across a concatenated space (the
/// history register is a scalar and always re-assigned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictor {
    bimodal: CowTable<u8>,
    gshare: CowTable<u8>,
    history: u64,
    history_bits: u32,
    bimodal_touched: TouchedSet,
    gshare_touched: TouchedSet,
}

/// Per-table counter diff between two predictor snapshots, consumed by the
/// convergence probe (`StateDiff` keeps one per checkpoint pair).
#[derive(Debug, Clone)]
pub(crate) struct PredictorDiff {
    bimodal: TouchedSet,
    gshare: TouchedSet,
}

impl BranchPredictor {
    /// Creates a predictor with `entries` counters per table (rounded up to a
    /// power of two).
    pub fn new(entries: usize) -> Self {
        let n = entries.next_power_of_two().max(16);
        BranchPredictor {
            bimodal: CowTable::new(n, 2, COUNTER_PAGE),
            gshare: CowTable::new(n, 2, COUNTER_PAGE),
            history: 0,
            history_bits: 12,
            bimodal_touched: TouchedSet::new(n),
            gshare_touched: TouchedSet::new(n),
        }
    }

    fn bimodal_index(&self, rip: Rip) -> usize {
        (rip as usize) & (self.bimodal.len() - 1)
    }

    fn gshare_index(&self, rip: Rip) -> usize {
        ((rip as u64 ^ self.history) as usize) & (self.gshare.len() - 1)
    }

    /// Predicts the direction of the conditional branch at `rip`.
    pub fn predict(&self, rip: Rip) -> bool {
        let b = *self.bimodal.get(self.bimodal_index(rip));
        let g = *self.gshare.get(self.gshare_index(rip));
        // "Tournament": trust whichever table is more confident; ties go to
        // the global-history table.
        let (bc, gc) = (confidence(b), confidence(g));
        if bc > gc {
            b >= 2
        } else {
            g >= 2
        }
    }

    /// Updates the predictor with the resolved direction of the branch at
    /// `rip`.
    pub fn update(&mut self, rip: Rip, taken: bool) {
        let bi = self.bimodal_index(rip);
        let gi = self.gshare_index(rip);
        self.bimodal_touched.mark(bi);
        self.gshare_touched.mark(gi);
        *self.bimodal.get_mut(bi) = bump(*self.bimodal.get(bi), taken);
        *self.gshare.get_mut(gi) = bump(*self.gshare.get(gi), taken);
        self.history = ((self.history << 1) | taken as u64) & ((1 << self.history_bits) - 1);
    }

    /// Per-table counter diff between `self` and `other`.  Pages sharing a
    /// handle are skipped without being read.
    pub(crate) fn diff(&self, other: &Self) -> PredictorDiff {
        let n = self.bimodal.len();
        let mut d = PredictorDiff {
            bimodal: TouchedSet::new(n),
            gshare: TouchedSet::new(n),
        };
        self.bimodal
            .for_each_diff(&other.bimodal, |i| d.bimodal.mark(i));
        self.gshare
            .for_each_diff(&other.gshare, |i| d.gshare.mark(i));
        d
    }

    /// Whether the history register and every tagged counter equal `g`'s.
    pub(crate) fn touched_matches(&self, g: &Self) -> bool {
        self.history == g.history
            && self.history_bits == g.history_bits
            && self
                .bimodal_touched
                .iter()
                .all(|i| self.bimodal.get(i) == g.bimodal.get(i))
            && self
                .gshare_touched
                .iter()
                .all(|i| self.gshare.get(i) == g.gshare.get(i))
    }

    /// Convergence probe against `g` given the restore-source diff.
    pub(crate) fn converged_with(&self, g: &Self, diff: &PredictorDiff) -> bool {
        self.bimodal_touched.contains_all(&diff.bimodal)
            && self.gshare_touched.contains_all(&diff.gshare)
            && self.touched_matches(g)
    }

    /// Forks from `src` by sharing its page handles — no counter is copied —
    /// and mirroring its tags, so `self` becomes bit-identical to `src` at
    /// O(pages) cost.
    pub(crate) fn fork_from(&mut self, src: &Self) -> ForkBytes {
        debug_assert_eq!(self.bimodal.len(), src.bimodal.len());
        self.history = src.history;
        self.history_bits = src.history_bits;
        self.bimodal.share_from(&src.bimodal);
        self.gshare.share_from(&src.gshare);
        self.bimodal_touched.copy_from(&src.bimodal_touched);
        self.gshare_touched.copy_from(&src.gshare_touched);
        ForkBytes {
            copied: 0,
            shared: (src.bimodal.len() + src.gshare.len()) as u64,
        }
    }

    /// Un-share counters of both tables, reset.
    pub(crate) fn take_cow_breaks(&mut self) -> u64 {
        self.bimodal.take_cow_breaks() + self.gshare.take_cow_breaks()
    }

    /// Materialises private copies of all shared pages.
    pub(crate) fn unshare_all(&mut self) {
        self.bimodal.unshare_all();
        self.gshare.unshare_all();
    }

    /// Whether no page is shared with any other predictor.
    pub(crate) fn fully_private(&self) -> bool {
        self.bimodal.fully_private() && self.gshare.fully_private()
    }
}

impl Restorable for BranchPredictor {
    fn restore_from(&mut self, snap: &Self, incremental: bool) -> u64 {
        debug_assert_eq!(self.bimodal.len(), snap.bimodal.len());
        self.history = snap.history;
        self.history_bits = snap.history_bits;
        if incremental {
            let mut bytes = 0u64;
            for i in self.bimodal_touched.drain() {
                *self.bimodal.get_mut(i) = *snap.bimodal.get(i);
                bytes += 1;
            }
            for i in self.gshare_touched.drain() {
                *self.gshare.get_mut(i) = *snap.gshare.get(i);
                bytes += 1;
            }
            bytes
        } else {
            self.bimodal.share_from(&snap.bimodal);
            self.gshare.share_from(&snap.gshare);
            self.bimodal_touched.clear_all();
            self.gshare_touched.clear_all();
            (self.bimodal.len() + self.gshare.len()) as u64
        }
    }
}

impl BinCode for BranchPredictor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bimodal.encode_seq(out);
        self.gshare.encode_seq(out);
        self.history.encode(out);
        self.history_bits.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let bimodal = CowTable::<u8>::decode_seq(r, COUNTER_PAGE)?;
        let gshare = CowTable::<u8>::decode_seq(r, COUNTER_PAGE)?;
        if bimodal.is_empty() || !bimodal.len().is_power_of_two() || gshare.len() != bimodal.len() {
            return Err(DecodeError::Invalid("predictor table shape"));
        }
        let n = bimodal.len();
        Ok(BranchPredictor {
            bimodal,
            gshare,
            history: BinCode::decode(r)?,
            history_bits: BinCode::decode(r)?,
            bimodal_touched: TouchedSet::new(n),
            gshare_touched: TouchedSet::new(n),
        })
    }
}

fn bump(counter: u8, taken: bool) -> u8 {
    if taken {
        (counter + 1).min(3)
    } else {
        counter.saturating_sub(1)
    }
}

fn confidence(counter: u8) -> u8 {
    // Distance from the weakly-taken/weakly-not-taken boundary.
    if counter >= 2 {
        counter - 1
    } else {
        2 - counter
    }
}

/// Direct-mapped branch target buffer for indirect jumps, epoch-tagged per
/// entry like the direction predictor's tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btb {
    entries: CowTable<Option<(Rip, Rip)>>,
    touched: TouchedSet,
}

impl Btb {
    /// Creates a BTB with `entries` slots (rounded up to a power of two).
    pub fn new(entries: usize) -> Self {
        let n = entries.next_power_of_two().max(16);
        Btb {
            entries: CowTable::new(n, None, BTB_PAGE),
            touched: TouchedSet::new(n),
        }
    }

    fn index(&self, rip: Rip) -> usize {
        (rip as usize) & (self.entries.len() - 1)
    }

    /// The last observed target of the indirect branch at `rip`, if any.
    pub fn predict(&self, rip: Rip) -> Option<Rip> {
        match *self.entries.get(self.index(rip)) {
            Some((tag, target)) if tag == rip => Some(target),
            _ => None,
        }
    }

    /// Records the resolved target of the indirect branch at `rip`.
    pub fn update(&mut self, rip: Rip, target: Rip) {
        let idx = self.index(rip);
        self.touched.mark(idx);
        *self.entries.get_mut(idx) = Some((rip, target));
    }

    /// Entries where `self` and `other` differ.  Shared pages are skipped.
    pub(crate) fn diff(&self, other: &Self) -> TouchedSet {
        let mut d = TouchedSet::new(self.entries.len());
        self.entries.for_each_diff(&other.entries, |i| d.mark(i));
        d
    }

    /// Whether every tagged entry equals `g`'s copy.
    pub(crate) fn touched_matches(&self, g: &Self) -> bool {
        self.touched
            .iter()
            .all(|i| self.entries.get(i) == g.entries.get(i))
    }

    /// Convergence probe against `g` given the restore-source diff.
    pub(crate) fn converged_with(&self, g: &Self, diff: &TouchedSet) -> bool {
        self.touched.contains_all(diff) && self.touched_matches(g)
    }

    /// Forks from `src` by sharing its page handles and mirroring its tags.
    pub(crate) fn fork_from(&mut self, src: &Self) -> ForkBytes {
        debug_assert_eq!(self.entries.len(), src.entries.len());
        self.entries.share_from(&src.entries);
        self.touched.copy_from(&src.touched);
        let entry_bytes = std::mem::size_of::<Option<(Rip, Rip)>>() as u64;
        ForkBytes {
            copied: 0,
            shared: src.entries.len() as u64 * entry_bytes,
        }
    }

    /// Un-share counter of the entry array, reset.
    pub(crate) fn take_cow_breaks(&mut self) -> u64 {
        self.entries.take_cow_breaks()
    }

    /// Materialises private copies of all shared pages.
    pub(crate) fn unshare_all(&mut self) {
        self.entries.unshare_all();
    }

    /// Whether no page is shared with any other BTB.
    pub(crate) fn fully_private(&self) -> bool {
        self.entries.fully_private()
    }
}

impl Restorable for Btb {
    fn restore_from(&mut self, snap: &Self, incremental: bool) -> u64 {
        debug_assert_eq!(self.entries.len(), snap.entries.len());
        let entry_bytes = std::mem::size_of::<Option<(Rip, Rip)>>() as u64;
        if incremental {
            let mut n = 0u64;
            for i in self.touched.drain() {
                *self.entries.get_mut(i) = *snap.entries.get(i);
                n += entry_bytes;
            }
            n
        } else {
            self.entries.share_from(&snap.entries);
            self.touched.clear_all();
            self.entries.len() as u64 * entry_bytes
        }
    }
}

impl BinCode for Btb {
    fn encode(&self, out: &mut Vec<u8>) {
        self.entries.encode_seq(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let entries = CowTable::<Option<(Rip, Rip)>>::decode_seq(r, BTB_PAGE)?;
        if entries.is_empty() || !entries.len().is_power_of_two() {
            return Err(DecodeError::Invalid("BTB shape"));
        }
        let touched = TouchedSet::new(entries.len());
        Ok(Btb { entries, touched })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_learns_a_biased_branch() {
        let mut p = BranchPredictor::new(64);
        for _ in 0..16 {
            p.update(5, true);
        }
        assert!(p.predict(5));
        for _ in 0..16 {
            p.update(5, false);
        }
        assert!(!p.predict(5));
    }

    #[test]
    fn predictor_learns_loop_pattern_reasonably() {
        let mut p = BranchPredictor::new(256);
        // A loop branch taken 9 times then not taken once, repeatedly; the
        // predictor should be right most of the time.
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..50 {
            for i in 0..10 {
                let taken = i != 9;
                if p.predict(7) == taken {
                    correct += 1;
                }
                total += 1;
                p.update(7, taken);
            }
        }
        assert!(correct * 100 / total > 70, "accuracy {correct}/{total}");
    }

    #[test]
    fn btb_remembers_last_target() {
        let mut btb = Btb::new(32);
        assert_eq!(btb.predict(9), None);
        btb.update(9, 123);
        assert_eq!(btb.predict(9), Some(123));
        btb.update(9, 456);
        assert_eq!(btb.predict(9), Some(456));
        // Aliasing entry with a different tag does not hit.
        btb.update(9 + 32, 7);
        assert_eq!(btb.predict(9), None);
    }

    #[test]
    fn counters_saturate() {
        assert_eq!(bump(3, true), 3);
        assert_eq!(bump(0, false), 0);
        assert_eq!(bump(1, true), 2);
    }
}
