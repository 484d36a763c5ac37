//! Two-phase locking with the `NO_WAIT` policy.
//!
//! "By default, all transactions follow serializable isolation through the
//! NO_WAIT protocol which avoids deadlocks" (§5): a transaction that hits a
//! lock conflict aborts immediately instead of waiting, so no waits-for
//! graph can form. Locks are held until commit/abort (strict 2PL).
//!
//! Lock targets cover the three granularities the paper's transactions
//! need: whole granules (migration takes a granule write lock), rows
//! (user-transaction accesses), and GTable entries (user transactions hold
//! *read* locks on the GTable entry of every granule they touch until
//! commit, which is what serializes them against concurrent migrations —
//! Algorithm 1 line 1 note, §4.2). A user transaction takes the GTable
//! entry once per run of consecutive accesses to one granule, and one row
//! lock per key.
//!
//! Both maps hash with `FxHasher`, a multiply-rotate hash over the
//! fixed-shape id enums used as keys: a SipHash of a `LockTarget` cost
//! more than the rest of an acquisition. The table never iterates either
//! map — it only looks entries up and removes them — so hash order cannot
//! leak into any outcome or count.

use marlin_common::{GranuleId, TableId, TxnError, TxnId};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash, the multiply-rotate hash of `rustc`: one rotate, xor and
/// multiply per integer written. It gives up SipHash's resistance to
/// crafted collisions: the keys are ids the runtime builds from its own
/// transactions and the workload generators' row keys, not input from a
/// network client.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// What is being locked.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LockTarget {
    /// A whole data granule (migration locks these exclusively).
    Granule { table: TableId, granule: GranuleId },
    /// A single row.
    Row { table: TableId, key: u64 },
    /// The GTable entry describing a granule's ownership.
    GTableEntry { granule: GranuleId },
}

/// Lock mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    Shared,
    Exclusive,
}

#[derive(Debug)]
struct LockEntry {
    mode: LockMode,
    /// Nearly every lock has one holder, kept inline; `co_holders` stays
    /// empty, and unallocated, unless a shared lock is shared.
    holder: TxnId,
    co_holders: Vec<TxnId>,
}

impl LockEntry {
    fn held_by(&self, txn: TxnId) -> bool {
        self.holder == txn || self.co_holders.contains(&txn)
    }

    /// Drop `txn` from the holders; true when nobody holds the lock any more.
    fn release(&mut self, txn: TxnId) -> bool {
        if self.holder != txn {
            self.co_holders.retain(|t| *t != txn);
        } else if let Some(next) = self.co_holders.pop() {
            self.holder = next;
        } else {
            return true;
        }
        false
    }
}

#[derive(Debug, Default)]
struct LockTableInner {
    locks: FxMap<LockTarget, LockEntry>,
    /// The transaction that acquired most recently and the targets it
    /// holds: a transaction takes its locks back to back, so it pays for
    /// one lookup in `parked`, not one per acquisition, and the list's
    /// allocation passes from each transaction to the next.
    recent_txn: TxnId,
    recent_held: Vec<LockTarget>,
    /// Targets held by every other transaction (non-empty lists only).
    parked: FxMap<TxnId, Vec<LockTarget>>,
    conflicts: u64,
    acquisitions: u64,
}

impl LockTableInner {
    /// The list of targets `txn` holds, made the recent one.
    fn held_by(&mut self, txn: TxnId) -> &mut Vec<LockTarget> {
        if self.recent_txn != txn {
            if !self.recent_held.is_empty() {
                let held = std::mem::take(&mut self.recent_held);
                self.parked.insert(self.recent_txn, held);
            }
            self.recent_txn = txn;
            if let Some(held) = self.parked.remove(&txn) {
                self.recent_held = held;
            }
        }
        &mut self.recent_held
    }

    /// Take `txn` off `target`'s holders, dropping the entry with its last.
    fn unlock(&mut self, txn: TxnId, target: LockTarget) {
        if let Entry::Occupied(mut o) = self.locks.entry(target) {
            if o.get_mut().release(txn) {
                o.remove();
            }
        }
    }
}

/// A strict-2PL, NO_WAIT lock table for one compute node.
#[derive(Debug, Default)]
pub struct LockTable {
    inner: Mutex<LockTableInner>,
}

impl LockTable {
    /// Create an empty lock table.
    #[must_use]
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Try to acquire `target` in `mode` for `txn`.
    ///
    /// `NO_WAIT`: on conflict the call fails immediately with
    /// [`TxnError::LockConflict`] and the caller must abort the
    /// transaction. Re-acquisition by the same transaction is a no-op;
    /// a sole shared holder may upgrade to exclusive.
    pub fn try_lock(&self, txn: TxnId, target: LockTarget, mode: LockMode) -> Result<(), TxnError> {
        let mut inner = self.inner.lock();
        let decision = match inner.locks.entry(target) {
            Entry::Vacant(v) => {
                v.insert(LockEntry {
                    mode,
                    holder: txn,
                    co_holders: Vec::new(),
                });
                Ok(true)
            }
            Entry::Occupied(mut o) => {
                let entry = o.get_mut();
                if entry.held_by(txn) {
                    if entry.mode == LockMode::Shared && mode == LockMode::Exclusive {
                        if entry.co_holders.is_empty() {
                            entry.mode = LockMode::Exclusive; // upgrade
                            Ok(false)
                        } else {
                            Err(conflict_of(target))
                        }
                    } else {
                        Ok(false) // already held at sufficient strength
                    }
                } else if entry.mode == LockMode::Shared && mode == LockMode::Shared {
                    entry.co_holders.push(txn);
                    Ok(true)
                } else {
                    Err(conflict_of(target))
                }
            }
        };
        match decision {
            Ok(newly_tracked) => {
                inner.acquisitions += 1;
                if newly_tracked {
                    inner.held_by(txn).push(target);
                }
                Ok(())
            }
            Err(e) => {
                inner.conflicts += 1;
                Err(e)
            }
        }
    }

    /// Release every lock held by `txn` (commit or abort).
    pub fn release_all(&self, txn: TxnId) {
        let mut inner = self.inner.lock();
        let mut held = std::mem::take(inner.held_by(txn));
        for target in held.drain(..) {
            inner.unlock(txn, target);
        }
        inner.recent_held = held;
    }

    /// Release one specific lock early (weaker isolation levels release
    /// user-table read locks after the read; the GTable read lock must
    /// still be held to commit — §4.2).
    pub fn release_one(&self, txn: TxnId, target: LockTarget) {
        let mut inner = self.inner.lock();
        inner.held_by(txn).retain(|t| *t != target);
        inner.unlock(txn, target);
    }

    /// Whether `txn` currently holds `target` (at any strength).
    #[must_use]
    pub fn holds(&self, txn: TxnId, target: LockTarget) -> bool {
        self.inner
            .lock()
            .locks
            .get(&target)
            .is_some_and(|e| e.held_by(txn))
    }

    /// Number of currently held lock targets.
    #[must_use]
    pub fn active_locks(&self) -> usize {
        self.inner.lock().locks.len()
    }

    /// Total NO_WAIT conflicts observed (abort-rate accounting).
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.inner.lock().conflicts
    }

    /// Total successful acquisitions.
    #[must_use]
    pub fn acquisitions(&self) -> u64 {
        self.inner.lock().acquisitions
    }
}

fn conflict_of(target: LockTarget) -> TxnError {
    let granule = match target {
        LockTarget::Granule { granule, .. } | LockTarget::GTableEntry { granule } => granule,
        LockTarget::Row { key, .. } => GranuleId(key), // best-effort context
    };
    TxnError::LockConflict { granule }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_common::NodeId;
    use std::collections::HashSet;

    fn txn(n: u32) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    fn row(key: u64) -> LockTarget {
        LockTarget::Row {
            table: TableId(0),
            key,
        }
    }

    fn granule(g: u64) -> LockTarget {
        LockTarget::Granule {
            table: TableId(0),
            granule: GranuleId(g),
        }
    }

    #[test]
    fn shared_locks_coexist() {
        let lt = LockTable::new();
        lt.try_lock(txn(1), row(5), LockMode::Shared).unwrap();
        lt.try_lock(txn(2), row(5), LockMode::Shared).unwrap();
        assert!(lt.holds(txn(1), row(5)));
        assert!(lt.holds(txn(2), row(5)));
    }

    #[test]
    fn exclusive_conflicts_abort_immediately() {
        let lt = LockTable::new();
        lt.try_lock(txn(1), row(5), LockMode::Exclusive).unwrap();
        let err = lt.try_lock(txn(2), row(5), LockMode::Shared).unwrap_err();
        assert!(matches!(err, TxnError::LockConflict { .. }));
        let err = lt
            .try_lock(txn(2), row(5), LockMode::Exclusive)
            .unwrap_err();
        assert!(matches!(err, TxnError::LockConflict { .. }));
        assert_eq!(lt.conflicts(), 2);
    }

    #[test]
    fn shared_blocks_exclusive_from_other_txn() {
        let lt = LockTable::new();
        lt.try_lock(txn(1), row(5), LockMode::Shared).unwrap();
        assert!(lt.try_lock(txn(2), row(5), LockMode::Exclusive).is_err());
    }

    #[test]
    fn reentrant_acquisition_is_noop() {
        let lt = LockTable::new();
        lt.try_lock(txn(1), row(5), LockMode::Exclusive).unwrap();
        lt.try_lock(txn(1), row(5), LockMode::Exclusive).unwrap();
        lt.try_lock(txn(1), row(5), LockMode::Shared).unwrap(); // weaker is fine
        lt.release_all(txn(1));
        assert_eq!(lt.active_locks(), 0);
    }

    #[test]
    fn sole_shared_holder_upgrades() {
        let lt = LockTable::new();
        lt.try_lock(txn(1), row(5), LockMode::Shared).unwrap();
        lt.try_lock(txn(1), row(5), LockMode::Exclusive).unwrap();
        // Now exclusive: others conflict.
        assert!(lt.try_lock(txn(2), row(5), LockMode::Shared).is_err());
    }

    #[test]
    fn upgrade_with_other_sharers_conflicts() {
        let lt = LockTable::new();
        lt.try_lock(txn(1), row(5), LockMode::Shared).unwrap();
        lt.try_lock(txn(2), row(5), LockMode::Shared).unwrap();
        assert!(lt.try_lock(txn(1), row(5), LockMode::Exclusive).is_err());
        // txn(1) still holds its shared lock after the failed upgrade.
        assert!(lt.holds(txn(1), row(5)));
    }

    #[test]
    fn release_all_frees_everything() {
        let lt = LockTable::new();
        lt.try_lock(txn(1), row(1), LockMode::Shared).unwrap();
        lt.try_lock(txn(1), row(2), LockMode::Exclusive).unwrap();
        lt.try_lock(txn(1), granule(0), LockMode::Exclusive)
            .unwrap();
        lt.release_all(txn(1));
        assert_eq!(lt.active_locks(), 0);
        lt.try_lock(txn(2), row(2), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn release_one_keeps_other_locks() {
        let lt = LockTable::new();
        let gt = LockTarget::GTableEntry {
            granule: GranuleId(3),
        };
        lt.try_lock(txn(1), row(1), LockMode::Shared).unwrap();
        lt.try_lock(txn(1), gt, LockMode::Shared).unwrap();
        // Read Committed releases the user-table read lock early...
        lt.release_one(txn(1), row(1));
        assert!(!lt.holds(txn(1), row(1)));
        // ...but the GTable read lock is held to commit (§4.2).
        assert!(lt.holds(txn(1), gt));
        lt.release_all(txn(1));
        assert_eq!(lt.active_locks(), 0);
    }

    #[test]
    fn shared_release_leaves_other_holders() {
        let lt = LockTable::new();
        lt.try_lock(txn(1), row(7), LockMode::Shared).unwrap();
        lt.try_lock(txn(2), row(7), LockMode::Shared).unwrap();
        lt.release_all(txn(1));
        assert!(lt.holds(txn(2), row(7)));
        assert!(lt.try_lock(txn(3), row(7), LockMode::Exclusive).is_err());
    }

    #[test]
    fn migration_granule_lock_vs_user_txn() {
        // The Figure 6 interleaving: a user transaction holding a write
        // lock on G3 blocks (here: aborts) the MigrationTxn, and vice
        // versa once migration holds the granule lock.
        let lt = LockTable::new();
        let user = txn(1);
        let migration = txn(2);
        lt.try_lock(user, granule(3), LockMode::Exclusive).unwrap();
        assert!(lt
            .try_lock(migration, granule(3), LockMode::Exclusive)
            .is_err());
        lt.release_all(user);
        lt.try_lock(migration, granule(3), LockMode::Exclusive)
            .unwrap();
        assert!(lt
            .try_lock(txn(3), granule(3), LockMode::Exclusive)
            .is_err());
    }

    #[test]
    fn co_holders_spill_and_fall_back_inline() {
        let lt = LockTable::new();
        let spilled = |lt: &LockTable| !lt.inner.lock().locks[&row(5)].co_holders.is_empty();
        lt.try_lock(txn(1), row(5), LockMode::Shared).unwrap();
        assert!(!spilled(&lt));
        lt.try_lock(txn(2), row(5), LockMode::Shared).unwrap();
        lt.try_lock(txn(3), row(5), LockMode::Shared).unwrap();
        assert!(spilled(&lt));
        // Two holders left: upgrade refused, for either of them.
        lt.release_all(txn(2));
        assert!(spilled(&lt));
        assert!(lt.try_lock(txn(1), row(5), LockMode::Exclusive).is_err());
        // One left: inline again, and the sole holder may upgrade.
        lt.release_one(txn(1), row(5));
        assert!(!spilled(&lt));
        assert!(!lt.holds(txn(1), row(5)) && lt.holds(txn(3), row(5)));
        lt.try_lock(txn(3), row(5), LockMode::Exclusive).unwrap();
        assert!(lt.try_lock(txn(1), row(5), LockMode::Shared).is_err());
        lt.release_all(txn(3));
        assert_eq!(lt.active_locks(), 0);
        assert_eq!((lt.acquisitions(), lt.conflicts()), (4, 2));
    }

    #[test]
    fn release_one_then_release_all_then_reacquire() {
        let lt = LockTable::new();
        lt.try_lock(txn(1), row(1), LockMode::Exclusive).unwrap();
        lt.try_lock(txn(1), row(2), LockMode::Shared).unwrap();
        // Another transaction in between parks txn 1's list and back.
        lt.try_lock(txn(2), row(3), LockMode::Exclusive).unwrap();
        lt.release_one(txn(1), row(1));
        lt.release_one(txn(1), row(1)); // idempotent
        lt.try_lock(txn(2), row(1), LockMode::Exclusive).unwrap();
        lt.release_all(txn(1));
        assert!(!lt.holds(txn(1), row(2)));
        assert!(lt.holds(txn(2), row(1)) && lt.holds(txn(2), row(3)));
        lt.release_all(txn(1)); // nothing left: no-op
        lt.release_all(txn(2));
        assert_eq!(lt.active_locks(), 0);
        // The same ids start over with nothing held.
        lt.try_lock(txn(1), row(1), LockMode::Exclusive).unwrap();
        lt.try_lock(txn(2), row(2), LockMode::Exclusive).unwrap();
        assert!(lt.try_lock(txn(2), row(1), LockMode::Shared).is_err());
        assert_eq!(lt.active_locks(), 2);
    }

    /// The table as it was before holders went inline — a `HashSet` of
    /// holders per entry, one `held_by_txn` lookup per acquisition — kept
    /// as the oracle.
    #[derive(Default)]
    struct Reference {
        locks: HashMap<LockTarget, (LockMode, HashSet<TxnId>)>,
        held_by_txn: HashMap<TxnId, Vec<LockTarget>>,
        conflicts: u64,
        acquisitions: u64,
    }

    impl Reference {
        fn try_lock(&mut self, txn: TxnId, target: LockTarget, mode: LockMode) -> bool {
            let newly_tracked = match self.locks.get_mut(&target) {
                None => {
                    self.locks.insert(target, (mode, HashSet::from([txn])));
                    Some(true)
                }
                Some((held, holders)) if holders.contains(&txn) => {
                    if *held == LockMode::Shared && mode == LockMode::Exclusive {
                        (holders.len() == 1).then(|| {
                            *held = LockMode::Exclusive;
                            false
                        })
                    } else {
                        Some(false)
                    }
                }
                Some((LockMode::Shared, holders)) if mode == LockMode::Shared => {
                    holders.insert(txn);
                    Some(true)
                }
                Some(_) => None,
            };
            match newly_tracked {
                Some(newly_tracked) => {
                    self.acquisitions += 1;
                    if newly_tracked {
                        self.held_by_txn.entry(txn).or_default().push(target);
                    }
                }
                None => self.conflicts += 1,
            }
            newly_tracked.is_some()
        }

        fn unlock(&mut self, txn: TxnId, target: LockTarget) {
            if let Some((_, holders)) = self.locks.get_mut(&target) {
                holders.remove(&txn);
                if holders.is_empty() {
                    self.locks.remove(&target);
                }
            }
        }

        fn release_all(&mut self, txn: TxnId) {
            for target in self.held_by_txn.remove(&txn).unwrap_or_default() {
                self.unlock(txn, target);
            }
        }

        fn release_one(&mut self, txn: TxnId, target: LockTarget) {
            if let Some(list) = self.held_by_txn.get_mut(&txn) {
                list.retain(|t| *t != target);
            }
            self.unlock(txn, target);
        }
    }

    proptest::proptest! {
        /// Any script of acquisitions and releases: the same outcome per
        /// call, the same holders and the same counters as the old table.
        #[test]
        fn matches_the_hashset_table_on_any_script(
            script in proptest::collection::vec((0u8..8, 0u32..4, 0u64..5, proptest::prelude::any::<bool>()), 0..200),
        ) {
            let lt = LockTable::new();
            let mut reference = Reference::default();
            for (op, t, k, exclusive) in script {
                let (t, target) = (txn(t), if k == 4 { granule(0) } else { row(k) });
                match op {
                    0 => {
                        lt.release_all(t);
                        reference.release_all(t);
                    }
                    1 => {
                        lt.release_one(t, target);
                        reference.release_one(t, target);
                    }
                    _ => {
                        let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                        proptest::prop_assert_eq!(
                            lt.try_lock(t, target, mode).is_ok(),
                            reference.try_lock(t, target, mode)
                        );
                    }
                }
                proptest::prop_assert_eq!(lt.acquisitions(), reference.acquisitions);
                proptest::prop_assert_eq!(lt.conflicts(), reference.conflicts);
                proptest::prop_assert_eq!(lt.active_locks(), reference.locks.len());
                for t in (0..4).map(txn) {
                    for target in (0..4).map(row).chain([granule(0)]) {
                        let held = reference.locks.get(&target).is_some_and(|(_, h)| h.contains(&t));
                        proptest::prop_assert_eq!(lt.holds(t, target), held);
                    }
                }
            }
            for t in (0..4).map(txn) {
                lt.release_all(t);
            }
            proptest::prop_assert_eq!(lt.active_locks(), 0);
        }
    }

    /// NO_WAIT means no deadlock: crossing lock orders can abort but never
    /// hang (exercised with real threads).
    #[test]
    fn no_wait_never_blocks_across_threads() {
        use std::sync::Arc;
        let lt = Arc::new(LockTable::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let lt = Arc::clone(&lt);
            handles.push(std::thread::spawn(move || {
                let me = txn(t);
                let mut committed = 0;
                for round in 0..200u64 {
                    // Opposite acquisition orders induce would-be deadlocks.
                    let (a, b) = if t % 2 == 0 {
                        (row(1), row(2))
                    } else {
                        (row(2), row(1))
                    };
                    let ok = lt.try_lock(me, a, LockMode::Exclusive).is_ok()
                        && lt.try_lock(me, b, LockMode::Exclusive).is_ok();
                    if ok {
                        committed += 1;
                    }
                    lt.release_all(me);
                    if round % 17 == 0 {
                        std::thread::yield_now();
                    }
                }
                committed
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "at least some transactions must make progress");
        assert_eq!(lt.active_locks(), 0);
    }
}
