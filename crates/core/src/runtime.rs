//! The synchronous in-process cluster runtime.
//!
//! [`LocalCluster`] is the functional reference implementation of the full
//! system: it wires per-node coordination state ([`MarlinNode`]), the
//! engine's lock table and row store, and the disaggregated
//! [`StorageService`], and it fulfills protocol-driver [`Effect`]s
//! immediately (RPCs become function calls, appends hit the in-memory
//! storage service). Unit tests, integration tests, and the examples run
//! against it; the discrete-event simulator in `marlin-cluster` drives the
//! *same* migration and membership drivers with virtual-time delays.
//!
//! What the runtime implements end-to-end:
//!
//! - bootstrap (SysLog membership + GLog granule installs + row loads);
//! - user transactions with the Algorithm 1 ownership guard, 2PL `NO_WAIT`
//!   locks, and one-phase MarlinCommit on the node's own GLog (which
//!   doubles as its data WAL — the Figure 7 detection mechanism);
//! - all five reconfiguration transactions with retry-on-conflict loops;
//! - live migration with Squall-style row warm-up (src → dst shipping);
//! - failover: kill/revive, recovery migration committing to the dead
//!   node's GLog, row recovery from the shared page store, and the
//!   Cornus-style termination protocol for in-doubt transactions.

use crate::drivers::{
    AddNodeDriver, CommitDriver, CommitOutcome, DeleteNodeDriver, Effect, Input, MigrationDriver,
    Participant, RecoveryMigrDriver, ScanGTableDriver, Updates,
};
use crate::gtable::{GTablePartition, GranuleMeta};
use crate::invariants::Violation;
use crate::node::MarlinNode;
use crate::records::GRecord;
use bytes::Bytes;
use marlin_common::{
    ClusterConfig, CoordError, GranuleId, GranuleLayout, KeyRange, LogId, Lsn, NodeId,
    StorageError, TableId, TxnError, TxnId,
};
use marlin_engine::recovery::recover_granule_from_pages;
use marlin_engine::{
    DataStore, Granule, LockMode, LockTable, LockTarget, RowWrite, TxnUpdateRecord,
};
use marlin_storage::StorageService;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

/// How many times reconfiguration wrappers retry after a commit conflict
/// (each retry refreshes the stale cache first).
const MAX_RETRIES: usize = 16;

/// Per-node runtime state.
pub struct NodeRuntime {
    /// Coordination state (system-table caches, tracker).
    pub marlin: MarlinNode,
    /// 2PL NO_WAIT lock table.
    pub locks: LockTable,
    /// Materialized rows of owned granules.
    pub data: DataStore,
    /// Whether the node responds to RPCs (false = crashed/slow).
    pub alive: bool,
}

impl NodeRuntime {
    fn new(id: NodeId) -> Self {
        NodeRuntime {
            marlin: MarlinNode::new(id),
            locks: LockTable::new(),
            data: DataStore::new(),
            alive: true,
        }
    }
}

/// The granule a user transaction's current run of keys falls in: its
/// ownership guard passed and its GTable-entry lock is held.
struct GranuleRun<'a> {
    granule: GranuleId,
    range: KeyRange,
    /// The granule's rows, looked up at the run's first read.
    rows: Option<&'a Granule>,
}

/// A GLog folded into the GTable partition it materializes, and the LSN
/// it has been read to: a data record moves the cursor, not the partition.
#[derive(Default)]
struct FoldedGLog {
    partition: GTablePartition,
    read_to: Lsn,
}

/// The synchronous cluster: storage + nodes + table layouts.
pub struct LocalCluster {
    storage: StorageService,
    nodes: BTreeMap<NodeId, NodeRuntime>,
    layouts: BTreeMap<TableId, GranuleLayout>,
    page_bytes: u64,
    /// Each node's GLog as far as [`LocalCluster::check_invariants`] has
    /// folded it. The check takes `&self`, hence the `RefCell`.
    folded_glogs: RefCell<BTreeMap<NodeId, FoldedGLog>>,
}

impl LocalCluster {
    /// An empty cluster over fresh storage.
    #[must_use]
    pub fn new(layouts: Vec<GranuleLayout>, page_bytes: u64) -> Self {
        let mut map = BTreeMap::new();
        for l in layouts {
            map.insert(l.table, l);
        }
        LocalCluster {
            storage: StorageService::new(),
            nodes: BTreeMap::new(),
            layouts: map,
            page_bytes,
            folded_glogs: RefCell::default(),
        }
    }

    /// Bootstrap a cluster: add the initial nodes through real
    /// `AddNodeTxn`s and install the initial granule assignment through
    /// GLog `Install` records (one batched append per node).
    #[must_use]
    pub fn bootstrap(cfg: &ClusterConfig) -> Self {
        let mut cluster = LocalCluster::new(cfg.tables.clone(), cfg.page_bytes);
        for &node in &cfg.initial_nodes {
            cluster
                .add_node(node, format!("10.0.0.{}", node.0))
                .expect("bootstrap add_node cannot conflict");
        }
        // Group the initial assignment per owner and install.
        let mut per_node: BTreeMap<NodeId, Vec<(TableId, GranuleId)>> = BTreeMap::new();
        for (table, granule, owner) in cfg.initial_assignment() {
            per_node.entry(owner).or_default().push((table, granule));
        }
        for (owner, granules) in per_node {
            cluster.install_granules(owner, &granules);
        }
        cluster
    }

    /// Install granules on a node at bootstrap: append `Install` records
    /// to the owner's GLog (one batched append) and create empty row sets.
    pub fn install_granules(&mut self, owner: NodeId, granules: &[(TableId, GranuleId)]) {
        let mut payloads = Vec::with_capacity(granules.len());
        for (table, granule) in granules {
            let layout = &self.layouts[table];
            payloads.push(
                GRecord::Install {
                    table: *table,
                    granule: *granule,
                    range: layout.range_of(*granule),
                    owner,
                }
                .encode(),
            );
        }
        let log = LogId::GLog(owner);
        let out = self
            .storage
            .append(log, payloads)
            .expect("owner GLog exists");
        let node = self.nodes.get_mut(&owner).expect("owner admitted");
        let suffix = self
            .storage
            .log(log)
            .expect("glog")
            .read_after(node.marlin.gtable().applied_lsn());
        node.marlin
            .refresh_own_gtable(suffix.into_iter().map(|r| (r.lsn, r.payload)));
        node.marlin.tracker.observe(log, out.new_lsn);
        for (table, granule) in granules {
            let layout = &self.layouts[table];
            node.data
                .install(*table, *granule, Granule::new(layout.range_of(*granule)));
        }
    }

    /// The storage service (shared handle).
    #[must_use]
    pub fn storage(&self) -> &StorageService {
        &self.storage
    }

    /// A table's layout.
    #[must_use]
    pub fn layout(&self, table: TableId) -> &GranuleLayout {
        &self.layouts[&table]
    }

    /// Borrow a node's runtime.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &NodeRuntime {
        &self.nodes[&id]
    }

    /// Mutably borrow a node's runtime.
    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeRuntime {
        self.nodes
            .get_mut(&id)
            .expect("NodeId not in the runtime map: ids come from membership and runtimes persist for ex-members, so every id ever admitted resolves")
    }

    /// Node IDs with runtimes (members and ex-members).
    #[must_use]
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Make a node unresponsive (temporary slowdown or crash).
    pub fn kill(&mut self, id: NodeId) {
        self.node_mut(id).alive = false;
    }

    /// Bring a node back. Its caches are whatever they were — the
    /// stale-cache race of Figure 7 is exactly what MarlinCommit handles.
    pub fn revive(&mut self, id: NodeId) {
        self.node_mut(id).alive = true;
    }

    // -- membership ---------------------------------------------------------

    /// `AddNodeTxn`: provision logs for `id`, then commit the membership
    /// record (retrying through cache refreshes on CAS conflicts).
    pub fn add_node(&mut self, id: NodeId, addr: String) -> Result<(), CoordError> {
        self.storage.provision_node(id);
        self.nodes.entry(id).or_insert_with(|| NodeRuntime::new(id));
        for _ in 0..MAX_RETRIES {
            self.refresh_mtable(id);
            let txn = self.node_mut(id).marlin.next_txn();
            let (mut driver, effects) = {
                let node = &self.nodes[&id];
                AddNodeDriver::new(
                    txn,
                    id,
                    addr.clone(),
                    node.marlin.mtable(),
                    &node.marlin.tracker,
                )
            };
            self.pump(id, effects, |input| driver.on_input(input));
            match driver.result() {
                Some(Ok(())) => return Ok(()),
                Some(Err(CoordError::Aborted(_))) => continue,
                Some(Err(e)) => return Err(e.clone()),
                None => unreachable!("synchronous pump always completes"),
            }
        }
        Err(CoordError::ServiceError(
            "add_node retries exhausted".into(),
        ))
    }

    /// `DeleteNodeTxn` run on `coordinator` to remove `victim`.
    pub fn delete_node(&mut self, coordinator: NodeId, victim: NodeId) -> Result<(), CoordError> {
        for _ in 0..MAX_RETRIES {
            self.refresh_mtable(coordinator);
            let txn = self.node_mut(coordinator).marlin.next_txn();
            let (mut driver, effects) = {
                let node = &self.nodes[&coordinator];
                DeleteNodeDriver::new(
                    txn,
                    coordinator,
                    victim,
                    node.marlin.mtable(),
                    &node.marlin.tracker,
                )
            };
            self.pump(coordinator, effects, |input| driver.on_input(input));
            match driver.result() {
                Some(Ok(())) => return Ok(()),
                Some(Err(CoordError::Aborted(_))) => continue,
                Some(Err(e)) => return Err(e.clone()),
                None => unreachable!("synchronous pump always completes"),
            }
        }
        Err(CoordError::ServiceError(
            "delete_node retries exhausted".into(),
        ))
    }

    // -- migration ----------------------------------------------------------

    /// `MigrationTxn`: migrate `granules` of `table` from `src` to `dst`,
    /// then warm up the destination by shipping rows (Squall-style scan).
    pub fn migrate(
        &mut self,
        src: NodeId,
        dst: NodeId,
        table: TableId,
        granules: Vec<GranuleId>,
    ) -> Result<(), CoordError> {
        let txn = self.node_mut(dst).marlin.next_txn();
        let (mut driver, effects) = MigrationDriver::new(txn, src, dst, granules.clone());
        let mut queue: VecDeque<Effect> = effects.into();
        while let Some(effect) = queue.pop_front() {
            if let Some(input) = self.execute_effect(dst, txn, &effect) {
                let tracker = self.nodes[&dst].marlin.tracker.clone();
                queue.extend(driver.on_input(input, &tracker));
            }
        }
        match driver.result() {
            Some(Ok(())) => {
                // Warm-up: ship the rows from the (live) source.
                for granule in &granules {
                    let moved = self
                        .nodes
                        .get_mut(&src)
                        .and_then(|n| n.data.remove(table, *granule));
                    if let Some(g) = moved {
                        self.node_mut(dst).data.install(table, *granule, g);
                    }
                }
                Ok(())
            }
            Some(Err(e)) => Err(e.clone()),
            None => unreachable!("synchronous pump always completes"),
        }
    }

    /// `RecoveryMigrTxn`: take over `granules` from unresponsive `src`,
    /// committing to both GLogs directly, then recover the rows from the
    /// shared page store (the source cannot serve a warm-up scan).
    pub fn recovery_migrate(
        &mut self,
        dst: NodeId,
        src: NodeId,
        granules: Vec<GranuleId>,
    ) -> Result<(), CoordError> {
        // Refresh the destination's copy of the source partition from
        // storage (the source is unresponsive; the log is the truth).
        self.refresh_foreign(dst, src);
        let txn = self.node_mut(dst).marlin.next_txn();
        let (mut driver, effects) = {
            let node = &self.nodes[&dst];
            let partition = node
                .marlin
                .foreign_partition(src)
                .cloned()
                .unwrap_or_default();
            RecoveryMigrDriver::new(
                txn,
                src,
                dst,
                granules.clone(),
                &partition,
                &node.marlin.tracker,
            )
        };
        self.pump(dst, effects, |input| driver.on_input(input));
        match driver.result() {
            Some(Ok(())) => {
                self.recover_rows(dst, src, &granules);
                Ok(())
            }
            Some(Err(e)) => Err(e.clone()),
            None => unreachable!("synchronous pump always completes"),
        }
    }

    fn recover_rows(&mut self, dst: NodeId, src: NodeId, granules: &[GranuleId]) {
        // Drive replay on every log so GetPage@LSN serves the newest
        // versions. A granule's pages may carry deltas from *previous*
        // owners' logs (ownership moved over its lifetime); the paper's
        // replay service runs continuously, so catching all logs up is the
        // synchronous-runtime equivalent.
        self.storage.replay_all();
        let src_log = LogId::GLog(src);
        let store = self.storage.page_store();
        let as_of = store.replayed_lsn(src_log);
        let node = self.nodes.get_mut(&dst).expect("dst admitted");
        for granule in granules {
            let Some(meta) = node.marlin.gtable().get(*granule).copied() else {
                continue;
            };
            let layout = &self.layouts[&meta.table];
            let recovered = recover_granule_from_pages(
                &store,
                meta.table,
                *granule,
                meta.range,
                layout.pages_per_granule(self.page_bytes),
                src_log,
                as_of,
            )
            .unwrap_or_else(|_| Granule::new(meta.range));
            node.data.install(meta.table, *granule, recovered);
        }
    }

    // -- scans & user transactions ------------------------------------------

    /// `ScanGTableTxn` on `node`: the merged cluster-wide ownership map.
    pub fn scan_gtable(
        &mut self,
        node: NodeId,
    ) -> Result<Vec<(GranuleId, GranuleMeta)>, CoordError> {
        for _ in 0..MAX_RETRIES {
            self.refresh_mtable(node);
            let txn = self.node_mut(node).marlin.next_txn();
            let (mut driver, effects) = {
                let rt = &self.nodes[&node];
                ScanGTableDriver::new(
                    txn,
                    node,
                    rt.marlin.mtable(),
                    rt.marlin.gtable().scan(),
                    &rt.marlin.tracker,
                )
            };
            self.pump(node, effects, |input| driver.on_input(input));
            match driver.result() {
                Some(Ok(())) => return driver.into_entries(),
                Some(Err(CoordError::Aborted(TxnError::CommitConflict { .. }))) => continue,
                Some(Err(e)) => return Err(e.clone()),
                None => unreachable!("synchronous pump always completes"),
            }
        }
        Err(CoordError::ServiceError("scan retries exhausted".into()))
    }

    /// A single-site user transaction on `node`: read `reads`, write
    /// `writes`, commit via one-phase MarlinCommit on the node's own GLog.
    ///
    /// Implements Algorithm 1's `UserTxnRequest` guard: every accessed
    /// granule must be owned by `node`, with a shared GTable-entry lock
    /// held to commit; rows are locked via 2PL NO_WAIT.
    ///
    /// Reads run before writes, each in the order given. The guard and the
    /// GTable-entry lock run once per run of consecutive keys in one
    /// granule: inside one call nothing can move ownership, and the lock
    /// is already held, so repeating them for the run's later keys could
    /// change no outcome.
    pub fn user_txn(
        &mut self,
        node: NodeId,
        table: TableId,
        reads: &[u64],
        writes: &[(u64, Bytes)],
    ) -> Result<Vec<Option<Bytes>>, TxnError> {
        if !self.nodes.get(&node).is_some_and(|n| n.alive) {
            return Err(TxnError::NodeUnavailable(node));
        }
        self.ensure_gtable_fresh(node);
        let txn = self.node_mut(node).marlin.next_txn();
        let layout = self.layout(table);
        let pages_per_granule = u64::from(layout.pages_per_granule(self.page_bytes));

        // Execution phase: guard + locks + buffered accesses.
        let mut result_reads = Vec::with_capacity(reads.len());
        let mut row_writes = Vec::with_capacity(writes.len());
        {
            let NodeRuntime {
                marlin,
                locks,
                data,
                ..
            } = &self.nodes[&node];
            let ops = reads
                .iter()
                .map(|&key| (key, None))
                .chain(writes.iter().map(|(key, value)| (*key, Some(&value[..]))));
            let mut current: Option<GranuleRun<'_>> = None;
            let outcome: Result<(), TxnError> = (|| {
                for (key, value) in ops {
                    let run = match &mut current {
                        Some(run) if run.range.contains(key) => run,
                        slot => {
                            let granule = layout.granule_of(key).expect("key in keyspace");
                            marlin.check_user_access(granule)?;
                            locks.try_lock(
                                txn,
                                LockTarget::GTableEntry { granule },
                                LockMode::Shared,
                            )?;
                            slot.insert(GranuleRun {
                                granule,
                                range: layout.range_of(granule),
                                rows: None,
                            })
                        }
                    };
                    let target = LockTarget::Row { table, key };
                    match value {
                        None => {
                            locks.try_lock(txn, target, LockMode::Shared)?;
                            let rows = match run.rows {
                                Some(rows) => rows,
                                None => {
                                    let held = data.granule(table, run.granule).ok_or(
                                        TxnError::WrongNode {
                                            granule: run.granule,
                                            owner: NodeId(u32::MAX),
                                        },
                                    )?;
                                    *run.rows.insert(held)
                                }
                            };
                            result_reads.push(rows.rows.get(&key).cloned());
                        }
                        Some(value) => {
                            locks.try_lock(txn, target, LockMode::Exclusive)?;
                            row_writes.push(RowWrite {
                                table,
                                granule: run.granule,
                                key,
                                page_index: ((key - run.range.lo) % pages_per_granule) as u32,
                                value,
                            });
                        }
                    }
                }
                Ok(())
            })();
            if let Err(e) = outcome {
                locks.release_all(txn);
                return Err(e);
            }
        }

        // Commit phase: one-phase MarlinCommit on the node's own GLog
        // (which is also its data WAL — Figure 7's detection mechanism).
        if row_writes.is_empty() {
            self.node_mut(node).locks.release_all(txn);
            return Ok(result_reads);
        }
        let record = TxnUpdateRecord {
            txn,
            writes: row_writes,
        };
        let encoded = record.encode_page_updates();
        let (mut driver, effects) = {
            let rt = &self.nodes[&node];
            CommitDriver::new(
                txn,
                node,
                vec![(
                    Participant::Node(node),
                    Updates::Raw(encoded.payload().clone()),
                )],
                &rt.marlin.tracker,
            )
        };
        self.pump(node, effects, |input| driver.on_input(input));
        let outcome = driver
            .outcome()
            .cloned()
            .expect("synchronous pump completes");
        let rt = self.node_mut(node);
        match outcome {
            CommitOutcome::Committed => {
                // One row-store lookup per run of writes to one granule.
                // Each row keeps its value's window into the record just
                // appended: the log holds the bytes, the row store only
                // points at them.
                let mut writes = record.writes.iter().zip(encoded.values()).peekable();
                while let Some((first, value)) = writes.next() {
                    let id = (first.table, first.granule);
                    let g = rt
                        .data
                        .granule_mut(first.table, first.granule)
                        .expect("owned granule");
                    debug_assert!(g.range.contains(first.key));
                    g.rows.insert(first.key, value);
                    while let Some((w, value)) = writes.next_if(|(w, _)| (w.table, w.granule) == id)
                    {
                        debug_assert!(g.range.contains(w.key));
                        g.rows.insert(w.key, value);
                    }
                }
                rt.locks.release_all(txn);
                Ok(result_reads)
            }
            CommitOutcome::Aborted { conflict } => {
                rt.locks.release_all(txn);
                // The CAS failure invalidated the own-partition cache (the
                // driver emitted ClearMetaCache). Refresh and drop rows of
                // granules that moved away (Figure 7 step 3).
                self.refresh_and_evict(node, &[]);
                // `execute_effect` observed the LSN the failed CAS
                // returned into the tracker.
                let log = conflict.unwrap_or(LogId::GLog(node));
                Err(TxnError::CommitConflict {
                    log,
                    current: self.nodes[&node].marlin.tracker.get(log),
                })
            }
        }
    }

    // -- termination protocol -------------------------------------------------

    /// Cornus-style resolution of in-doubt transactions in a dead node's
    /// GLog (§4.3.2): for each prepared-but-undecided transaction, inspect
    /// every participant log; replicate an existing decision, commit if
    /// all participants hold YES votes, otherwise force an abort decision
    /// (which also blocks any in-flight coordinator via the LSN bump).
    /// Returns the transactions resolved.
    pub fn resolve_in_doubt(&mut self, resolver: NodeId, dead: NodeId) -> Vec<TxnId> {
        self.refresh_foreign(resolver, dead);
        let partition = self.nodes[&resolver]
            .marlin
            .foreign_partition(dead)
            .cloned()
            .unwrap_or_default();
        let mut resolved = Vec::new();
        for txn in partition.in_doubt() {
            // Find the Prepared record to learn the participant set.
            let dead_log = self.storage.log(LogId::GLog(dead)).expect("dead glog");
            let mut participants = Vec::new();
            for rec in dead_log.read_after(Lsn::ZERO) {
                if let Some(GRecord::Prepared {
                    txn: t,
                    participants: p,
                    ..
                }) = GRecord::decode(&rec.payload)
                {
                    if t == txn {
                        participants = p;
                        break;
                    }
                }
            }
            if participants.is_empty() {
                continue;
            }
            // Inspect all participant logs.
            let mut existing_decision = None;
            let mut all_prepared = true;
            for &log in &participants {
                let Ok(l) = self.storage.log(log) else {
                    all_prepared = false;
                    continue;
                };
                let mut saw_prepared = false;
                for rec in l.read_after(Lsn::ZERO) {
                    match GRecord::decode(&rec.payload) {
                        Some(GRecord::Prepared { txn: t, .. }) if t == txn => saw_prepared = true,
                        Some(GRecord::Decision { txn: t, commit }) if t == txn => {
                            existing_decision.get_or_insert(commit);
                        }
                        _ => {}
                    }
                }
                all_prepared &= saw_prepared;
            }
            let commit = existing_decision.unwrap_or(all_prepared);
            let decision = GRecord::Decision { txn, commit }.encode();
            for &log in &participants {
                if self.storage.has_log(log) {
                    let out = self
                        .storage
                        .append(log, vec![decision.clone()])
                        .expect("participant log exists");
                    self.after_local_append(resolver, log, out.new_lsn);
                }
            }
            resolved.push(txn);
        }
        resolved
    }

    // -- invariant checking ---------------------------------------------------

    /// Materialize every node's partition from the **storage logs** (the
    /// ground truth) and check Exclusive Granule Ownership and range
    /// agreement over the full granule universe, returning every
    /// violation as a value (`Ok(())` means the invariants hold).
    ///
    /// Violations must surface as data — which invariant, which granule,
    /// which nodes — rather than as a panic, so a fuzzing harness can
    /// record the failing scenario, shrink it, and replay it. The
    /// historical panicking behavior lives on in the thin
    /// [`LocalCluster::assert_invariants`] wrapper that existing call
    /// sites keep using.
    ///
    /// Materializing is a fold over the log, so each call folds only the
    /// records appended since the last one into the partitions it keeps.
    /// The checked nodes are those with a runtime and a GLog; neither is
    /// ever dropped, so the kept partitions are exactly theirs.
    pub fn check_invariants(&self) -> Result<(), Vec<Violation>> {
        let mut folded = self.folded_glogs.borrow_mut();
        for &id in self.nodes.keys() {
            let Ok(log) = self.storage.log(LogId::GLog(id)) else {
                continue;
            };
            let view = folded.entry(id).or_default();
            for r in log.read_after(view.read_to) {
                if let Some(record) = GRecord::decode(&r.payload) {
                    view.partition.apply(r.lsn, &record);
                }
                view.read_to = r.lsn;
            }
        }
        self.check_views(&folded.iter().map(|(n, f)| (*n, &f.partition)).collect())
    }

    /// I0–I4 over the given per-node partitions.
    fn check_views(
        &self,
        views: &BTreeMap<NodeId, &GTablePartition>,
    ) -> Result<(), Vec<Violation>> {
        let universe: Vec<GranuleId> = self
            .layouts
            .values()
            .flat_map(GranuleLayout::granules)
            .collect();
        let mut violations = crate::invariants::check_exclusive_ownership(views, &universe);
        violations.extend(crate::invariants::check_range_agreement(views));
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Panicking wrapper over [`LocalCluster::check_invariants`] for
    /// tests and walkthroughs where a violation should tear the run down
    /// immediately.
    ///
    /// # Panics
    /// If any I0–I4 violation is found.
    pub fn assert_invariants(&self) {
        if let Err(violations) = self.check_invariants() {
            panic!("Exclusive Granule Ownership violated: {violations:?}");
        }
    }

    // -- cache refresh helpers -------------------------------------------------

    /// Refresh a node's MTable cache from the SysLog suffix.
    pub fn refresh_mtable(&mut self, id: NodeId) {
        let log = self.storage.log(LogId::SysLog).expect("syslog");
        let node = self.node_mut(id);
        let suffix = log.read_after(node.marlin.mtable().applied_lsn());
        node.marlin
            .refresh_mtable(suffix.into_iter().map(|r| (r.lsn, r.payload)));
    }

    /// If `id`'s partition cache was evicted (a TryLog failure called
    /// ClearMetaCache), refetch it from the log and drop rows of granules
    /// whose ownership moved away while the node was out of date.
    pub fn ensure_gtable_fresh(&mut self, id: NodeId) {
        if self.nodes[&id].marlin.gtable_valid() {
            return;
        }
        self.refresh_and_evict(id, &[]);
    }

    /// Refresh `id`'s own-partition cache and drop the rows of the granules
    /// it lost (Figure 7 step 3), except those in `shipping`: the granules
    /// of a just-committed `MigrationTxn`, whose rows `migrate()` moves to
    /// the destination next. The partition keeps a forwarding row for each
    /// lost granule, which names the table the rows live under.
    fn refresh_and_evict(&mut self, id: NodeId, shipping: &[GranuleId]) {
        let log = self.storage.log(LogId::GLog(id)).expect("glog");
        let rt = self.node_mut(id);
        let suffix = log.read_after(rt.marlin.gtable().applied_lsn());
        let lost = rt
            .marlin
            .refresh_own_gtable(suffix.into_iter().map(|r| (r.lsn, r.payload)));
        for g in lost.into_iter().filter(|g| !shipping.contains(g)) {
            if let Some(meta) = rt.marlin.gtable().get(g) {
                rt.data.remove(meta.table, g);
            }
        }
    }

    /// Refresh `viewer`'s cached copy of `target`'s partition.
    pub fn refresh_foreign(&mut self, viewer: NodeId, target: NodeId) {
        let Ok(log) = self.storage.log(LogId::GLog(target)) else {
            return;
        };
        let node = self.node_mut(viewer);
        let from = node
            .marlin
            .foreign_partition(target)
            .map_or(Lsn::ZERO, GTablePartition::applied_lsn);
        let suffix = log.read_after(from);
        node.marlin
            .refresh_foreign(target, suffix.into_iter().map(|r| (r.lsn, r.payload)));
    }

    // -- effect execution -------------------------------------------------------

    /// Drive a driver to completion: fulfill each effect, feed the input
    /// back, enqueue follow-up effects.
    fn pump(
        &mut self,
        coordinator: NodeId,
        initial: Vec<Effect>,
        mut on_input: impl FnMut(Input) -> Vec<Effect>,
    ) {
        let mut queue: VecDeque<Effect> = initial.into();
        // The coordinator's txn id only matters for lock bookkeeping on
        // remote effects, which carry their own txn ids.
        let txn = TxnId::new(coordinator, 0);
        while let Some(effect) = queue.pop_front() {
            if let Some(input) = self.execute_effect(coordinator, txn, &effect) {
                queue.extend(on_input(input));
            }
        }
    }

    /// Fulfill one effect. Returns the input to feed back, if any.
    fn execute_effect(
        &mut self,
        coordinator: NodeId,
        _txn: TxnId,
        effect: &Effect,
    ) -> Option<Input> {
        match effect {
            Effect::ConditionalAppend {
                log,
                payload,
                expected,
            } => {
                match self
                    .storage
                    .conditional_append(*log, vec![payload.clone()], *expected)
                {
                    Ok(out) => {
                        self.after_local_append(coordinator, *log, out.new_lsn);
                        Some(Input::AppendOk {
                            log: *log,
                            new_lsn: out.new_lsn,
                        })
                    }
                    Err(StorageError::LsnMismatch { current, .. }) => {
                        self.node_mut(coordinator)
                            .marlin
                            .tracker
                            .observe(*log, current);
                        Some(Input::AppendConflict { log: *log, current })
                    }
                    Err(e) => panic!("storage error during conditional append: {e}"),
                }
            }
            Effect::Append { log, payload } => {
                match self.storage.append(*log, vec![payload.clone()]) {
                    Ok(out) => {
                        self.after_local_append(coordinator, *log, out.new_lsn);
                        Some(Input::AppendOk {
                            log: *log,
                            new_lsn: out.new_lsn,
                        })
                    }
                    Err(e) => panic!("storage error during append: {e}"),
                }
            }
            Effect::ValidateLsn { log, expected } => {
                let current = self.storage.end_lsn(*log).unwrap_or(Lsn::ZERO);
                if current == *expected {
                    Some(Input::ValidateOk { log: *log })
                } else {
                    self.node_mut(coordinator)
                        .marlin
                        .tracker
                        .observe(*log, current);
                    Some(Input::ValidateConflict { log: *log, current })
                }
            }
            Effect::ClearMetaCache { log } => {
                self.node_mut(coordinator).marlin.clear_meta_cache(*log);
                None
            }
            Effect::SendVoteReq { to, txn, payload } => {
                Some(self.remote_vote_req(*to, *txn, payload))
            }
            Effect::SendDecision { to, txn, commit } => {
                self.remote_decision(*to, *txn, *commit);
                None
            }
            Effect::ReadOwnersRemote { at, txn, granules } => {
                Some(self.remote_read_owners(*at, *txn, granules))
            }
            Effect::ReleaseRemote { at, txn } => {
                if let Some(rt) = self.nodes.get_mut(at) {
                    if rt.alive {
                        rt.locks.release_all(*txn);
                    }
                }
                None
            }
            Effect::SendScanReq { to, txn: _ } => {
                let rt = self.nodes.get(to)?;
                if !rt.alive {
                    return Some(Input::Timeout { from: *to });
                }
                Some(Input::ScanResp {
                    from: *to,
                    entries: rt.marlin.gtable().scan(),
                })
            }
        }
    }

    /// Bookkeeping after the coordinator successfully appended to `log`:
    /// observe the LSN and bring the matching local view up to date.
    fn after_local_append(&mut self, coordinator: NodeId, log: LogId, new_lsn: Lsn) {
        {
            let node = self.node_mut(coordinator);
            node.marlin.tracker.observe(log, new_lsn);
        }
        match log {
            LogId::SysLog => {
                self.refresh_mtable(coordinator);
            }
            LogId::GLog(owner) if owner == coordinator => {
                self.refresh_and_evict(coordinator, &[]);
            }
            LogId::GLog(owner) => {
                self.refresh_foreign(coordinator, owner);
            }
            LogId::DataWal(_) => {}
        }
    }

    /// Remote side of a VOTE-REQ (MigrationTxn's source): lock the swapped
    /// granules, TryLog the prepared record on the own GLog, vote.
    /// Note: deliberately NO cache refresh here. TryLog must use the
    /// H-LSN the transaction's reads were validated against (Algorithm 2):
    /// refreshing the tracker between the data-effectiveness check and the
    /// conditional append would let a commit slip past modifications the
    /// reads never saw. Only the *read* path refetches on a miss.
    fn remote_vote_req(&mut self, to: NodeId, txn: TxnId, payload: &Bytes) -> Input {
        let alive = self.nodes.get(&to).is_some_and(|n| n.alive);
        if !alive {
            return Input::Timeout { from: to };
        }
        let Some(GRecord::Prepared { swaps, .. }) = GRecord::decode(payload) else {
            // Read-only validation request: compare own GLog LSN.
            let log = LogId::GLog(to);
            let current = self.storage.end_lsn(log).unwrap_or(Lsn::ZERO);
            let tracked = self.nodes[&to].marlin.tracker.get(log);
            return Input::VoteResp {
                from: to,
                yes: current == tracked,
            };
        };
        // Acquire the granule + GTable-entry locks (NO_WAIT).
        {
            let rt = self.node_mut(to);
            for s in &swaps {
                let locked = rt
                    .locks
                    .try_lock(
                        txn,
                        LockTarget::GTableEntry { granule: s.granule },
                        LockMode::Exclusive,
                    )
                    .and_then(|()| {
                        rt.locks.try_lock(
                            txn,
                            LockTarget::Granule {
                                table: s.table,
                                granule: s.granule,
                            },
                            LockMode::Exclusive,
                        )
                    });
                if locked.is_err() {
                    rt.locks.release_all(txn);
                    return Input::VoteResp {
                        from: to,
                        yes: false,
                    };
                }
            }
        }
        // TryLog on the own GLog with the own tracker.
        let log = LogId::GLog(to);
        let expected = self.nodes[&to].marlin.tracker.get(log);
        match self
            .storage
            .conditional_append(log, vec![payload.clone()], expected)
        {
            Ok(out) => {
                // Apply via the suffix (not a tail-skip): the view's
                // watermark may lag the tracker if another node's commit
                // previously advanced the log; skipping records would
                // silently lose their GTable effects.
                let _ = out;
                self.refresh_and_evict(to, &[]);
                Input::VoteResp {
                    from: to,
                    yes: true,
                }
            }
            Err(StorageError::LsnMismatch { current, .. }) => {
                let rt = self.node_mut(to);
                rt.marlin.tracker.observe(log, current);
                rt.marlin.clear_meta_cache(log);
                rt.locks.release_all(txn);
                Input::VoteResp {
                    from: to,
                    yes: false,
                }
            }
            Err(e) => panic!("storage error during remote TryLog: {e}"),
        }
    }

    /// Remote side of the decision broadcast: append the decision to the
    /// own GLog, resolve the pending swaps, release the locks.
    fn remote_decision(&mut self, to: NodeId, txn: TxnId, commit: bool) {
        let alive = self.nodes.get(&to).is_some_and(|n| n.alive);
        if !alive {
            // Decision lost; the prepared record stays in-doubt until the
            // termination protocol resolves it.
            return;
        }
        let log = LogId::GLog(to);
        let payload = GRecord::Decision { txn, commit }.encode();
        let out = self
            .storage
            .append(log, vec![payload.clone()])
            .expect("own glog");
        let rt = self.node_mut(to);
        rt.marlin.tracker.observe(log, out.new_lsn);
        // Rows of granules a committed migration moves away are not
        // evicted: the migrate() wrapper ships them to the destination
        // right after the commit.
        let shipping = if commit {
            rt.marlin.gtable().pending_granules(txn)
        } else {
            Vec::new()
        };
        // Apply via the suffix so any records this node has not yet seen
        // (e.g. a recovery that wrote to this log while it was slow) are
        // materialized too — a tail-skip would advance the watermark past
        // them and permanently hide their GTable effects.
        self.refresh_and_evict(to, &shipping);
        self.node_mut(to).locks.release_all(txn);
    }

    /// Remote side of `ReadOwnersRemote`: lock + read the GTable entries.
    ///
    /// If the node's partition cache was invalidated by a TryLog failure,
    /// the read misses and refetches from storage first (§4.3.2: "the next
    /// transaction that encounters a cache miss in system tables will
    /// fetch the latest data"). Serving the evicted copy instead would let
    /// a data-effectiveness check pass on stale ownership — and a
    /// subsequent commit (whose tracker the failed CAS already updated)
    /// could then double-assign the granule.
    fn remote_read_owners(&mut self, at: NodeId, txn: TxnId, granules: &[GranuleId]) -> Input {
        let alive = self.nodes.get(&at).is_some_and(|n| n.alive);
        if !alive {
            return Input::Timeout { from: at };
        }
        self.ensure_gtable_fresh(at);
        let rt = self.node_mut(at);
        let mut owners = Vec::with_capacity(granules.len());
        for g in granules {
            let meta = rt.marlin.gtable().get(*g).copied();
            let Some(meta) = meta else { continue };
            let locked = rt
                .locks
                .try_lock(
                    txn,
                    LockTarget::GTableEntry { granule: *g },
                    LockMode::Exclusive,
                )
                .and_then(|()| {
                    rt.locks.try_lock(
                        txn,
                        LockTarget::Granule {
                            table: meta.table,
                            granule: *g,
                        },
                        LockMode::Exclusive,
                    )
                });
            if locked.is_err() {
                rt.locks.release_all(txn);
                return Input::OwnersAt {
                    from: at,
                    owners: None,
                };
            }
            owners.push((*g, meta));
        }
        Input::OwnersAt {
            from: at,
            owners: Some(owners),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtable::materialize;
    use marlin_common::KeyRange;
    use proptest::prelude::*;

    const TABLE: TableId = TableId(0);
    const NODES: u32 = 3;
    const GRANULES: u64 = 6;

    fn cluster() -> LocalCluster {
        LocalCluster::bootstrap(&ClusterConfig {
            initial_nodes: (0..NODES).map(NodeId).collect(),
            tables: vec![GranuleLayout::uniform(
                TABLE,
                KeyRange::new(0, GRANULES * 10),
                GRANULES,
                64 * 1024,
                1024,
            )],
            ..ClusterConfig::default()
        })
    }

    fn owner(c: &LocalCluster, granule: GranuleId) -> NodeId {
        c.node_ids()
            .into_iter()
            .find(|&n| c.node(n).marlin.gtable().owner_of(granule) == Some(n))
            .expect("every granule has an owner")
    }

    /// The from-LSN-0 materialization the folded views replaced: every
    /// checked node's GLog read and decoded from its first record.
    fn views_from_zero(c: &LocalCluster) -> BTreeMap<NodeId, GTablePartition> {
        let mut views = BTreeMap::new();
        for &id in c.nodes.keys() {
            let Ok(log) = c.storage.log(LogId::GLog(id)) else {
                continue;
            };
            let records = log
                .read_after(Lsn::ZERO)
                .into_iter()
                .filter_map(|r| GRecord::decode(&r.payload).map(|rec| (r.lsn, rec)));
            views.insert(id, materialize(records));
        }
        views
    }

    /// Runs the check, then asserts that its partitions and its verdict
    /// are the from-LSN-0 oracle's. Returns the verdict.
    fn check_against_oracle(c: &LocalCluster) -> Result<(), Vec<Violation>> {
        let verdict = c.check_invariants();
        let oracle = views_from_zero(c);
        let folded: BTreeMap<NodeId, GTablePartition> = c
            .folded_glogs
            .borrow()
            .iter()
            .map(|(n, f)| (*n, f.partition.clone()))
            .collect();
        assert_eq!(folded, oracle);
        let refs = oracle.iter().map(|(n, p)| (*n, p)).collect();
        assert_eq!(verdict, c.check_views(&refs));
        verdict
    }

    /// Whether `row`'s bytes lie inside `payload`'s.
    fn lies_in(row: &Bytes, payload: &Bytes) -> bool {
        let (row, payload) = (row.as_ptr_range(), payload.as_ptr_range());
        payload.start <= row.start && row.end <= payload.end
    }

    /// Each row of `granule` on `node` that `writes` names holds the
    /// written value, and its bytes are the payload of the record at
    /// `lsn` in `log`.
    fn assert_windows(
        c: &LocalCluster,
        node: NodeId,
        granule: GranuleId,
        writes: &[(u64, Bytes)],
        log: LogId,
        lsn: Lsn,
    ) {
        let record = c.storage.log(log).unwrap().read_at(lsn).unwrap();
        let rows = &c.node(node).data.granule(TABLE, granule).unwrap().rows;
        for (key, value) in writes {
            let row = &rows[key];
            assert_eq!(row, value);
            assert!(lies_in(row, &record.payload), "row {key} is a copy");
        }
    }

    /// A committed row is a window into the GLog record its commit
    /// appended, and stays one when a migration ships it and when crash
    /// recovery rebuilds it from pages.
    #[test]
    fn rows_are_windows_into_their_commit_record() {
        let mut c = cluster();
        let granule = GranuleId(1);
        let src = owner(&c, granule);
        let writes: Vec<(u64, Bytes)> = (10..14)
            .map(|k| (k, Bytes::from(format!("value of {k}").into_bytes())))
            .collect();
        c.user_txn(src, TABLE, &[], &writes).unwrap();
        let log = LogId::GLog(src);
        let lsn = c.storage.end_lsn(log).unwrap();
        assert_windows(&c, src, granule, &writes, log, lsn);

        let dst = NodeId((src.0 + 1) % NODES);
        c.migrate(src, dst, TABLE, vec![granule]).unwrap();
        assert_windows(&c, dst, granule, &writes, log, lsn);

        let rescuer = NodeId((dst.0 + 1) % NODES);
        c.kill(dst);
        c.recovery_migrate(rescuer, dst, vec![granule]).unwrap();
        assert_windows(&c, rescuer, granule, &writes, log, lsn);
        assert_eq!(
            c.user_txn(rescuer, TABLE, &[10, 13], &[]).unwrap(),
            vec![Some(writes[0].1.clone()), Some(writes[3].1.clone())]
        );
    }

    /// An `Install` planted on a second node's GLog for a granule its
    /// owner still holds is a dual owner, for the folded views exactly
    /// as for the oracle.
    #[test]
    fn a_planted_second_install_is_a_dual_owner() {
        let c = cluster();
        let granule = GranuleId(4);
        let holder = owner(&c, granule);
        let intruder = NodeId((holder.0 + 1) % NODES);
        assert_eq!(check_against_oracle(&c), Ok(()));
        let planted = GRecord::Install {
            table: TABLE,
            granule,
            range: c.layout(TABLE).range_of(granule),
            owner: intruder,
        };
        c.storage
            .append(LogId::GLog(intruder), vec![planted.encode()])
            .unwrap();
        let (a, b) = (holder.min(intruder), holder.max(intruder));
        assert_eq!(
            check_against_oracle(&c),
            Err(vec![Violation::DualOwner { granule, a, b }])
        );
    }

    /// One step of a random history. Node fields index the cluster's
    /// runtimes at the time of the step.
    #[derive(Clone, Debug)]
    enum Step {
        Commit { node: u8, key: u8 },
        Migrate { granule: u8, dst: u8 },
        Crash { node: u8, rescuer: u8 },
        Revive { node: u8 },
        Add { id: u8 },
        Remove { coordinator: u8, victim: u8 },
        Check,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (any::<u8>(), 0..(GRANULES * 10) as u8)
                .prop_map(|(node, key)| Step::Commit { node, key }),
            (0..GRANULES as u8, any::<u8>())
                .prop_map(|(granule, dst)| Step::Migrate { granule, dst }),
            (any::<u8>(), any::<u8>()).prop_map(|(node, rescuer)| Step::Crash { node, rescuer }),
            any::<u8>().prop_map(|node| Step::Revive { node }),
            (0..6u8).prop_map(|id| Step::Add { id }),
            (any::<u8>(), any::<u8>()).prop_map(|(coordinator, victim)| Step::Remove {
                coordinator,
                victim
            }),
            Just(Step::Check),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Over random histories of commits, migrations, crashes with
        /// recovery, revivals, membership adds and removes, the folded
        /// views and the violations they yield equal the from-LSN-0
        /// oracle's at every check.
        #[test]
        fn folded_views_equal_the_from_zero_oracle(steps in proptest::collection::vec(step(), 1..40)) {
            let mut c = cluster();
            for s in steps {
                let ids = c.node_ids();
                let pick = |i: u8| ids[usize::from(i) % ids.len()];
                match s {
                    Step::Commit { node, key } => {
                        let value = Bytes::from(vec![key; 8]);
                        let _ = c.user_txn(pick(node), TABLE, &[], &[(u64::from(key), value)]);
                    }
                    Step::Migrate { granule, dst } => {
                        let granule = GranuleId(u64::from(granule));
                        let (src, dst) = (owner(&c, granule), pick(dst));
                        if src != dst {
                            let _ = c.migrate(src, dst, TABLE, vec![granule]);
                        }
                    }
                    Step::Crash { node, rescuer } => {
                        let (node, rescuer) = (pick(node), pick(rescuer));
                        c.kill(node);
                        let orphans = c.node(node).marlin.owned_granules();
                        if rescuer != node && !orphans.is_empty() {
                            let _ = c.recovery_migrate(rescuer, node, orphans);
                        }
                    }
                    Step::Revive { node } => c.revive(pick(node)),
                    Step::Add { id } => {
                        let id = NodeId(u32::from(id));
                        let _ = c.add_node(id, format!("10.0.0.{}", id.0));
                    }
                    Step::Remove { coordinator, victim } => {
                        let _ = c.delete_node(pick(coordinator), pick(victim));
                    }
                    Step::Check => {
                        let _ = check_against_oracle(&c);
                    }
                }
            }
            let _ = check_against_oracle(&c);
        }
    }
}
