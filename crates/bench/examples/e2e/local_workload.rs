//! `local_commit_mix`: the paper's protocol executed for real on the
//! synchronous `LocalCluster` — user transactions through the lock table,
//! `CommitDriver` and the `Append@LSN` CAS; the reconfiguration drivers;
//! recovery from the page store. No simulator code runs.
//!
//! The benchmark plays the client: it keeps its own granule → node routing
//! table and follows `WrongNode` hints, so redirects after a
//! reconfiguration are expected calls, not failures. A call fails when it
//! returns an error no correct run produces, or a wrong value.

use crate::catalogue::MetricSet;
use crate::measure::{Ctx, Iteration, Outcome, Pass, Passes, Schedule, Timing};
use crate::span::Recorder;
use crate::stats;
use bytes::Bytes;
use marlin::autoscaler::{Actuator, LocalHarness};
use marlin::common::{GranuleId, LogId, NodeId, TableId, TxnError};
use marlin::sim::DetRng;
use marlin::workload::{TxnTemplate, YcsbConfig, YcsbGenerator};
use std::collections::BTreeMap;
use std::time::Instant;

const TABLE: TableId = TableId(0);
const NODES: u32 = 8;
const GRANULES: u64 = 4_096;
const KEYS_PER_GRANULE: u64 = 64;
/// User transactions of phases (a), (b) and (e).
const TXNS: [usize; 3] = [40_000, 40_000, 20_000];
const MIGRATIONS: usize = 2_000;
const CRASHES: usize = 6;
const VALUE_BYTES: usize = 64;
const MAX_REDIRECTS: usize = 16;

// Labels of the input streams forked from the run's seed.
const STREAM_RW: u64 = 0xE2E0_0001;
const STREAM_RO: u64 = 0xE2E0_0002;
const STREAM_RECONFIG: u64 = 0xE2E0_0003;

/// The value written by the `n`-th write of an iteration.
fn value_of(n: u64) -> Bytes {
    let mut v = [0u8; VALUE_BYTES];
    for (i, chunk) in v.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&n.wrapping_mul(i as u64 + 1).to_le_bytes());
    }
    Bytes::copy_from_slice(&v)
}

struct Client {
    harness: LocalHarness,
    /// The client's routing table; goes stale on every reconfiguration.
    route: Vec<NodeId>,
    rw_gen: YcsbGenerator,
    ro_gen: YcsbGenerator,
    rng: DetRng,
    /// Key → sequence number of its last acknowledged write.
    acked: BTreeMap<u64, u64>,
    writes: u64,
    user_bytes: u64,
    calls: u64,
    errs: u64,
    /// Calls that returned a wrong value or an unexpected error, and why.
    failed: u64,
    failures: Vec<String>,
    lat_rw_ns: Vec<f64>,
    lat_ro_ns: Vec<f64>,
    lat_migrate_ns: Vec<f64>,
    failover_ms: Vec<f64>,
    moved_by_scale_out: u64,
    /// Logical time stamped on reconfiguration steps.
    step: u64,
    rec: Recorder,
}

fn set_up(seed: u64, traced: bool) -> (Client, f64) {
    let start = Instant::now();
    let harness = LocalHarness::bootstrap(NODES, GRANULES);
    let mut route = vec![NodeId(u32::MAX); GRANULES as usize];
    for &m in harness.members() {
        for g in harness.cluster.node(m).marlin.owned_granules() {
            route[g.0 as usize] = m;
        }
    }
    let layout = YcsbConfig::paper_layout(TABLE, GRANULES);
    let streams = DetRng::seed(seed);
    let rw_gen = YcsbGenerator::new(
        YcsbConfig::paper_default(layout.clone()),
        streams.fork(STREAM_RW),
    );
    let ro_gen = YcsbGenerator::new(
        YcsbConfig {
            read_ratio: 1.0,
            ..YcsbConfig::paper_default(layout)
        },
        streams.fork(STREAM_RO),
    );
    let client = Client {
        harness,
        route,
        rw_gen,
        ro_gen,
        rng: streams.fork(STREAM_RECONFIG),
        acked: BTreeMap::new(),
        writes: 0,
        user_bytes: 0,
        calls: 0,
        errs: 0,
        failed: 0,
        failures: Vec::new(),
        lat_rw_ns: Vec::new(),
        lat_ro_ns: Vec::new(),
        lat_migrate_ns: Vec::new(),
        failover_ms: Vec::new(),
        moved_by_scale_out: 0,
        step: 0,
        rec: Recorder::new(traced),
    };
    (client, start.elapsed().as_secs_f64())
}

impl Client {
    /// The live member that owns `granule` by its own GTable partition —
    /// the directory lookup a client falls back to without a usable hint.
    fn lookup_owner(&self, granule: GranuleId) -> NodeId {
        self.harness
            .members()
            .iter()
            .copied()
            .find(|&m| {
                self.harness
                    .cluster
                    .node(m)
                    .marlin
                    .gtable()
                    .owner_of(granule)
                    == Some(m)
            })
            .expect("every granule has a live owner (I0)")
    }

    /// Issue one transaction, following redirects until it is served.
    /// Returns the reads of the successful call.
    fn submit(
        &mut self,
        granule: GranuleId,
        reads: &[u64],
        writes: &[(u64, Bytes)],
    ) -> Option<Vec<Option<Bytes>>> {
        let span = if writes.is_empty() {
            "core.runtime.user_txn_ro"
        } else {
            "core.runtime.user_txn_rw"
        };
        // Each hint is newer than the last, so a chain of them ends; its
        // length is the reconfigurations the route slept through.
        for _ in 0..MAX_REDIRECTS {
            let node = self.route[granule.0 as usize];
            self.rec.set_op(self.calls);
            self.rec.enter(span, Recorder::sampled(self.calls));
            let start = Instant::now();
            let result = self.harness.cluster.user_txn(node, TABLE, reads, writes);
            let nanos = start.elapsed().as_nanos() as f64;
            self.rec.exit();
            self.calls += 1;
            match result {
                Ok(values) => {
                    if writes.is_empty() {
                        self.lat_ro_ns.push(nanos);
                    } else {
                        self.lat_rw_ns.push(nanos);
                    }
                    for (key, value) in writes {
                        self.acked.insert(*key, self.writes);
                        self.writes += 1;
                        self.user_bytes += value.len() as u64;
                    }
                    return Some(values);
                }
                Err(TxnError::WrongNode { owner, .. }) if owner != NodeId(u32::MAX) => {
                    self.errs += 1;
                    self.route[granule.0 as usize] = owner;
                }
                Err(TxnError::WrongNode { .. } | TxnError::NodeUnavailable(_)) => {
                    self.errs += 1;
                    self.route[granule.0 as usize] = self.lookup_owner(granule);
                }
                Err(e) => {
                    self.failed += 1;
                    self.failures
                        .push(format!("user_txn on {node} failed: {e}"));
                    return None;
                }
            }
        }
        self.failed += 1;
        self.failures.push(format!(
            "granule {granule} was not served after {MAX_REDIRECTS} redirects"
        ));
        None
    }

    fn run_template(&mut self, tpl: &TxnTemplate) {
        let granule = GranuleId(tpl.anchor / KEYS_PER_GRANULE);
        let reads: Vec<u64> = tpl.ops.iter().filter(|o| !o.write).map(|o| o.key).collect();
        let writes: Vec<(u64, Bytes)> = tpl
            .ops
            .iter()
            .filter(|o| o.write)
            .zip(self.writes..)
            .map(|(o, n)| (o.key, value_of(n)))
            .collect();
        self.submit(granule, &reads, &writes);
    }

    /// `count` transactions, alternating the 50 %-write generator and the
    /// read-only one.
    fn user_phase(&mut self, count: usize) {
        for i in 0..count {
            let tpl = if i % 2 == 0 {
                self.rw_gen.next_txn()
            } else {
                self.ro_gen.next_txn()
            };
            self.run_template(&tpl);
        }
    }

    fn check_invariants(&mut self) {
        self.step += 1;
        let at = self.step;
        let harness = &self.harness;
        let result = self
            .rec
            .span("autoscaler.local.check_invariants", true, || {
                harness.check_invariants(at)
            });
        if let Err(violations) = result {
            self.failures.extend(
                violations
                    .iter()
                    .map(|v| format!("invariant violated: {v}")),
            );
        }
    }

    fn scale_out(&mut self) {
        let before = self.harness.owned_counts();
        self.step += 1;
        self.rec.enter("autoscaler.local.add_nodes", true);
        self.harness.add_nodes(self.step, NODES, None);
        self.rec.exit();
        self.moved_by_scale_out = self
            .harness
            .owned_counts()
            .iter()
            .filter(|(m, _)| !before.contains_key(m))
            .map(|(_, owned)| *owned)
            .sum();
        self.check_invariants();
    }

    /// Single-granule `MigrationTxn`s between random member pairs.
    fn migrations(&mut self) {
        for i in 0..MIGRATIONS {
            let granule = GranuleId(self.rng.range(0, GRANULES));
            let src = self.lookup_owner(granule);
            let members = self.harness.members();
            let mut dst = *self.rng.pick(members);
            if dst == src {
                let at = members.iter().position(|&m| m == src).unwrap_or(0);
                dst = members[(at + 1) % members.len()];
            }
            self.rec.set_op(i as u64);
            self.rec
                .enter("core.runtime.migrate", Recorder::sampled(i as u64));
            let start = Instant::now();
            let result = self.harness.cluster.migrate(src, dst, TABLE, vec![granule]);
            self.lat_migrate_ns.push(start.elapsed().as_nanos() as f64);
            self.rec.exit();
            if let Err(e) = result {
                self.failed += 1;
                self.failures
                    .push(format!("migrate {granule} {src}->{dst} failed: {e}"));
            }
        }
        self.check_invariants();
    }

    /// Crash a member, then time from the kill to the first request served
    /// on a granule it owned. The revived victim's stale write must be
    /// refused by the conditional append (Figure 7).
    fn crash_and_fail_over(&mut self) {
        let victim = *self.rng.pick(self.harness.members());
        let owned = self.harness.cluster.node(victim).marlin.owned_granules();
        let orphan = *self.rng.pick(&owned);
        let lo = orphan.0 * KEYS_PER_GRANULE;
        let known: Vec<u64> = self
            .acked
            .range(lo..lo + KEYS_PER_GRANULE)
            .take(4)
            .map(|(k, _)| *k)
            .collect();
        let write = vec![(lo, value_of(self.writes))];

        let start = Instant::now();
        self.step += 1;
        self.rec.enter("autoscaler.local.crash", true);
        self.harness.crash(victim);
        self.rec.exit();
        let expected: Vec<Option<Bytes>> = known
            .iter()
            .map(|k| self.acked.get(k).map(|&n| value_of(n)))
            .collect();
        let served = self.submit(orphan, &known, &write);
        self.failover_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let Some(values) = served {
            if values != expected {
                self.failed += 1;
                self.failures.push(format!(
                    "granule {orphan} lost acknowledged writes in recovery from {victim}"
                ));
            }
        }
        self.check_invariants();

        self.harness.cluster.revive(victim);
        let stale = [(lo + 1, value_of(u64::MAX))];
        self.calls += 1;
        match self.harness.cluster.user_txn(victim, TABLE, &[], &stale) {
            Err(TxnError::CommitConflict { .. }) => self.errs += 1,
            other => {
                self.failed += 1;
                self.failures.push(format!(
                    "revived {victim} wrote to {orphan} it lost: {other:?}"
                ));
            }
        }
    }

    fn scale_in(&mut self) {
        let members = self.harness.members();
        let victims: Vec<NodeId> = members[NODES as usize..].to_vec();
        self.step += 1;
        self.rec.enter("autoscaler.local.remove_nodes", true);
        self.harness.remove_nodes(self.step, &victims);
        self.rec.exit();
        self.check_invariants();
    }

    /// Read every key ever written back from its granule's owner and
    /// compare it with its last acknowledged value. Returns a digest of
    /// what was read. An output check: no routing, no timing, no counting.
    fn read_back(&mut self) -> u64 {
        let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
        let keys: Vec<u64> = self.acked.keys().copied().collect();
        let mut lost = 0u64;
        for chunk in keys.chunk_by(|a, b| a / KEYS_PER_GRANULE == b / KEYS_PER_GRANULE) {
            let granule = GranuleId(chunk[0] / KEYS_PER_GRANULE);
            let owner = self.lookup_owner(granule);
            let values = match self.harness.cluster.user_txn(owner, TABLE, chunk, &[]) {
                Ok(values) => values,
                Err(e) => {
                    self.failed += 1;
                    self.failures
                        .push(format!("read-back of {granule} on {owner} failed: {e}"));
                    continue;
                }
            };
            for (key, value) in chunk.iter().zip(values) {
                let expected = value_of(self.acked[key]);
                if value.as_ref() != Some(&expected) {
                    lost += 1;
                }
                for byte in value.iter().flat_map(|v| v.iter()) {
                    digest = (digest ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        if lost > 0 {
            self.failed += lost;
            self.failures
                .push(format!("{lost} acknowledged writes were lost or stale"));
        }
        digest
    }
}

/// What must repeat exactly from iteration to iteration.
#[derive(Clone, Debug, PartialEq)]
struct Counts {
    calls: u64,
    errs: u64,
    writes: u64,
    read_back_digest: u64,
    moved_by_scale_out: u64,
    glog_cas_attempts: u64,
    glog_cas_failures: u64,
    syslog_cas_attempts: u64,
    syslog_cas_failures: u64,
    bytes_appended: u64,
    user_bytes: u64,
    page_reads: u64,
    lock_acquisitions: u64,
    lock_conflicts: u64,
}

fn counts(c: &Client) -> Counts {
    let storage = c.harness.cluster.storage();
    let mut out = Counts {
        calls: c.calls,
        errs: c.errs,
        writes: c.writes,
        read_back_digest: 0,
        moved_by_scale_out: c.moved_by_scale_out,
        glog_cas_attempts: 0,
        glog_cas_failures: 0,
        syslog_cas_attempts: 0,
        syslog_cas_failures: 0,
        bytes_appended: 0,
        user_bytes: c.user_bytes,
        page_reads: storage.page_store().reads(),
        lock_acquisitions: 0,
        lock_conflicts: 0,
    };
    for id in storage.log_ids() {
        let Ok(s) = storage.stats(id) else { continue };
        out.bytes_appended += s.bytes_appended;
        match id {
            LogId::GLog(_) => {
                out.glog_cas_attempts += s.cas_attempts;
                out.glog_cas_failures += s.cas_failures;
            }
            LogId::SysLog => {
                out.syslog_cas_attempts += s.cas_attempts;
                out.syslog_cas_failures += s.cas_failures;
            }
            LogId::DataWal(_) => {}
        }
    }
    for id in c.harness.cluster.node_ids() {
        let locks = &c.harness.cluster.node(id).locks;
        out.lock_acquisitions += locks.acquisitions();
        out.lock_conflicts += locks.conflicts();
    }
    out
}

fn count_metrics(set: &mut MetricSet, c: &Counts) {
    set.set("core.runtime.user_txn_err_calls", c.errs as f64);
    set.set("storage.glog.cas_attempts", c.glog_cas_attempts as f64);
    set.set("storage.glog.cas_failures", c.glog_cas_failures as f64);
    set.set("storage.syslog.cas_attempts", c.syslog_cas_attempts as f64);
    set.set("storage.syslog.cas_failures", c.syslog_cas_failures as f64);
    let attempts = c.glog_cas_attempts + c.syslog_cas_attempts;
    let failures = c.glog_cas_failures + c.syslog_cas_failures;
    if attempts > 0 {
        set.set(
            "storage.cas_success_ratio",
            (attempts - failures) as f64 / attempts as f64,
        );
    }
    set.set("storage.bytes_appended", c.bytes_appended as f64);
    if c.user_bytes > 0 {
        set.set(
            "storage.bytes_per_user_byte",
            c.bytes_appended as f64 / c.user_bytes as f64,
        );
    }
    set.set("storage.page.reads", c.page_reads as f64);
    set.set("engine.locks.acquisitions", c.lock_acquisitions as f64);
    set.set("engine.locks.conflicts", c.lock_conflicts as f64);
}

fn layer_metrics(c: &Client) -> MetricSet {
    let mut set = MetricSet::default();
    let secs = |name: &str| c.rec.totals(name).busy_ns as f64 / 1e9;
    let calls = |name: &str| c.rec.totals(name).calls as f64;
    for step in ["add_nodes", "remove_nodes", "crash", "check_invariants"] {
        let span = format!("autoscaler.local.{step}");
        set.set(&format!("{span}_s"), secs(&span));
        set.set(&format!("{span}_calls"), calls(&span));
    }
    let add_s = secs("autoscaler.local.add_nodes");
    if add_s > 0.0 {
        set.set(
            "autoscaler.local.scale_out_granules_per_s",
            c.moved_by_scale_out as f64 / add_s,
        );
    }
    for kind in ["rw", "ro"] {
        let span = format!("core.runtime.user_txn_{kind}");
        set.set(&format!("{span}_s"), secs(&span));
        set.set(&format!("{span}_calls"), calls(&span));
    }
    set.set("core.runtime.migrate_s", secs("core.runtime.migrate"));
    set
}

/// Run one iteration; the client comes back for its latency samples.
fn iterate(seed: u64, pass: Pass, out: &mut Outcome) -> (Iteration<Counts>, Client) {
    let (mut c, setup_s) = set_up(seed, pass == Pass::Traced);
    let start = Instant::now();
    c.user_phase(TXNS[0]);
    c.scale_out();
    c.user_phase(TXNS[1]);
    c.migrations();
    for _ in 0..CRASHES {
        c.crash_and_fail_over();
    }
    c.scale_in();
    c.user_phase(TXNS[2]);
    let wall_s = start.elapsed().as_secs_f64();
    // Counted before the read-back, which is a check and not the workload.
    let mut counts = counts(&c);
    counts.read_back_digest = c.read_back();
    out.failed += c.failed;
    for failure in std::mem::take(&mut c.failures) {
        out.fail(failure);
    }
    out.check(c.harness.members().len() == NODES as usize, || {
        format!(
            "ended with {} members, not {NODES}",
            c.harness.members().len()
        )
    });
    let traced = pass == Pass::Traced;
    let iteration = Iteration {
        setup_s,
        wall_s,
        repeats: Some(counts),
        layers: traced.then(|| layer_metrics(&c)),
        recorder: traced.then(|| std::mem::replace(&mut c.rec, Recorder::new(false))),
        last_observation: traced.then(|| c.harness.observe(c.step, f64::from(NODES) * 0.5)),
    };
    (iteration, c)
}

/// The run's failover time from each iteration's six.
///
/// The six crashes of an iteration differ (the first replays every log
/// into the page store and takes 20 times the others), and iterations of
/// one seed repeat them in the same order. Pooling all samples would put
/// the median in the gap between two clusters, where it jumps; so each
/// crash is first reduced to its median over the iterations.
fn failover_median(iterations: &[Vec<f64>]) -> f64 {
    let per_crash: Vec<f64> = (0..CRASHES)
        .map(|k| stats::median(&iterations.iter().map(|it| it[k]).collect::<Vec<_>>()))
        .collect();
    stats::median(&per_crash)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut passes = Passes::new();
    let mut schedule = Schedule::new(ctx);
    let (mut rw, mut ro, mut mig, mut failover) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while let Some(pass) = schedule.next() {
        let (it, client) = iterate(ctx.seed, pass, &mut out);
        passes.record(pass, it, &mut out);
        if pass == Pass::Untraced {
            rw.extend_from_slice(&client.lat_rw_ns);
            ro.extend_from_slice(&client.lat_ro_ns);
            mig.extend_from_slice(&client.lat_migrate_ns);
            failover.push(client.failover_ms);
        }
    }
    passes.times.top_up_setups(|| set_up(ctx.seed, false).1);

    let counts = passes.finish(ctx, |c: &Counts| c.calls, &mut out);
    let us = |ns: &[f64], pct: f64| stats::percentile(ns, pct) / 1e3;
    out.values.set("txn_rw_p50_us", us(&rw, 50.0));
    out.values.set("txn_rw_p99_us", us(&rw, 99.0));
    out.values.set("txn_ro_p50_us", us(&ro, 50.0));
    out.values.set("migration_p50_us", us(&mig, 50.0));
    out.values.set("migration_p99_us", us(&mig, 99.0));
    out.values.set("failover_ms", failover_median(&failover));
    count_metrics(&mut out.values, &counts);
    out.timings.push(Timing::new("user_txn rw", "ns", &rw));
    out.timings.push(Timing::new("user_txn ro", "ns", &ro));
    out.timings.push(Timing::new("migrate", "ns", &mig));
    out.timings
        .push(Timing::new("failover", "ms", &failover.concat()));
    out.notes.push(format!(
        "{} user_txn calls per iteration, {} of them redirects or refused stale writes (expected, not failures); read-back digest {:016x}",
        counts.calls, counts.errs, counts.read_back_digest
    ));
    out
}
