//! Coordination-op accounting: the per-subsystem counters behind the
//! paper's Meta Cost scalar (§6.1.5), for Marlin and the external-service
//! baselines alike.

/// Raw coordination-op counters, split by subsystem.
///
/// Marlin coordinates through the database's own logs, so its ops land in
/// the `*_cas_*` counters (Append@LSN conditional appends on GLogs and the
/// SysLog) and its external-service counters stay zero. The ZK/FDB
/// baselines route reconfiguration metadata through the external service,
/// so their ops land in `service_writes`/`service_reads` instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoordOps {
    /// Append@LSN CAS attempts on user-commit GLogs (one per commit
    /// participant; the data-plane WAL append every backend performs).
    pub commit_cas_attempts: u64,
    /// Of those, attempts rejected with an LSN mismatch (OCC conflicts —
    /// the Figure 15 contention signal on the data plane).
    pub commit_cas_retries: u64,
    /// Append@LSN CAS attempts for migration metadata commits (Marlin's
    /// MigrationTxn writes the source and destination GLogs).
    pub migration_cas_attempts: u64,
    /// Migration CAS attempts rejected with an LSN mismatch.
    pub migration_cas_retries: u64,
    /// Append@LSN CAS attempts on the SysLog for membership updates
    /// (AddNode/DeleteNode).
    pub membership_cas_attempts: u64,
    /// Membership CAS attempts rejected with an LSN mismatch.
    pub membership_cas_retries: u64,
    /// Writes submitted to the external coordination service
    /// (ownership installs/updates, membership changes; 0 for Marlin).
    pub service_writes: u64,
    /// Reads served by the external coordination service (router
    /// ownership refreshes after a misroute; 0 for Marlin, whose redirects
    /// come from the nodes themselves, §4.2).
    pub service_reads: u64,
    /// Ownership-change notifications delivered to the routing tier
    /// (Marlin: node broadcast; baselines: service watches).
    pub watch_notifications: u64,
}

impl CoordOps {
    /// All CAS attempts across subsystems.
    #[must_use]
    pub fn total_cas_attempts(&self) -> u64 {
        self.commit_cas_attempts + self.migration_cas_attempts + self.membership_cas_attempts
    }

    /// Ops that touched the external coordination service.
    #[must_use]
    pub fn service_ops(&self) -> u64 {
        self.service_writes + self.service_reads
    }

    /// Every counted op.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total_cas_attempts() + self.service_ops() + self.watch_notifications
    }

    /// Fold another registry's counts into this one.
    pub fn merge(&mut self, other: &CoordOps) {
        self.commit_cas_attempts += other.commit_cas_attempts;
        self.commit_cas_retries += other.commit_cas_retries;
        self.migration_cas_attempts += other.migration_cas_attempts;
        self.migration_cas_retries += other.migration_cas_retries;
        self.membership_cas_attempts += other.membership_cas_attempts;
        self.membership_cas_retries += other.membership_cas_retries;
        self.service_writes += other.service_writes;
        self.service_reads += other.service_reads;
        self.watch_notifications += other.watch_notifications;
    }
}

/// The op counters plus the Meta Cost dollars attributed across them.
///
/// The external service bills by uptime, not per op, so the attribution
/// splits the accrued meta dollars proportionally over the write/read op
/// mix and books the remainder as uptime (idle service time). The three
/// dollar parts always sum back to the legacy `meta_cost` scalar — and to
/// exactly 0 for Marlin, which runs no external service.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoordBreakdown {
    /// The raw counters.
    pub ops: CoordOps,
    /// Meta dollars attributed to service writes.
    pub write_dollars: f64,
    /// Meta dollars attributed to service reads.
    pub read_dollars: f64,
    /// Residual meta dollars: service uptime not covered by ops.
    pub uptime_dollars: f64,
}

impl CoordBreakdown {
    /// Attribute `meta_cost` dollars over the op mix in `ops`.
    ///
    /// When the service saw no ops (Marlin, or an idle baseline), the
    /// whole amount books as uptime. The residual form (`uptime = meta −
    /// write − read`) keeps [`CoordBreakdown::meta_dollars`] equal to the
    /// input to within floating-point rounding.
    #[must_use]
    pub fn attribute(ops: CoordOps, meta_cost: f64) -> Self {
        let service_ops = ops.service_ops();
        let (write_dollars, read_dollars) = if service_ops == 0 || meta_cost == 0.0 {
            (0.0, 0.0)
        } else {
            // Half of the bill is op-attributed, half stays uptime — the
            // service is provisioned for peak, not average, op rate.
            let attributable = meta_cost * 0.5;
            let per_op = attributable / service_ops as f64;
            (
                per_op * ops.service_writes as f64,
                per_op * ops.service_reads as f64,
            )
        };
        CoordBreakdown {
            ops,
            write_dollars,
            read_dollars,
            uptime_dollars: meta_cost - write_dollars - read_dollars,
        }
    }

    /// The attributed dollars, summed back to the Meta Cost scalar.
    #[must_use]
    pub fn meta_dollars(&self) -> f64 {
        self.write_dollars + self.read_dollars + self.uptime_dollars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> CoordOps {
        CoordOps {
            commit_cas_attempts: 100,
            commit_cas_retries: 3,
            migration_cas_attempts: 20,
            migration_cas_retries: 1,
            membership_cas_attempts: 5,
            membership_cas_retries: 2,
            service_writes: 30,
            service_reads: 10,
            watch_notifications: 8,
        }
    }

    #[test]
    fn totals_and_merge_add_up() {
        let mut a = ops();
        assert_eq!(a.total_cas_attempts(), 125);
        assert_eq!(a.service_ops(), 40);
        assert_eq!(a.total(), 125 + 40 + 8);
        a.merge(&ops());
        assert_eq!(a.total(), 2 * (125 + 40 + 8));
    }

    #[test]
    fn marlin_attribution_is_exactly_zero() {
        let b = CoordBreakdown::attribute(
            CoordOps {
                service_writes: 0,
                service_reads: 0,
                ..ops()
            },
            0.0,
        );
        assert_eq!(b.write_dollars, 0.0);
        assert_eq!(b.read_dollars, 0.0);
        assert_eq!(b.uptime_dollars, 0.0);
        assert_eq!(b.meta_dollars(), 0.0);
    }

    #[test]
    fn baseline_attribution_sums_back_to_meta_cost() {
        let meta = 0.597;
        let b = CoordBreakdown::attribute(ops(), meta);
        assert!(b.write_dollars > 0.0 && b.read_dollars > 0.0);
        // writes:reads = 30:10 over the op-attributed half.
        assert!((b.write_dollars / b.read_dollars - 3.0).abs() < 1e-9);
        assert!((b.meta_dollars() - meta).abs() < 1e-12);
    }

    #[test]
    fn idle_service_books_everything_as_uptime() {
        let b = CoordBreakdown::attribute(CoordOps::default(), 1.25);
        assert_eq!(b.write_dollars, 0.0);
        assert_eq!(b.read_dollars, 0.0);
        assert!((b.uptime_dollars - 1.25).abs() < 1e-12);
    }
}
