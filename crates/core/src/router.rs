//! Client-side routing with cached ownership (§4.2).
//!
//! Routers locate partition owners via `ScanGTableTxn` and cache the
//! result. "Cache staleness in routers does not compromise system
//! correctness, as Marlin ensures each compute node maintains the ground
//! truth for its owned GTable partition. Consequently, if a request is
//! misrouted due to stale routing information, the receiving node can
//! detect that it no longer owns the granule and redirect the request to
//! the correct owner."

use crate::gtable::GranuleMeta;
use marlin_common::{GranuleId, NodeId};
use std::collections::BTreeMap;

/// A client/router ownership cache.
#[derive(Clone, Debug, Default)]
pub struct Router {
    routes: BTreeMap<GranuleId, NodeId>,
    /// Statistics: requests routed, redirects absorbed, scans installed.
    hits: u64,
    redirects: u64,
    refreshes: u64,
}

impl Router {
    /// An empty router (no routes; callers must seed or scan).
    #[must_use]
    pub fn new() -> Self {
        Router::default()
    }

    /// Install a full scan result (from `ScanGTableTxn`). Entries may
    /// contain duplicates across partitions (forwarding entries); since a
    /// committed scan is causally consistent, duplicates agree and the
    /// last write wins harmlessly.
    pub fn install_scan(&mut self, entries: &[(GranuleId, GranuleMeta)]) {
        for (g, meta) in entries {
            self.routes.insert(*g, meta.owner);
        }
        self.refreshes += 1;
    }

    /// Route a request for `granule`, if known.
    pub fn route(&mut self, granule: GranuleId) -> Option<NodeId> {
        let owner = self.routes.get(&granule).copied();
        if owner.is_some() {
            self.hits += 1;
        }
        owner
    }

    /// Absorb a `WrongNodeError` redirect: the contacted node told us the
    /// actual owner (Algorithm 1 line 6). `owner` of `u32::MAX` (unknown)
    /// drops the stale route instead.
    pub fn redirect(&mut self, granule: GranuleId, owner: NodeId) {
        self.redirects += 1;
        if owner == NodeId(u32::MAX) {
            self.routes.remove(&granule);
        } else {
            self.routes.insert(granule, owner);
        }
    }

    /// Number of routed granules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the router knows no routes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// `(hits, redirects, refreshes)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.redirects, self.refreshes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_common::{KeyRange, TableId};

    fn meta(owner: u32) -> GranuleMeta {
        GranuleMeta {
            table: TableId(0),
            range: KeyRange::new(0, 10),
            owner: NodeId(owner),
        }
    }

    #[test]
    fn scan_installs_routes() {
        let mut r = Router::new();
        assert_eq!(r.route(GranuleId(1)), None);
        r.install_scan(&[(GranuleId(1), meta(2)), (GranuleId(2), meta(3))]);
        assert_eq!(r.route(GranuleId(1)), Some(NodeId(2)));
        assert_eq!(r.route(GranuleId(2)), Some(NodeId(3)));
    }

    #[test]
    fn duplicate_entries_agreeing_are_harmless() {
        // Source forwarding entry + destination authoritative entry.
        let mut r = Router::new();
        r.install_scan(&[(GranuleId(1), meta(5)), (GranuleId(1), meta(5))]);
        assert_eq!(r.route(GranuleId(1)), Some(NodeId(5)));
    }

    #[test]
    fn redirect_updates_route() {
        let mut r = Router::new();
        r.install_scan(&[(GranuleId(1), meta(2))]);
        // Node 2 says: not mine anymore, go to node 7.
        r.redirect(GranuleId(1), NodeId(7));
        assert_eq!(r.route(GranuleId(1)), Some(NodeId(7)));
        let (_, redirects, _) = r.stats();
        assert_eq!(redirects, 1);
    }

    #[test]
    fn unknown_owner_redirect_drops_route() {
        let mut r = Router::new();
        r.install_scan(&[(GranuleId(1), meta(2))]);
        r.redirect(GranuleId(1), NodeId(u32::MAX));
        assert_eq!(r.route(GranuleId(1)), None);
    }
}
