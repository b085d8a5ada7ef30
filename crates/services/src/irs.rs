//! Identity Resolution Service (IRS): "an auxiliary service that can be used
//! to revert the site-specific mapping process from grid user identity to a
//! system user account" (§II-A). §III-B gives two ways to obtain the reverse
//! mapping: an actively populated look-up table, or a site-deployed custom
//! resolution endpoint queried "using a minimalist JSON based protocol" —
//! modeled here as a pluggable resolver callback. The simulated test bed
//! runs the second way, as HPC2N does: each site's endpoint answers for its
//! policy's users, and [`Irs::resolve`] memoizes each answer in the table,
//! so a site holds only the identities that submitted there.

use aequus_core::{GridUser, SystemUser};
use aequus_telemetry::{Histogram, Snapshot, Telemetry};
use std::collections::BTreeMap;

/// The resolver endpoint type: given a system account, return the grid
/// identity it was mapped from (the HPC2N deployment runs "a small name
/// resolution endpoint" of this shape).
pub type ResolverEndpoint = Box<dyn Fn(&SystemUser) -> Option<GridUser> + Send + Sync>;

/// Per-site identity resolution service.
#[derive(Default)]
pub struct Irs {
    table: BTreeMap<SystemUser, GridUser>,
    endpoint: Option<ResolverEndpoint>,
    lookups: u64,
    endpoint_calls: u64,
    h_resolve: Histogram,
}

impl std::fmt::Debug for Irs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Irs")
            .field("table_entries", &self.table.len())
            .field("has_endpoint", &self.endpoint.is_some())
            .field("lookups", &self.lookups)
            .finish()
    }
}

impl Irs {
    /// Create an empty IRS (no mappings, no endpoint).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wire this service into a telemetry registry; pass
    /// [`Telemetry::disabled`] to detach.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.h_resolve = t.histogram("aequus_irs_resolve_s");
    }

    /// Way 1 (§III-B): actively store a reverse mapping in the look-up table.
    pub fn store_mapping(&mut self, system: SystemUser, grid: GridUser) {
        self.table.insert(system, grid);
    }

    /// Way 2 (§III-B): configure a custom resolution endpoint the IRS calls
    /// with name-resolution queries.
    pub fn set_endpoint(&mut self, endpoint: ResolverEndpoint) {
        self.endpoint = Some(endpoint);
    }

    /// Resolve a system account back to the grid identity: the table is
    /// consulted first, then the endpoint (whose answers are memoized into
    /// the table).
    pub fn resolve(&mut self, system: &SystemUser) -> Option<GridUser> {
        let _span = self.h_resolve.start_timer();
        self.lookups += 1;
        if let Some(g) = self.table.get(system) {
            return Some(g.clone());
        }
        if let Some(ep) = &self.endpoint {
            self.endpoint_calls += 1;
            if let Some(g) = ep(system) {
                self.table.insert(system.clone(), g.clone());
                return Some(g);
            }
        }
        None
    }

    /// Total resolution queries served.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Calls that had to go to the endpoint.
    pub fn endpoint_calls(&self) -> u64 {
        self.endpoint_calls
    }

    /// Write the lookup and endpoint-call counts into `snap`.
    pub fn counts_into(&self, snap: &mut Snapshot) {
        snap.add_counts([
            ("aequus_irs_lookups_total", self.lookups),
            ("aequus_irs_endpoint_calls_total", self.endpoint_calls),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lookup() {
        let mut irs = Irs::new();
        irs.store_mapping(SystemUser::new("grid0001"), GridUser::new("CN=alice"));
        assert_eq!(
            irs.resolve(&SystemUser::new("grid0001")),
            Some(GridUser::new("CN=alice"))
        );
        assert_eq!(irs.resolve(&SystemUser::new("grid0002")), None);
    }

    #[test]
    fn endpoint_fallback_and_memoization() {
        let mut irs = Irs::new();
        irs.set_endpoint(Box::new(|sys: &SystemUser| {
            // A site-specific convention: gridNNNN ↔ CN=userNNNN.
            sys.as_str()
                .strip_prefix("grid")
                .map(|n| GridUser::new(format!("CN=user{n}")))
        }));
        let g = irs.resolve(&SystemUser::new("grid0042"));
        assert_eq!(g, Some(GridUser::new("CN=user0042")));
        assert_eq!(irs.endpoint_calls(), 1);
        // Second resolve hits the memoized table, not the endpoint.
        irs.resolve(&SystemUser::new("grid0042"));
        assert_eq!(irs.endpoint_calls(), 1);
        assert_eq!(irs.lookups(), 2);
    }

    #[test]
    fn endpoint_miss_returns_none() {
        let mut irs = Irs::new();
        irs.set_endpoint(Box::new(|_| None));
        assert_eq!(irs.resolve(&SystemUser::new("unknown")), None);
        assert_eq!(irs.endpoint_calls(), 1);
    }

    #[test]
    fn table_takes_precedence_over_endpoint() {
        let mut irs = Irs::new();
        irs.store_mapping(SystemUser::new("grid1"), GridUser::new("CN=table"));
        irs.set_endpoint(Box::new(|_| Some(GridUser::new("CN=endpoint"))));
        assert_eq!(
            irs.resolve(&SystemUser::new("grid1")),
            Some(GridUser::new("CN=table"))
        );
        assert_eq!(irs.endpoint_calls(), 0);
    }
}
