//! Cluster topology: zones, regions, and network latency.
//!
//! The paper's future work (§VI) targets multi-datacenter deployment with
//! latency and jurisdiction requirements; this model is where such
//! placement would get its latencies. Within the Fig. 3 experiment a
//! single region with one zone is used and only the intra-zone RTT
//! matters.

use std::collections::BTreeMap;

use oprc_simcore::SimDuration;

/// Describes the regions/zones nodes can live in and the network latency
/// between them.
///
/// Latency lookup is symmetric and falls back from zone-pair to
/// region-pair to defaults, so sparse configuration works.
///
/// # Examples
///
/// ```
/// use oprc_cluster::topology::Topology;
/// use oprc_simcore::SimDuration;
///
/// let mut topo = Topology::new();
/// topo.add_zone("us-east", "use-az1");
/// topo.add_zone("us-east", "use-az2");
/// topo.add_zone("eu-west", "euw-az1");
/// topo.set_region_latency("us-east", "eu-west", SimDuration::from_millis(80));
///
/// assert_eq!(topo.latency("use-az1", "use-az1"), topo.intra_zone());
/// assert_eq!(topo.latency("use-az1", "euw-az1"), SimDuration::from_millis(80));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    /// zone → region
    zone_region: BTreeMap<String, String>,
    /// Unordered region pair → latency.
    region_latency: BTreeMap<(String, String), SimDuration>,
    intra_zone: SimDuration,
    inter_zone: SimDuration,
    default_inter_region: SimDuration,
    /// region → jurisdiction tag (e.g. "EU", "US") for placement
    /// constraints.
    jurisdictions: BTreeMap<String, String>,
}

impl Topology {
    /// Creates a topology with typical defaults: 0.2ms within a zone,
    /// 1ms across zones, 50ms across regions.
    pub fn new() -> Self {
        Topology {
            zone_region: BTreeMap::new(),
            region_latency: BTreeMap::new(),
            intra_zone: SimDuration::from_micros(200),
            inter_zone: SimDuration::from_millis(1),
            default_inter_region: SimDuration::from_millis(50),
            jurisdictions: BTreeMap::new(),
        }
    }

    /// Registers `zone` as part of `region`.
    pub fn add_zone(&mut self, region: impl Into<String>, zone: impl Into<String>) {
        self.zone_region.insert(zone.into(), region.into());
    }

    /// Tags a region with a jurisdiction label (for the paper's
    /// jurisdiction deployment constraint).
    pub fn set_jurisdiction(&mut self, region: impl Into<String>, tag: impl Into<String>) {
        self.jurisdictions.insert(region.into(), tag.into());
    }

    /// The jurisdiction tag of a region, if set.
    pub fn jurisdiction(&self, region: &str) -> Option<&str> {
        self.jurisdictions.get(region).map(String::as_str)
    }

    /// Regions known to the topology, in name order.
    pub fn regions(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.zone_region.values().map(String::as_str).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The region a zone belongs to, if registered.
    pub fn region_of(&self, zone: &str) -> Option<&str> {
        self.zone_region.get(zone).map(String::as_str)
    }

    /// Baseline latency within a single zone.
    pub fn intra_zone(&self) -> SimDuration {
        self.intra_zone
    }

    /// Overrides the intra-zone baseline.
    pub fn set_intra_zone(&mut self, d: SimDuration) {
        self.intra_zone = d;
    }

    /// Overrides the inter-zone (same region) baseline.
    pub fn set_inter_zone(&mut self, d: SimDuration) {
        self.inter_zone = d;
    }

    /// Sets the latency between two regions (symmetric).
    pub fn set_region_latency(
        &mut self,
        a: impl Into<String>,
        b: impl Into<String>,
        d: SimDuration,
    ) {
        let (a, b) = ordered(a.into(), b.into());
        self.region_latency.insert((a, b), d);
    }

    /// One-way network latency between two zones.
    ///
    /// Unregistered zones are treated as singleton regions of their own
    /// name.
    pub fn latency(&self, zone_a: &str, zone_b: &str) -> SimDuration {
        if zone_a == zone_b {
            return self.intra_zone;
        }
        let ra = self.region_of(zone_a).unwrap_or(zone_a);
        let rb = self.region_of(zone_b).unwrap_or(zone_b);
        if ra == rb {
            return self.inter_zone;
        }
        let key = ordered(ra.to_string(), rb.to_string());
        self.region_latency
            .get(&key)
            .copied()
            .unwrap_or(self.default_inter_region)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::new()
    }
}

fn ordered(a: String, b: String) -> (String, String) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        let mut t = Topology::new();
        t.add_zone("us", "us-a");
        t.add_zone("us", "us-b");
        t.add_zone("eu", "eu-a");
        t.set_region_latency("us", "eu", SimDuration::from_millis(80));
        t
    }

    #[test]
    fn same_zone_uses_intra() {
        let t = topo();
        assert_eq!(t.latency("us-a", "us-a"), SimDuration::from_micros(200));
    }

    #[test]
    fn same_region_uses_inter_zone() {
        let t = topo();
        assert_eq!(t.latency("us-a", "us-b"), SimDuration::from_millis(1));
    }

    #[test]
    fn cross_region_uses_matrix_symmetric() {
        let t = topo();
        assert_eq!(t.latency("us-a", "eu-a"), SimDuration::from_millis(80));
        assert_eq!(t.latency("eu-a", "us-b"), SimDuration::from_millis(80));
    }

    #[test]
    fn unknown_region_pair_uses_default() {
        let mut t = topo();
        t.add_zone("ap", "ap-a");
        assert_eq!(t.latency("us-a", "ap-a"), SimDuration::from_millis(50));
    }

    #[test]
    fn unregistered_zone_is_own_region() {
        let t = topo();
        assert_eq!(
            t.latency("mystery-1", "mystery-2"),
            SimDuration::from_millis(50)
        );
        assert_eq!(t.latency("mystery-1", "mystery-1"), t.intra_zone());
    }

    #[test]
    fn jurisdictions() {
        let mut t = topo();
        t.set_jurisdiction("eu", "EU");
        assert_eq!(t.jurisdiction("eu"), Some("EU"));
        assert_eq!(t.jurisdiction("us"), None);
    }

    #[test]
    fn regions_deduped_sorted() {
        let t = topo();
        assert_eq!(t.regions(), vec!["eu", "us"]);
    }

    #[test]
    fn overrides() {
        let mut t = topo();
        t.set_intra_zone(SimDuration::from_micros(50));
        t.set_inter_zone(SimDuration::from_millis(2));
        assert_eq!(t.latency("us-a", "us-a"), SimDuration::from_micros(50));
        assert_eq!(t.latency("us-a", "us-b"), SimDuration::from_millis(2));
    }
}
