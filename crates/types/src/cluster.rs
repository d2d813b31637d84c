//! Cluster partitioning of a chip's tiles.
//!
//! Hierarchical interconnects group contiguous tiles into equal-sized
//! clusters: cluster `k` owns cores `[k * size, (k + 1) * size)`. At
//! 1000+ cores the `core -> cluster` and `cluster -> gateway` maps are on
//! the routing hot path, so they are precomputed into index-addressed
//! arrays here instead of being re-derived (or allocated) per message.

use crate::ids::CoreId;

/// An index-addressed partition of `cores` tiles into equal clusters.
///
/// # Examples
///
/// ```
/// use nocstar_types::cluster::ClusterMap;
/// use nocstar_types::CoreId;
///
/// let map = ClusterMap::new(64, 16);
/// assert_eq!(map.clusters(), 4);
/// assert_eq!(map.cluster_of(CoreId::new(37)), 2);
/// assert_eq!(map.gateway(2), CoreId::new(32));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMap {
    cluster_size: usize,
    /// `core index -> cluster index`, flat (u32 keeps 1024-core maps in
    /// one cache line per 16 tiles).
    cluster_of: Vec<u32>,
    /// `cluster index -> gateway tile` (the cluster's first core, which
    /// hosts the overlay router port).
    gateways: Vec<CoreId>,
}

impl ClusterMap {
    /// Partitions `cores` tiles into clusters of `cluster_size`.
    ///
    /// # Panics
    ///
    /// Panics unless `cluster_size` is in `1..=cores` and evenly divides
    /// `cores` (ragged final clusters would leave set ranges without an
    /// intra-cluster home).
    pub fn new(cores: usize, cluster_size: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(
            cluster_size > 0 && cluster_size <= cores && cores.is_multiple_of(cluster_size),
            "cluster size {cluster_size} must evenly partition {cores} cores"
        );
        let clusters = cores / cluster_size;
        Self {
            cluster_size,
            cluster_of: (0..cores).map(|c| (c / cluster_size) as u32).collect(),
            gateways: (0..clusters)
                .map(|k| CoreId::new(k * cluster_size))
                .collect(),
        }
    }

    /// Tiles per cluster.
    pub fn cluster_size(&self) -> usize {
        self.cluster_size
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.gateways.len()
    }

    /// The cluster containing `core`.
    #[inline]
    pub fn cluster_of(&self, core: CoreId) -> usize {
        self.cluster_of[core.index()] as usize
    }

    /// The gateway tile of `cluster` (hosts the overlay port).
    #[inline]
    pub fn gateway(&self, cluster: usize) -> CoreId {
        self.gateways[cluster]
    }

    /// The first core index of `cluster`.
    #[inline]
    pub fn base(&self, cluster: usize) -> usize {
        cluster * self.cluster_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_total_and_contiguous() {
        let map = ClusterMap::new(48, 8);
        assert_eq!(map.clusters(), 6);
        for c in 0..48 {
            let k = map.cluster_of(CoreId::new(c));
            assert_eq!(k, c / 8);
            assert!(map.base(k) <= c && c < map.base(k) + map.cluster_size());
        }
    }

    #[test]
    fn gateways_are_cluster_bases() {
        let map = ClusterMap::new(64, 16);
        for k in 0..4 {
            assert_eq!(map.gateway(k).index(), k * 16);
            assert_eq!(map.cluster_of(map.gateway(k)), k);
        }
    }

    #[test]
    fn degenerate_single_tile_clusters() {
        let map = ClusterMap::new(4, 1);
        assert_eq!(map.clusters(), 4);
        assert_ne!(
            map.cluster_of(CoreId::new(0)),
            map.cluster_of(CoreId::new(1))
        );
    }

    #[test]
    fn one_cluster_covers_the_chip() {
        let map = ClusterMap::new(16, 16);
        assert_eq!(map.clusters(), 1);
        assert_eq!(map.cluster_of(CoreId::new(15)), 0);
    }

    #[test]
    #[should_panic(expected = "evenly partition")]
    fn ragged_partition_rejected() {
        let _ = ClusterMap::new(10, 4);
    }
}
