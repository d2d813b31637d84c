//! Directed mesh links and XY path-to-link mapping.
//!
//! Every adjacent tile pair is joined by two directed links (one per
//! direction). Links are identified by dense [`LinkId`]s so per-link state
//! (arbiters, busy-until times, per-cycle claims) lives in flat vectors.

use nocstar_types::{Coord, CoreId, MeshShape};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A dense identifier for one directed mesh link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(usize);

impl LinkId {
    /// The dense index (valid for arrays sized by [`Links::count`]).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// The directed-link namespace of a mesh.
///
/// # Examples
///
/// ```
/// use nocstar_noc::topology::Links;
/// use nocstar_types::{CoreId, MeshShape};
///
/// let links = Links::new(MeshShape::new(4, 4));
/// assert_eq!(links.count(), 2 * (3 * 4 + 4 * 3)); // 48 directed links
/// let path = links.path(CoreId::new(0), CoreId::new(15));
/// assert_eq!(path.len(), 6); // 3 east + 3 south hops
/// ```
#[derive(Debug, Clone)]
pub struct Links {
    mesh: MeshShape,
}

impl Links {
    /// Builds the link namespace for a mesh.
    pub fn new(mesh: MeshShape) -> Self {
        Self { mesh }
    }

    /// The underlying mesh shape.
    pub fn mesh(&self) -> MeshShape {
        self.mesh
    }

    /// Total number of directed links.
    pub fn count(&self) -> usize {
        let (c, r) = (self.mesh.cols(), self.mesh.rows());
        2 * ((c - 1) * r + c * (r - 1))
    }

    /// The id of the directed link from `from` to the adjacent tile `to`.
    ///
    /// # Panics
    ///
    /// Panics if the tiles are not mesh neighbours.
    pub fn link_between(&self, from: Coord, to: Coord) -> LinkId {
        let (c, r) = (self.mesh.cols(), self.mesh.rows());
        let east_count = (c - 1) * r;
        let vert_count = c * (r - 1);
        assert_eq!(from.manhattan(to), 1, "{from} and {to} are not neighbours");
        let id = if to.x == from.x + 1 {
            // East: indexed by (row, west column).
            from.y * (c - 1) + from.x
        } else if from.x == to.x + 1 {
            // West.
            east_count + from.y * (c - 1) + to.x
        } else if to.y == from.y + 1 {
            // South: indexed by (north row, column).
            2 * east_count + from.y * c + from.x
        } else {
            // North.
            2 * east_count + vert_count + to.y * c + from.x
        };
        LinkId(id)
    }

    /// A shortest usable detour from `from` to `dst`: a breadth-first
    /// search over tiles that never crosses a link for which `blocked`
    /// returns true. Neighbours are explored in a fixed east, west,
    /// south, north order, so ties break deterministically — the same
    /// blocked set always yields the same detour. Returns the inclusive
    /// tile path (`from` first, `dst` last), or `None` when the blocked
    /// links disconnect the pair.
    ///
    /// This is the recovery re-router's path oracle: `blocked` is "link
    /// in outage at this cycle", and the static XY route is restored
    /// implicitly because healthy paths are themselves shortest.
    pub fn detour(
        &self,
        from: Coord,
        dst: Coord,
        blocked: impl Fn(LinkId) -> bool,
    ) -> Option<Vec<Coord>> {
        if from == dst {
            return Some(vec![from]);
        }
        let (c, r) = (self.mesh.cols(), self.mesh.rows());
        let mut parent: BTreeMap<Coord, Coord> = BTreeMap::new();
        let mut queue = VecDeque::new();
        parent.insert(from, from);
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            let mut neighbours = [None; 4];
            if cur.x + 1 < c {
                neighbours[0] = Some(Coord::new(cur.x + 1, cur.y));
            }
            if cur.x > 0 {
                neighbours[1] = Some(Coord::new(cur.x - 1, cur.y));
            }
            if cur.y + 1 < r {
                neighbours[2] = Some(Coord::new(cur.x, cur.y + 1));
            }
            if cur.y > 0 {
                neighbours[3] = Some(Coord::new(cur.x, cur.y - 1));
            }
            for next in neighbours.into_iter().flatten() {
                if parent.contains_key(&next) || blocked(self.link_between(cur, next)) {
                    continue;
                }
                parent.insert(next, cur);
                if next == dst {
                    let mut path = vec![next];
                    let mut at = cur;
                    while at != from {
                        path.push(at);
                        at = parent[&at];
                    }
                    path.push(from);
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
        None
    }

    /// The directed links along the XY route from `src` to `dst`
    /// (empty when `src == dst`).
    pub fn path(&self, src: CoreId, dst: CoreId) -> Vec<LinkId> {
        let mut path = Vec::with_capacity(self.mesh.hops(src, dst));
        let mut tiles = self.mesh.xy_path(src, dst);
        if let Some(mut from) = tiles.next() {
            for to in tiles {
                path.push(self.link_between(from, to));
                from = to;
            }
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn link_count_matches_formula() {
        let links = Links::new(MeshShape::new(8, 4));
        assert_eq!(links.count(), 2 * (7 * 4 + 8 * 3));
        let chain = Links::new(MeshShape::new(5, 1));
        assert_eq!(chain.count(), 8); // 4 east + 4 west
    }

    #[test]
    fn opposite_directions_are_distinct_links() {
        let links = Links::new(MeshShape::new(4, 4));
        let a = Coord::new(1, 1);
        let b = Coord::new(2, 1);
        assert_ne!(links.link_between(a, b), links.link_between(b, a));
    }

    #[test]
    fn local_path_is_empty() {
        let links = Links::new(MeshShape::new(4, 4));
        assert!(links.path(CoreId::new(5), CoreId::new(5)).is_empty());
    }

    #[test]
    #[should_panic(expected = "not neighbours")]
    fn non_adjacent_tiles_have_no_link() {
        let links = Links::new(MeshShape::new(4, 4));
        links.link_between(Coord::new(0, 0), Coord::new(2, 0));
    }

    #[test]
    fn detour_routes_around_a_dead_link() {
        let links = Links::new(MeshShape::new(4, 4));
        let from = Coord::new(0, 0);
        let dst = Coord::new(3, 0);
        // Healthy mesh: the detour IS the shortest (static) path.
        let clear = links.detour(from, dst, |_| false).unwrap();
        assert_eq!(clear.len(), 4);
        // Kill the first east hop: the detour drops a row and comes back,
        // exactly two hops longer, and never crosses the dead link.
        let dead = links.link_between(from, Coord::new(1, 0));
        let path = links.detour(from, dst, |l| l == dead).unwrap();
        assert_eq!(path[0], from);
        assert_eq!(path[path.len() - 1], dst);
        assert_eq!(path.len(), 6);
        for pair in path.windows(2) {
            assert_ne!(links.link_between(pair[0], pair[1]), dead);
        }
        // Deterministic: the same blocked set yields the same path.
        assert_eq!(path, links.detour(from, dst, |l| l == dead).unwrap());
    }

    #[test]
    fn detour_reports_disconnection_and_trivial_paths() {
        let links = Links::new(MeshShape::new(4, 1));
        let from = Coord::new(0, 0);
        let dst = Coord::new(3, 0);
        // A 1-row chain has no alternative: blocking any east link on the
        // route disconnects the pair.
        let dead = links.link_between(Coord::new(1, 0), Coord::new(2, 0));
        assert!(links.detour(from, dst, |l| l == dead).is_none());
        assert_eq!(links.detour(from, from, |_| true).unwrap(), vec![from]);
    }

    proptest! {
        /// Every directed link id is unique and within bounds.
        #[test]
        fn prop_link_ids_are_a_bijection(cols in 1usize..9, rows in 1usize..9) {
            prop_assume!(cols * rows > 1);
            let mesh = MeshShape::new(cols, rows);
            let links = Links::new(mesh);
            let mut seen = std::collections::HashSet::new();
            for y in 0..rows {
                for x in 0..cols {
                    let here = Coord::new(x, y);
                    let mut neighbours = Vec::new();
                    if x + 1 < cols { neighbours.push(Coord::new(x + 1, y)); }
                    if x > 0 { neighbours.push(Coord::new(x - 1, y)); }
                    if y + 1 < rows { neighbours.push(Coord::new(x, y + 1)); }
                    if y > 0 { neighbours.push(Coord::new(x, y - 1)); }
                    for n in neighbours {
                        let id = links.link_between(here, n);
                        prop_assert!(id.index() < links.count());
                        prop_assert!(seen.insert(id), "duplicate {id}");
                    }
                }
            }
            prop_assert_eq!(seen.len(), links.count());
        }

        /// Paths use exactly hops-many links and never repeat a link.
        #[test]
        fn prop_paths_have_hop_many_unique_links(
            tiles in 2usize..=64,
            a in 0usize..64,
            b in 0usize..64,
        ) {
            let mesh = MeshShape::square_for(tiles);
            let links = Links::new(mesh);
            let a = CoreId::new(a % tiles);
            let b = CoreId::new(b % tiles);
            let path = links.path(a, b);
            prop_assert_eq!(path.len(), mesh.hops(a, b));
            let unique: std::collections::HashSet<_> = path.iter().collect();
            prop_assert_eq!(unique.len(), path.len());
        }
    }
}
