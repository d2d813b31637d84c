//! Directed mesh links and XY route-to-link mapping.
//!
//! Every adjacent tile pair is joined by two directed links (one per
//! direction). Links are identified by dense [`LinkId`]s so per-link state
//! (arbiters, busy-until times, per-cycle claims) lives in flat vectors.
//! An XY route is at most two straight [`Run`]s, and a run's links are an
//! arithmetic progression of ids, so a route is computed and walked
//! without allocating.

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

/// The direction a [`Run`] heads along its row or column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dir {
    /// Along a row, towards higher x.
    #[default]
    East,
    /// Along a row, towards lower x.
    West,
    /// Along a column, towards higher y.
    South,
    /// Along a column, towards lower y.
    North,
}

/// One straight stretch of an XY route: `len` consecutive directed links
/// heading `dir` along row or column `line`, at positions
/// `first..first + len`. A link's position is the lower of its two
/// tiles' coordinates along the line (x on a row, y on a column), so a
/// row of `c` tiles has positions `0..c - 1` in each direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Run {
    /// Direction of travel.
    pub dir: Dir,
    /// The row (`East`, `West`) or column (`South`, `North`).
    pub line: u32,
    /// Lowest link position covered.
    pub first: u32,
    /// Links covered; 0 for an absent run.
    pub len: u32,
}

/// An XY route: along the source's row, then along the destination's
/// column. A run is absent, `Run::default()` with `len == 0`, when the
/// route does not move in its dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Route {
    /// The row run, then the column run.
    pub runs: [Run; 2],
}

impl Route {
    /// Links on the route.
    pub fn hops(&self) -> usize {
        (self.runs[0].len + self.runs[1].len) as usize
    }

    /// True for the empty route of a local message.
    pub fn is_empty(&self) -> bool {
        self.hops() == 0
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
/// let route = links.route(CoreId::new(0), CoreId::new(15));
/// assert_eq!(route.hops(), 6); // 3 east + 3 south hops
/// let east: Vec<_> = links.run_links(route.runs[0]).map(|l| l.index()).collect();
/// assert_eq!(east, [0, 1, 2]); // row 0's east links
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

    /// The XY route from `src` to `dst` (empty when `src == dst`): the
    /// links [`MeshShape::xy_path`] crosses, as two runs.
    pub fn route(&self, src: CoreId, dst: CoreId) -> Route {
        let (s, d) = (self.mesh.coord_of(src), self.mesh.coord_of(dst));
        let run = |dir, line: usize, from: usize, to: usize| {
            if from == to {
                return Run::default();
            }
            Run {
                dir,
                line: line as u32,
                first: from.min(to) as u32,
                len: from.abs_diff(to) as u32,
            }
        };
        let x = if d.x >= s.x { Dir::East } else { Dir::West };
        let y = if d.y >= s.y { Dir::South } else { Dir::North };
        Route {
            runs: [run(x, s.y, s.x, d.x), run(y, d.x, s.y, d.y)],
        }
    }

    /// The directed links of `run` by index arithmetic: a row's links of
    /// one direction are consecutive ids, a column's are `cols` apart.
    pub fn run_links(&self, run: Run) -> impl Iterator<Item = LinkId> {
        let (c, r) = (self.mesh.cols(), self.mesh.rows());
        let east_count = (c - 1) * r;
        let vert_count = c * (r - 1);
        let (line, first) = (run.line as usize, run.first as usize);
        let (start, stride) = match run.dir {
            Dir::East => (line * (c - 1) + first, 1),
            Dir::West => (east_count + line * (c - 1) + first, 1),
            Dir::South => (2 * east_count + first * c + line, c),
            Dir::North => (2 * east_count + vert_count + first * c + line, c),
        };
        (0..run.len as usize).map(move |k| LinkId(start + k * stride))
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
    fn local_route_is_empty() {
        let links = Links::new(MeshShape::new(4, 4));
        assert!(links.route(CoreId::new(5), CoreId::new(5)).is_empty());
    }

    /// For every tile pair, a route's links are exactly the links the
    /// tile walk of `xy_path` crosses, by `link_between`.
    #[test]
    fn routes_cover_the_xy_walk_on_every_tile_pair() {
        let shapes = [(4, 4), (5, 3), (1, 7), (7, 1), (16, 16), (32, 32), (70, 2)];
        let (mut walk, mut route) = (Vec::new(), Vec::new());
        for (cols, rows) in shapes {
            let mesh = MeshShape::new(cols, rows);
            let links = Links::new(mesh);
            for src in (0..mesh.tiles()).map(CoreId::new) {
                for dst in (0..mesh.tiles()).map(CoreId::new) {
                    walk.clear();
                    let mut tiles = mesh.xy_path(src, dst);
                    let mut from = tiles.next().expect("a path starts at its source");
                    for to in tiles {
                        walk.push(links.link_between(from, to));
                        from = to;
                    }
                    let r = links.route(src, dst);
                    route.clear();
                    route.extend(r.runs.iter().flat_map(|&run| links.run_links(run)));
                    assert_eq!(r.hops(), walk.len());
                    walk.sort_unstable();
                    route.sort_unstable();
                    assert_eq!(route, walk, "{mesh}: {src} -> {dst}");
                }
            }
        }
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
            let mut seen = std::collections::BTreeSet::new();
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

        /// Routes use exactly hops-many links and never repeat a link.
        #[test]
        fn prop_routes_have_hop_many_unique_links(
            tiles in 2usize..=64,
            a in 0usize..64,
            b in 0usize..64,
        ) {
            let mesh = MeshShape::square_for(tiles);
            let links = Links::new(mesh);
            let a = CoreId::new(a % tiles);
            let b = CoreId::new(b % tiles);
            let route = links.route(a, b);
            prop_assert_eq!(route.hops(), mesh.hops(a, b));
            let unique: std::collections::BTreeSet<_> =
                route.runs.iter().flat_map(|&run| links.run_links(run)).collect();
            prop_assert_eq!(unique.len(), route.hops());
        }
    }
}
