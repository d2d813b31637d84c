//! 2-D mesh tile geometry and XY-routing hop math.
//!
//! Every core (and, in the distributed organizations, its co-located TLB
//! slice) occupies one tile of a `cols x rows` mesh. Tiles are numbered
//! row-major, so tile ids map directly to [`crate::ids::CoreId`] indices.

use crate::ids::CoreId;
use std::fmt;

/// A tile coordinate on the mesh: `x` is the column, `y` the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Coord {
    /// Column index (0 = west edge).
    pub x: usize,
    /// Row index (0 = north edge).
    pub y: usize,
}

impl Coord {
    /// Builds a coordinate from column and row.
    #[inline]
    pub const fn new(x: usize, y: usize) -> Self {
        Self { x, y }
    }

    /// Manhattan distance to `other` — the XY-routed hop count.
    #[inline]
    pub fn manhattan(self, other: Coord) -> usize {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// The shape of the on-chip mesh: `cols x rows` tiles, numbered row-major.
///
/// # Examples
///
/// ```
/// use nocstar_types::geometry::MeshShape;
/// use nocstar_types::ids::CoreId;
///
/// let mesh = MeshShape::square_for(32); // 8x4
/// assert_eq!((mesh.cols(), mesh.rows()), (8, 4));
/// let far = mesh.hops(CoreId::new(0), CoreId::new(31));
/// assert_eq!(far, 7 + 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshShape {
    cols: usize,
    rows: usize,
}

impl MeshShape {
    /// Builds a mesh with explicit dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be nonzero");
        Self { cols, rows }
    }

    /// Builds the most-square mesh holding exactly `tiles` tiles, preferring
    /// wider-than-tall (cols >= rows), matching common tiled-CMP floorplans.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn square_for(tiles: usize) -> Self {
        assert!(tiles > 0, "mesh must have at least one tile");
        let mut rows = (tiles as f64).sqrt() as usize;
        while rows > 1 && !tiles.is_multiple_of(rows) {
            rows -= 1;
        }
        Self::new(tiles / rows, rows)
    }

    /// Number of columns.
    #[inline]
    pub const fn cols(self) -> usize {
        self.cols
    }

    /// Number of rows.
    #[inline]
    pub const fn rows(self) -> usize {
        self.rows
    }

    /// Total tile count.
    #[inline]
    pub const fn tiles(self) -> usize {
        self.cols * self.rows
    }

    /// The coordinate of a tile id (row-major numbering).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn coord_of(self, core: CoreId) -> Coord {
        let i = core.index();
        assert!(i < self.tiles(), "tile {i} out of range for {self}");
        Coord::new(i % self.cols, i / self.cols)
    }

    /// The tile id at a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    #[inline]
    pub fn id_at(self, coord: Coord) -> CoreId {
        assert!(
            coord.x < self.cols && coord.y < self.rows,
            "coord {coord} outside {self}"
        );
        CoreId::new(coord.y * self.cols + coord.x)
    }

    /// XY-routed hop count between two tiles.
    #[inline]
    pub fn hops(self, from: CoreId, to: CoreId) -> usize {
        self.coord_of(from).manhattan(self.coord_of(to))
    }

    /// The tiles visited by dimension-ordered XY routing, from `from` to
    /// `to` inclusive of both endpoints: first along X, then along Y.
    ///
    /// ```
    /// use nocstar_types::geometry::{Coord, MeshShape};
    /// use nocstar_types::ids::CoreId;
    /// let mesh = MeshShape::new(4, 4);
    /// let path: Vec<Coord> = mesh.xy_path(CoreId::new(0), CoreId::new(9)).collect();
    /// assert_eq!(path, vec![
    ///     Coord::new(0, 0), Coord::new(1, 0), Coord::new(1, 1), Coord::new(1, 2),
    /// ]);
    /// ```
    pub fn xy_path(self, from: CoreId, to: CoreId) -> XyPath {
        XyPath {
            current: Some(self.coord_of(from)),
            dest: self.coord_of(to),
        }
    }
}

impl fmt::Display for MeshShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} mesh", self.cols, self.rows)
    }
}

/// Iterator of tiles along a dimension-ordered XY route.
/// Produced by [`MeshShape::xy_path`].
#[derive(Debug, Clone)]
pub struct XyPath {
    current: Option<Coord>,
    dest: Coord,
}

impl Iterator for XyPath {
    type Item = Coord;

    fn next(&mut self) -> Option<Coord> {
        let here = self.current?;
        self.current = if here == self.dest {
            None
        } else if here.x != self.dest.x {
            let step = if self.dest.x > here.x { 1 } else { -1 };
            Some(Coord::new((here.x as isize + step) as usize, here.y))
        } else {
            let step = if self.dest.y > here.y { 1 } else { -1 };
            Some(Coord::new(here.x, (here.y as isize + step) as usize))
        };
        Some(here)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn square_for_prefers_square_factorizations() {
        assert_eq!(MeshShape::square_for(16), MeshShape::new(4, 4));
        assert_eq!(MeshShape::square_for(32), MeshShape::new(8, 4));
        assert_eq!(MeshShape::square_for(64), MeshShape::new(8, 8));
        assert_eq!(MeshShape::square_for(512), MeshShape::new(32, 16));
        // Primes degrade to a 1-row chain rather than panicking.
        assert_eq!(MeshShape::square_for(7), MeshShape::new(7, 1));
    }

    #[test]
    fn coord_id_round_trip() {
        let mesh = MeshShape::new(5, 3);
        for i in 0..mesh.tiles() {
            let id = CoreId::new(i);
            assert_eq!(mesh.id_at(mesh.coord_of(id)), id);
        }
    }

    #[test]
    fn xy_path_goes_x_first_then_y() {
        let mesh = MeshShape::new(4, 4);
        let path: Vec<Coord> = mesh.xy_path(CoreId::new(3), CoreId::new(12)).collect();
        // From (3,0) to (0,3): X decreases to 0, then Y increases to 3.
        assert_eq!(path.first(), Some(&Coord::new(3, 0)));
        assert_eq!(path.last(), Some(&Coord::new(0, 3)));
        assert_eq!(path.len(), 7); // 6 hops => 7 tiles
        let x_done = path.iter().position(|c| c.x == 0).unwrap();
        assert!(path[x_done..].iter().all(|c| c.x == 0));
    }

    #[test]
    fn self_path_is_single_tile() {
        let mesh = MeshShape::new(4, 4);
        let path: Vec<Coord> = mesh.xy_path(CoreId::new(5), CoreId::new(5)).collect();
        assert_eq!(path, vec![Coord::new(1, 1)]);
        assert_eq!(mesh.hops(CoreId::new(5), CoreId::new(5)), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_tile_panics() {
        MeshShape::new(2, 2).coord_of(CoreId::new(4));
    }

    proptest! {
        #[test]
        fn prop_path_length_matches_hops(
            tiles in 1usize..=64,
            a in 0usize..64,
            b in 0usize..64,
        ) {
            let mesh = MeshShape::square_for(tiles);
            let a = CoreId::new(a % tiles);
            let b = CoreId::new(b % tiles);
            let path: Vec<Coord> = mesh.xy_path(a, b).collect();
            prop_assert_eq!(path.len(), mesh.hops(a, b) + 1);
            // Consecutive tiles are mesh neighbours.
            for w in path.windows(2) {
                prop_assert_eq!(w[0].manhattan(w[1]), 1);
            }
            prop_assert_eq!(path[0], mesh.coord_of(a));
            prop_assert_eq!(*path.last().unwrap(), mesh.coord_of(b));
        }

        #[test]
        fn prop_hops_symmetric_and_bounded(
            tiles in 1usize..=128,
            a in 0usize..128,
            b in 0usize..128,
        ) {
            let mesh = MeshShape::square_for(tiles);
            let a = CoreId::new(a % tiles);
            let b = CoreId::new(b % tiles);
            prop_assert_eq!(mesh.hops(a, b), mesh.hops(b, a));
            // No route is longer than corner to corner.
            prop_assert!(mesh.hops(a, b) <= (mesh.cols - 1) + (mesh.rows - 1));
        }
    }
}
