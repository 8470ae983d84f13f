//! Node identity: linear node IDs, 3-D mesh coordinates, and routing words.
//!
//! The distinction between a *linear node index* (what application code
//! iterates over) and a *router address* (absolute x/y/z coordinates packed
//! into a [`RouteWord`]) is architecturally significant: the paper's Figure 6
//! shows a visible "NNR Calc" slice of application time spent converting
//! linear indices to router addresses in software, and §5 calls out the lack
//! of automatic node-name translation as a weakness.

use crate::tag::Tag;
use crate::word::Word;
use std::fmt;

/// A linear node index in `0..machine_size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The linear index as a `usize` for table indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> NodeId {
        NodeId(value)
    }
}

/// Absolute coordinates of a node in the 3-D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Coord {
    /// X coordinate (dimension routed first by e-cube).
    pub x: u8,
    /// Y coordinate (routed second).
    pub y: u8,
    /// Z coordinate (routed last).
    pub z: u8,
}

impl Coord {
    /// Creates a coordinate triple.
    pub fn new(x: u8, y: u8, z: u8) -> Coord {
        Coord { x, y, z }
    }

    /// Manhattan distance to `other` — the hop count of the e-cube route.
    pub fn hops_to(self, other: Coord) -> u32 {
        let d = |a: u8, b: u8| (i32::from(a) - i32::from(b)).unsigned_abs();
        d(self.x, other.x) + d(self.y, other.y) + d(self.z, other.z)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.z)
    }
}

/// The dimensions of a 3-D mesh machine.
///
/// The 512-node prototype evaluated in the paper is an 8×8×8 mesh; the
/// planned 1024-node machine is 8×8×16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshDims {
    /// Extent in X.
    pub x: u8,
    /// Extent in Y.
    pub y: u8,
    /// Extent in Z.
    pub z: u8,
}

/// Mesh extents rejected by [`MeshDims::try_new`]: some dimension is zero
/// or exceeds 31 (the routing word packs 5 bits per coordinate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshDimsError {
    /// The rejected extents, in x, y, z order.
    pub extents: [u8; 3],
}

impl fmt::Display for MeshDimsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [x, y, z] = self.extents;
        write!(f, "mesh dimensions must be in 1..=31: {x}x{y}x{z}")
    }
}

impl std::error::Error for MeshDimsError {}

impl MeshDims {
    /// Creates mesh dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or exceeds 31; [`Self::try_new`] is
    /// the checked form for extents that come from outside the program.
    pub fn new(x: u8, y: u8, z: u8) -> MeshDims {
        MeshDims::try_new(x, y, z).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates mesh dimensions from untrusted extents (a log header, a
    /// command line, a hand-built struct).
    ///
    /// # Errors
    ///
    /// [`MeshDimsError`] if any dimension is zero or exceeds 31.
    pub fn try_new(x: u8, y: u8, z: u8) -> Result<MeshDims, MeshDimsError> {
        if [x, y, z].iter().all(|d| (1..=31).contains(d)) {
            Ok(MeshDims { x, y, z })
        } else {
            Err(MeshDimsError { extents: [x, y, z] })
        }
    }

    /// The 8×8×8 mesh of the paper's 512-node prototype.
    pub fn prototype_512() -> MeshDims {
        MeshDims::new(8, 8, 8)
    }

    /// Chooses near-cubic dimensions for a machine of `nodes` nodes.
    ///
    /// Matches the sizes used in the paper's scaling studies: powers of two
    /// from 1 to 1024 map to meshes like 2×1×1, 2×2×1, …, 8×8×8, 8×8×16.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or not expressible as x·y·z with each factor
    /// ≤ 31 (all powers of two up to 16384 are accepted).
    pub fn for_nodes(nodes: u32) -> MeshDims {
        assert!(nodes > 0, "machine must have at least one node");
        // Distribute factors of the node count across the three dimensions,
        // largest dimension last so 512 -> 8x8x8 and 2 -> 2x1x1.
        let mut dims = [1u32; 3];
        let mut remaining = nodes;
        let mut which = 0;
        let mut factor = 2;
        while remaining > 1 {
            while !remaining.is_multiple_of(factor) {
                factor += 1;
            }
            dims[which % 3] *= factor;
            remaining /= factor;
            which += 1;
        }
        dims.sort_unstable();
        assert!(
            dims.iter().all(|&d| d <= 31),
            "cannot express {nodes} nodes as a mesh with dimensions <= 31"
        );
        MeshDims::new(dims[0] as u8, dims[1] as u8, dims[2] as u8)
    }

    /// Total number of nodes.
    #[inline]
    pub fn nodes(self) -> u32 {
        u32::from(self.x) * u32::from(self.y) * u32::from(self.z)
    }

    /// Converts a linear node index to mesh coordinates (x fastest).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn coord(self, id: NodeId) -> Coord {
        assert!(id.0 < self.nodes(), "node id {id} out of range");
        let x = id.0 % u32::from(self.x);
        let y = (id.0 / u32::from(self.x)) % u32::from(self.y);
        let z = id.0 / (u32::from(self.x) * u32::from(self.y));
        Coord::new(x as u8, y as u8, z as u8)
    }

    /// Converts mesh coordinates to the linear node index.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    #[inline]
    pub fn id(self, c: Coord) -> NodeId {
        assert!(
            c.x < self.x && c.y < self.y && c.z < self.z,
            "coordinate {c} outside {self:?}"
        );
        NodeId(
            u32::from(c.x)
                + u32::from(c.y) * u32::from(self.x)
                + u32::from(c.z) * u32::from(self.x) * u32::from(self.y),
        )
    }

    /// Iterates over all node IDs in the machine.
    pub fn iter_nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes()).map(NodeId)
    }
}

impl fmt::Display for MeshDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.x, self.y, self.z)
    }
}

/// A network routing word: the `route`-tagged first word injected by a send
/// sequence. It carries the absolute destination coordinates and is consumed
/// by the network (stripped before delivery).
///
/// Packing: `x` in bits 0..5, `y` in bits 5..10, `z` in bits 10..15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteWord {
    /// Destination coordinates.
    pub dest: Coord,
}

impl RouteWord {
    /// Creates a routing word for a destination coordinate.
    pub fn new(dest: Coord) -> RouteWord {
        assert!(
            dest.x < 32 && dest.y < 32 && dest.z < 32,
            "coordinates must fit 5 bits: {dest}"
        );
        RouteWord { dest }
    }

    /// Packs into a `route`-tagged word.
    #[inline]
    pub fn to_word(self) -> Word {
        let bits =
            u32::from(self.dest.x) | (u32::from(self.dest.y) << 5) | (u32::from(self.dest.z) << 10);
        Word::new(Tag::Route, bits)
    }

    /// Unpacks from a word's payload.
    #[inline]
    pub fn from_word(word: Word) -> RouteWord {
        let bits = word.bits();
        RouteWord {
            dest: Coord::new(
                (bits & 0x1f) as u8,
                ((bits >> 5) & 0x1f) as u8,
                ((bits >> 10) & 0x1f) as u8,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_round_trip_512() {
        let dims = MeshDims::prototype_512();
        assert_eq!(dims.nodes(), 512);
        for id in dims.iter_nodes() {
            assert_eq!(dims.id(dims.coord(id)), id);
        }
    }

    #[test]
    fn for_nodes_produces_expected_shapes() {
        assert_eq!(MeshDims::for_nodes(1), MeshDims::new(1, 1, 1));
        assert_eq!(MeshDims::for_nodes(2), MeshDims::new(1, 1, 2));
        assert_eq!(MeshDims::for_nodes(8), MeshDims::new(2, 2, 2));
        assert_eq!(MeshDims::for_nodes(64), MeshDims::new(4, 4, 4));
        assert_eq!(MeshDims::for_nodes(128), MeshDims::new(4, 4, 8));
        assert_eq!(MeshDims::for_nodes(512), MeshDims::new(8, 8, 8));
        assert_eq!(MeshDims::for_nodes(1024), MeshDims::new(8, 8, 16));
    }

    #[test]
    fn hops_corner_to_corner_is_21() {
        // The paper: a corner node reads from the opposite corner of the
        // 8x8x8 machine across 21 hops.
        let a = Coord::new(0, 0, 0);
        let b = Coord::new(7, 7, 7);
        assert_eq!(a.hops_to(b), 21);
        assert_eq!(b.hops_to(a), 21);
        assert_eq!(a.hops_to(a), 0);
    }

    #[test]
    fn route_word_round_trip() {
        for c in [
            Coord::new(0, 0, 0),
            Coord::new(7, 7, 7),
            Coord::new(31, 0, 31),
            Coord::new(3, 17, 9),
        ] {
            let rw = RouteWord::new(c);
            let w = rw.to_word();
            assert_eq!(w.tag(), Tag::Route);
            assert_eq!(RouteWord::from_word(w), rw);
        }
    }

    #[test]
    fn try_new_rejects_zero_and_oversized_extents() {
        assert_eq!(MeshDims::try_new(1, 31, 8), Ok(MeshDims::new(1, 31, 8)));
        for (x, y, z) in [(0, 4, 4), (4, 0, 4), (4, 4, 0), (32, 1, 1), (1, 1, 255)] {
            let err = MeshDims::try_new(x, y, z).unwrap_err();
            assert_eq!(err.extents, [x, y, z]);
            assert!(err.to_string().contains("1..=31"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_rejects_out_of_range_id() {
        let _ = MeshDims::new(2, 2, 2).coord(NodeId(8));
    }
}
