//! Packet paths: walks through the mesh.

use crate::coord::{Coord, MAX_DIM};
use crate::mesh::{EdgeId, Mesh};
use std::cell::RefCell;

/// A walk through the mesh: a sequence of pairwise-adjacent coordinates.
///
/// The length of a path `|p|` is the number of links it uses
/// (`nodes.len() - 1`); a single-node path has length 0 (Section 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    nodes: Vec<Coord>,
}

impl Path {
    /// Creates a path from a node sequence, validating adjacency.
    ///
    /// # Panics
    /// Panics if the sequence is empty or two consecutive nodes are not
    /// adjacent in `mesh`.
    pub fn new(mesh: &Mesh, nodes: Vec<Coord>) -> Self {
        assert!(!nodes.is_empty(), "a path must contain at least one node");
        for w in nodes.windows(2) {
            assert!(
                mesh.adjacent(&w[0], &w[1]),
                "non-adjacent consecutive path nodes {:?} and {:?}",
                w[0],
                w[1]
            );
        }
        Self { nodes }
    }

    /// Creates a path without validating adjacency.
    ///
    /// Intended for construction sites that guarantee adjacency by
    /// construction (the routers); validity is still enforced in tests.
    pub fn new_unchecked(nodes: Vec<Coord>) -> Self {
        debug_assert!(!nodes.is_empty());
        Self { nodes }
    }

    /// The trivial path sitting at one node.
    pub fn trivial(c: Coord) -> Self {
        Self { nodes: vec![c] }
    }

    /// First node (the packet source).
    #[inline]
    pub fn source(&self) -> &Coord {
        self.nodes.first().unwrap()
    }

    /// Last node (the packet destination).
    #[inline]
    pub fn target(&self) -> &Coord {
        self.nodes.last().unwrap()
    }

    /// Number of links used, `|p|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// True if the path uses no links (source equals destination).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node sequence.
    #[inline]
    pub fn nodes(&self) -> &[Coord] {
        &self.nodes
    }

    /// Iterator over the links used, as `(from, to)` coordinate pairs.
    pub fn hops(&self) -> impl Iterator<Item = (&Coord, &Coord)> {
        self.nodes.windows(2).map(|w| (&w[0], &w[1]))
    }

    /// Iterator over the undirected edge ids used.
    pub fn edge_ids<'a>(&'a self, mesh: &'a Mesh) -> impl Iterator<Item = EdgeId> + 'a {
        self.hops().map(move |(a, b)| mesh.edge_id(a, b))
    }

    /// True if every consecutive pair is adjacent in `mesh`.
    pub fn is_valid(&self, mesh: &Mesh) -> bool {
        self.nodes.windows(2).all(|w| mesh.adjacent(&w[0], &w[1]))
    }

    /// The stretch of the path: `|p| / dist(s, t)` (Section 2).
    ///
    /// Returns 1.0 for a trivial (`s == t`) path, matching the convention
    /// that the smallest stretch factor is 1.
    pub fn stretch(&self, mesh: &Mesh) -> f64 {
        let d = mesh.dist(self.source(), self.target());
        if d == 0 {
            return 1.0;
        }
        self.len() as f64 / d as f64
    }

    /// Removes all cycles, producing a simple (acyclic) walk with the same
    /// endpoints that uses a subsequence of the original links.
    ///
    /// The paper observes (after Lemma 3.8) that cycles can always be
    /// removed without increasing expected congestion. Semantics: scan
    /// left to right; on revisiting a node, cut the loop back to its first
    /// occurrence. The result visits each node at most once.
    ///
    /// Mechanism: the walk is compacted in place behind a write cursor
    /// `w`, so `nodes[..w]` is always the simple prefix kept so far. Each
    /// node maps to a slot of the walk's own bounding box (for a valid
    /// walk never larger than the mesh), and the slot remembers the
    /// node's position in the prefix. A slot is trusted only if
    /// `pos < w && nodes[pos] == c` — the sparse-set check — so stale
    /// slots left by cut-off loops or earlier calls are harmless: the
    /// table is never cleared and nothing is hashed or deleted. The table
    /// is a per-thread `Vec<u32>` reused across calls (tables above 2^18
    /// entries live for one call only). Finally the node vector is
    /// trimmed to its exact length, since callers such as the simulators
    /// keep every path alive for a whole run.
    pub fn remove_cycles(&mut self) {
        let n = self.nodes.len();
        if n > 2 {
            assert!(u32::try_from(n).is_ok(), "walk of {n} nodes is too long");
            let index = BoxIndex::of(&self.nodes);
            let nodes = &mut self.nodes;
            let w = SLOTS.with(|cached| {
                let mut cached = cached.borrow_mut();
                if index.volume <= CACHED_SLOTS {
                    if cached.len() < index.volume {
                        cached.resize(index.volume, 0);
                    }
                    compact(nodes, &index, &mut cached)
                } else {
                    compact(nodes, &index, &mut vec![0; index.volume])
                }
            });
            self.nodes.truncate(w);
        }
        self.nodes.shrink_to_fit();
    }

    /// Returns a cycle-free copy (see [`Self::remove_cycles`]).
    pub fn without_cycles(&self) -> Path {
        let mut p = self.clone();
        p.remove_cycles();
        p
    }

    /// Appends another path starting where this one ends.
    ///
    /// # Panics
    /// Panics if `other` does not start at `self.target()`.
    pub fn extend_with(&mut self, other: &Path) {
        assert_eq!(
            self.target(),
            other.source(),
            "path concatenation endpoints mismatch"
        );
        self.nodes.extend_from_slice(&other.nodes[1..]);
    }

    /// True if no node repeats.
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.nodes.len());
        self.nodes.iter().all(|c| seen.insert(*c))
    }
}

/// Slot tables up to this many entries (1 MiB) stay cached on their
/// thread between [`Path::remove_cycles`] calls.
const CACHED_SLOTS: usize = 1 << 18;

thread_local! {
    /// The reusable slot table of [`Path::remove_cycles`]. Per thread, not
    /// per router: routers are `Sync` and cheap to build, and a walk's
    /// bounding box bounds the table without knowing its mesh.
    static SLOTS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Row-major slot numbering of a walk's bounding box.
struct BoxIndex {
    lo: Coord,
    strides: [usize; MAX_DIM],
    volume: usize,
}

impl BoxIndex {
    fn of(nodes: &[Coord]) -> Self {
        let (mut lo, mut hi) = (nodes[0], nodes[0]);
        let d = lo.dim();
        for c in &nodes[1..] {
            for i in 0..d {
                lo[i] = lo[i].min(c[i]);
                hi[i] = hi[i].max(c[i]);
            }
        }
        let mut strides = [0; MAX_DIM];
        let mut volume = 1usize;
        for i in 0..d {
            strides[i] = volume;
            volume = volume
                .checked_mul((hi[i] - lo[i]) as usize + 1)
                .expect("walk's bounding box overflows usize");
        }
        Self {
            lo,
            strides,
            volume,
        }
    }

    #[inline]
    fn slot(&self, c: &Coord) -> usize {
        let mut k = 0;
        for i in 0..c.dim() {
            k += (c[i] - self.lo[i]) as usize * self.strides[i];
        }
        k
    }
}

/// Cuts every loop out of `nodes` in place (see [`Path::remove_cycles`])
/// and returns the kept length.
fn compact(nodes: &mut [Coord], index: &BoxIndex, slots: &mut [u32]) -> usize {
    let mut w = 0;
    for r in 0..nodes.len() {
        let c = nodes[r];
        let k = index.slot(&c);
        let pos = slots[k] as usize;
        if pos < w && nodes[pos] == c {
            w = pos + 1;
        } else {
            slots[k] = w as u32;
            nodes[w] = c;
            w += 1;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh;

    fn c(xs: &[u32]) -> Coord {
        Coord::new(xs)
    }

    #[test]
    fn construction_and_len() {
        let m = Mesh::new_mesh(&[4, 4]);
        let p = Path::new(&m, vec![c(&[0, 0]), c(&[0, 1]), c(&[1, 1])]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(), &c(&[0, 0]));
        assert_eq!(p.target(), &c(&[1, 1]));
        assert!(p.is_valid(&m));
    }

    #[test]
    #[should_panic]
    fn invalid_hop_panics() {
        let m = Mesh::new_mesh(&[4, 4]);
        let _ = Path::new(&m, vec![c(&[0, 0]), c(&[2, 0])]);
    }

    #[test]
    fn trivial_path() {
        let m = Mesh::new_mesh(&[4, 4]);
        let p = Path::trivial(c(&[2, 2]));
        assert!(p.is_empty());
        assert_eq!(p.stretch(&m), 1.0);
    }

    #[test]
    fn stretch_of_shortest_path_is_one() {
        let m = Mesh::new_mesh(&[4, 4]);
        let p = Path::new(&m, vec![c(&[0, 0]), c(&[0, 1]), c(&[0, 2])]);
        assert_eq!(p.stretch(&m), 1.0);
    }

    #[test]
    fn stretch_detour() {
        let m = Mesh::new_mesh(&[4, 4]);
        let p = Path::new(&m, vec![c(&[0, 0]), c(&[1, 0]), c(&[1, 1]), c(&[0, 1])]);
        assert_eq!(p.stretch(&m), 3.0);
    }

    #[test]
    fn remove_cycles_simple_loop() {
        let m = Mesh::new_mesh(&[4, 4]);
        // 00 -> 01 -> 11 -> 10 -> 00 -> 01... back to start then onward
        let mut p = Path::new(
            &m,
            vec![
                c(&[0, 0]),
                c(&[0, 1]),
                c(&[1, 1]),
                c(&[1, 0]),
                c(&[0, 0]),
                c(&[0, 1]),
                c(&[0, 2]),
            ],
        );
        p.remove_cycles();
        assert_eq!(p.nodes(), &[c(&[0, 0]), c(&[0, 1]), c(&[0, 2])]);
        assert!(p.is_simple());
        assert!(p.is_valid(&m));
    }

    #[test]
    fn remove_cycles_immediate_backtrack() {
        let m = Mesh::new_mesh(&[4, 4]);
        let mut p = Path::new(&m, vec![c(&[0, 0]), c(&[0, 1]), c(&[0, 0]), c(&[1, 0])]);
        p.remove_cycles();
        assert_eq!(p.nodes(), &[c(&[0, 0]), c(&[1, 0])]);
    }

    #[test]
    fn remove_cycles_idempotent() {
        let m = Mesh::new_mesh(&[4, 4]);
        let mut p = Path::new(
            &m,
            vec![
                c(&[0, 0]),
                c(&[0, 1]),
                c(&[1, 1]),
                c(&[1, 0]),
                c(&[0, 0]),
                c(&[0, 1]),
            ],
        );
        p.remove_cycles();
        let once = p.clone();
        p.remove_cycles();
        assert_eq!(p, once);
        assert_eq!(p.nodes(), &[c(&[0, 0]), c(&[0, 1])]);
    }

    #[test]
    fn remove_cycles_preserves_endpoints() {
        let m = Mesh::new_mesh(&[4, 4]);
        let mut p = Path::new(
            &m,
            vec![
                c(&[2, 2]),
                c(&[2, 3]),
                c(&[3, 3]),
                c(&[3, 2]),
                c(&[2, 2]),
                c(&[1, 2]),
            ],
        );
        let (s, t) = (*p.source(), *p.target());
        p.remove_cycles();
        assert_eq!((*p.source(), *p.target()), (s, t));
    }

    #[test]
    fn remove_cycles_trims_to_exact_length() {
        let m = Mesh::new_mesh(&[4, 4]);
        let mut nodes = Vec::with_capacity(64);
        nodes.extend([c(&[0, 0]), c(&[0, 1]), c(&[1, 1]), c(&[0, 1]), c(&[0, 2])]);
        let mut p = Path::new(&m, nodes);
        p.remove_cycles();
        assert_eq!(p.nodes(), &[c(&[0, 0]), c(&[0, 1]), c(&[0, 2])]);
        assert_eq!(p.nodes.capacity(), p.nodes.len());
    }

    #[test]
    fn remove_cycles_ignores_stale_slots() {
        // The first walk leaves slots pointing at positions the second
        // walk fills with other nodes; only the sparse-set check keeps
        // them from reading as revisits.
        let m = Mesh::new_mesh(&[4, 4]);
        let mut a = Path::new(&m, vec![c(&[1, 1]), c(&[1, 2]), c(&[2, 2]), c(&[2, 1])]);
        a.remove_cycles();
        let walk = vec![c(&[2, 1]), c(&[2, 2]), c(&[1, 2]), c(&[1, 1]), c(&[1, 0])];
        let mut b = Path::new(&m, walk.clone());
        b.remove_cycles();
        assert_eq!(b.nodes(), &walk[..]);
    }

    #[test]
    fn extend_with_concatenates() {
        let m = Mesh::new_mesh(&[4, 4]);
        let mut p = Path::new(&m, vec![c(&[0, 0]), c(&[0, 1])]);
        let q = Path::new(&m, vec![c(&[0, 1]), c(&[1, 1])]);
        p.extend_with(&q);
        assert_eq!(p.len(), 2);
        assert_eq!(p.target(), &c(&[1, 1]));
    }

    #[test]
    #[should_panic]
    fn extend_with_mismatch_panics() {
        let m = Mesh::new_mesh(&[4, 4]);
        let mut p = Path::new(&m, vec![c(&[0, 0]), c(&[0, 1])]);
        let q = Path::new(&m, vec![c(&[1, 1]), c(&[1, 0])]);
        p.extend_with(&q);
    }

    #[test]
    fn edge_ids_count() {
        let m = Mesh::new_mesh(&[4, 4]);
        let p = Path::new(&m, vec![c(&[0, 0]), c(&[0, 1]), c(&[1, 1])]);
        assert_eq!(p.edge_ids(&m).count(), 2);
    }
}
