//! Baseline oblivious routers the paper compares against (Section 1).
//!
//! * [`DimOrder`] — deterministic dimension-order ("e-cube" / XY) routing:
//!   stretch exactly 1, but being a 1-choice algorithm it suffers
//!   `Ω(√n / d)`-type congestion on adversarial permutations (Lemma 5.1).
//! * [`RandomDimOrder`] — dimension-order with a per-packet random order:
//!   still stretch 1; `log d!` bits; congestion barely better in the worst
//!   case (only `d!` choices).
//! * [`Valiant`] — Valiant–Brebner routing through a uniform random
//!   intermediate node: near-optimal congestion for permutations but
//!   stretch `Θ(diameter/dist)` — unbounded for nearby pairs.
//! * [`AccessTree`] — the hierarchical scheme of Maggs et al. [9]: type-1
//!   decomposition only (an access *tree*). Congestion `O(C* d log n)`,
//!   but no bridges, so nearby pairs straddling a high cut climb to the
//!   root: stretch `Θ(n^{1/d}/dist)` — the pathology the paper fixes.

use crate::randbits::BitMeter;
use crate::router::{ObliviousRouter, RoutedPath};
use crate::subpath::{dim_by_dim, walk_through};
use oblivion_mesh::{Coord, Mesh, Path, Submesh};
use rand::RngCore;

/// Deterministic dimension-order routing with a fixed axis order.
#[derive(Debug, Clone)]
pub struct DimOrder {
    mesh: Mesh,
    order: Vec<usize>,
}

impl DimOrder {
    /// Creates the router with the natural axis order `0, 1, …, d-1`
    /// ("XY routing" in 2-D).
    pub fn new(mesh: Mesh) -> Self {
        let order = (0..mesh.dim()).collect();
        Self { mesh, order }
    }

    /// Creates the router with a custom fixed axis order.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..d`.
    pub fn with_order(mesh: Mesh, order: Vec<usize>) -> Self {
        let mut check = order.clone();
        check.sort_unstable();
        assert_eq!(check, (0..mesh.dim()).collect::<Vec<_>>());
        Self { mesh, order }
    }
}

impl ObliviousRouter for DimOrder {
    fn name(&self) -> String {
        "dim-order".into()
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn select_path(&self, s: &Coord, t: &Coord, _rng: &mut dyn RngCore) -> RoutedPath {
        RoutedPath {
            path: Path::new_unchecked(dim_by_dim(&self.mesh, s, t, &self.order)),
            random_bits: 0,
        }
    }
}

/// Dimension-order routing with a fresh random axis order per packet.
#[derive(Debug, Clone)]
pub struct RandomDimOrder {
    mesh: Mesh,
}

impl RandomDimOrder {
    /// Creates the router.
    pub fn new(mesh: Mesh) -> Self {
        Self { mesh }
    }
}

impl ObliviousRouter for RandomDimOrder {
    fn name(&self) -> String {
        "random-dim-order".into()
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        let mut meter = BitMeter::new(rng);
        let order = meter.dim_order(self.mesh.dim());
        RoutedPath {
            path: Path::new_unchecked(dim_by_dim(&self.mesh, s, t, &order)),
            random_bits: meter.bits_used(),
        }
    }
}

/// Valiant–Brebner two-phase randomized routing: `s → w → t` for a uniform
/// random `w`, each leg dimension-ordered under its own random axis order.
#[derive(Debug, Clone)]
pub struct Valiant {
    mesh: Mesh,
    remove_cycles: bool,
}

impl Valiant {
    /// Creates the router.
    pub fn new(mesh: Mesh) -> Self {
        Self {
            mesh,
            remove_cycles: true,
        }
    }

    /// Keeps or removes cycles (the two legs can backtrack).
    pub fn with_cycle_removal(mut self, on: bool) -> Self {
        self.remove_cycles = on;
        self
    }
}

impl ObliviousRouter for Valiant {
    fn name(&self) -> String {
        "valiant".into()
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        if s == t {
            return RoutedPath {
                path: Path::trivial(*s),
                random_bits: 0,
            };
        }
        let mut meter = BitMeter::new(rng);
        let w = meter.uniform_node(&Submesh::whole(&self.mesh));
        let orders = [
            meter.dim_order(self.mesh.dim()),
            meter.dim_order(self.mesh.dim()),
        ];
        let nodes = walk_through(&self.mesh, s, &[w, *t], &orders);
        let mut path = Path::new_unchecked(nodes);
        if self.remove_cycles {
            path.remove_cycles();
        }
        RoutedPath {
            path,
            random_bits: meter.bits_used(),
        }
    }
}

/// The access-**tree** router of Maggs et al. \[9\]: identical skeleton to
/// algorithm H but with the type-1 hierarchy only — no bridge submeshes.
///
/// This is the paper's primary point of comparison and the natural
/// ablation: disabling bridges is exactly what turns `O(d²)` stretch into
/// unbounded stretch.
#[derive(Debug, Clone)]
pub struct AccessTree {
    mesh: Mesh,
    decomp: oblivion_decomp::DecompD,
    mode: crate::chain::RandomnessMode,
    remove_cycles: bool,
}

impl AccessTree {
    /// Creates the router for the equal-side `(2^k)^d` mesh.
    pub fn new(mesh: Mesh) -> Self {
        let decomp = oblivion_decomp::DecompD::for_mesh(&mesh);
        Self {
            mesh,
            decomp,
            mode: crate::chain::RandomnessMode::default(),
            remove_cycles: true,
        }
    }

    /// Selects the randomness discipline.
    pub fn with_mode(mut self, mode: crate::chain::RandomnessMode) -> Self {
        self.mode = mode;
        self
    }

    /// The type-1-only bitonic chain: up to the least common *tree*
    /// ancestor, then down.
    pub fn chain(&self, s: &Coord, t: &Coord) -> Vec<Submesh> {
        if s == t {
            return vec![Submesh::point(*s)];
        }
        let k = self.decomp.k();
        // Tree LCA: lowest height whose type-1 block contains both.
        let mut lca_height = k;
        for height in 1..=k {
            let b = self.decomp.type1_block(k - height, s);
            if b.contains(t) {
                lca_height = height;
                break;
            }
        }
        let mut chain = Vec::with_capacity(2 * lca_height as usize + 1);
        chain.push(Submesh::point(*s));
        for height in 1..=lca_height {
            chain.push(self.decomp.type1_block(k - height, s));
        }
        for height in (1..lca_height).rev() {
            chain.push(self.decomp.type1_block(k - height, t));
        }
        chain.push(Submesh::point(*t));
        chain.dedup();
        chain
    }
}

impl ObliviousRouter for AccessTree {
    fn name(&self) -> String {
        "access-tree".into()
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        let chain = self.chain(s, t);
        let mut meter = BitMeter::new(rng);
        let mut path = crate::chain::path_through_chain(&self.mesh, &chain, self.mode, &mut meter);
        if self.remove_cycles {
            path.remove_cycles();
        }
        RoutedPath {
            path,
            random_bits: meter.bits_used(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn c(xs: &[u32]) -> Coord {
        Coord::new(xs)
    }

    #[test]
    fn dim_order_is_shortest_and_deterministic() {
        let r = DimOrder::new(Mesh::new_mesh(&[16, 16]));
        let mut rng = StdRng::seed_from_u64(31);
        let s = c(&[2, 3]);
        let t = c(&[9, 12]);
        let p1 = r.select_path(&s, &t, &mut rng);
        let p2 = r.select_path(&s, &t, &mut rng);
        assert_eq!(p1.path, p2.path);
        assert_eq!(p1.random_bits, 0);
        assert_eq!(p1.path.len() as u64, r.mesh().dist(&s, &t));
    }

    #[test]
    fn random_dim_order_is_shortest() {
        let r = RandomDimOrder::new(Mesh::new_mesh(&[8, 8, 8]));
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..50 {
            let s = c(&[1, 2, 3]);
            let t = c(&[7, 0, 5]);
            let rp = r.select_path(&s, &t, &mut rng);
            assert_eq!(rp.path.len() as u64, r.mesh().dist(&s, &t));
            assert!(rp.path.is_valid(r.mesh()));
            assert!(rp.random_bits >= 2); // log2(3!) ≈ 2.6
        }
    }

    #[test]
    fn valiant_paths_valid_and_long_for_neighbors() {
        let r = Valiant::new(Mesh::new_mesh(&[32, 32]));
        let mut rng = StdRng::seed_from_u64(33);
        let s = c(&[16, 16]);
        let t = c(&[16, 17]);
        let mut total_len = 0usize;
        let runs = 100;
        for _ in 0..runs {
            let rp = r.select_path(&s, &t, &mut rng);
            assert!(rp.path.is_valid(r.mesh()));
            assert_eq!(rp.path.source(), &s);
            assert_eq!(rp.path.target(), &t);
            total_len += rp.path.len();
        }
        // Mean detour through a uniform random point of a 32×32 mesh is
        // Θ(side); distance is 1, so mean stretch must be large.
        let mean = total_len as f64 / runs as f64;
        assert!(
            mean > 8.0,
            "Valiant mean neighbor path {mean} suspiciously short"
        );
    }

    #[test]
    fn valiant_trivial_pair() {
        let r = Valiant::new(Mesh::new_mesh(&[8, 8]));
        let mut rng = StdRng::seed_from_u64(34);
        let rp = r.select_path(&c(&[3, 3]), &c(&[3, 3]), &mut rng);
        assert!(rp.path.is_empty());
    }

    #[test]
    fn access_tree_paths_valid() {
        let r = AccessTree::new(Mesh::new_mesh(&[16, 16]));
        let mut rng = StdRng::seed_from_u64(35);
        for _ in 0..100 {
            let s = c(&[rng.gen_range(0..16), rng.gen_range(0..16)]);
            let t = c(&[rng.gen_range(0..16), rng.gen_range(0..16)]);
            let rp = r.select_path(&s, &t, &mut rng);
            assert!(rp.path.is_valid(r.mesh()));
            assert_eq!(rp.path.source(), &s);
            assert_eq!(rp.path.target(), &t);
        }
    }

    /// The tree pathology: central neighbors climb to the root, so their
    /// expected path length is Θ(side) — while the bridge router stays O(1).
    #[test]
    fn access_tree_unbounded_stretch_at_central_cut() {
        let side = 32;
        let tree = AccessTree::new(Mesh::new_mesh(&[side, side]));
        let bridge = crate::busch2d::Busch2D::new(Mesh::new_mesh(&[side, side]));
        let s = c(&[side / 2 - 1, 5]);
        let t = c(&[side / 2, 5]);
        let mut rng = StdRng::seed_from_u64(36);
        let runs = 200;
        let mut tree_len = 0usize;
        let mut bridge_len = 0usize;
        for _ in 0..runs {
            tree_len += tree.select_path(&s, &t, &mut rng).path.len();
            bridge_len += bridge.select_path(&s, &t, &mut rng).path.len();
        }
        let tree_mean = tree_len as f64 / runs as f64;
        let bridge_mean = bridge_len as f64 / runs as f64;
        assert!(
            tree_mean > 4.0 * bridge_mean,
            "tree {tree_mean} vs bridge {bridge_mean}: bridges should win decisively"
        );
    }

    #[test]
    fn access_tree_chain_is_type1_nested() {
        let r = AccessTree::new(Mesh::new_mesh(&[16, 16]));
        let chain = r.chain(&c(&[7, 7]), &c(&[8, 8]));
        for w in chain.windows(2) {
            assert!(w[0].contains_submesh(&w[1]) || w[1].contains_submesh(&w[0]));
        }
        // Central pair → LCA is the root.
        assert!(chain.iter().any(|b| b.node_count() == 256));
    }

    #[test]
    #[should_panic]
    fn dim_order_rejects_bad_order() {
        let _ = DimOrder::with_order(Mesh::new_mesh(&[4, 4]), vec![0, 0]);
    }
}
