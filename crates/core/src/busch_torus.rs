//! Algorithm H on the torus — the paper's proof model, implemented exactly.
//!
//! On the `(2^k)^d` torus the shifted families tile perfectly: every
//! bridge is a full cube (no clipping), Lemma 4.1's side bound is exact,
//! and the bit-recycled sampler never needs a fallback (every block side
//! is a power of two). Wrap-around links also remove the mesh's border
//! pathologies — the pair `(0, …)` / `(2^k−1, …)` is adjacent and gets an
//! `O(d)`-side bridge like any other neighbor pair.

use crate::randbits::{BitMeter, DonorNode};
use crate::router::{ObliviousRouter, RoutedPath};
use crate::subpath::walk_through;
use crate::RandomnessMode;
use oblivion_decomp::{TorusBlock, TorusDecomp};
use oblivion_mesh::{Coord, Mesh, Path};
use rand::RngCore;

/// Algorithm H on the equal-side power-of-two torus.
#[derive(Debug, Clone)]
pub struct BuschTorus {
    mesh: Mesh,
    decomp: TorusDecomp,
    mode: RandomnessMode,
    remove_cycles: bool,
}

impl BuschTorus {
    /// Creates the router for the `(2^k)^d` torus.
    ///
    /// # Panics
    /// Panics unless the mesh is a torus with equal power-of-two sides.
    pub fn new(mesh: Mesh) -> Self {
        let decomp = TorusDecomp::for_mesh(&mesh);
        Self {
            mesh,
            decomp,
            mode: RandomnessMode::default(),
            remove_cycles: true,
        }
    }

    /// Selects the randomness discipline (default: bit-recycled).
    pub fn with_mode(mut self, mode: RandomnessMode) -> Self {
        self.mode = mode;
        self
    }

    /// The decomposition in use.
    pub fn decomp(&self) -> &TorusDecomp {
        &self.decomp
    }

    /// The block chain for `(s, t)`: `{s}`, type-1 blocks up to height
    /// `ĥ`, the bridge, mirrored blocks down to `{t}`.
    pub fn chain(&self, s: &Coord, t: &Coord) -> Vec<TorusBlock> {
        let side = self.decomp.side();
        if s == t {
            return vec![TorusBlock::new(*s, 1, side)];
        }
        let k = self.decomp.k();
        let plan = self.decomp.find_bridge(&self.mesh, s, t);
        let mut chain = Vec::with_capacity(2 * plan.h_hat as usize + 3);
        chain.push(TorusBlock::new(*s, 1, side));
        for height in 1..=plan.h_hat {
            chain.push(self.decomp.type1_block(k - height, s));
        }
        chain.push(plan.bridge);
        for height in (1..=plan.h_hat).rev() {
            chain.push(self.decomp.type1_block(k - height, t));
        }
        chain.push(TorusBlock::new(*t, 1, side));
        chain.dedup();
        chain
    }

    /// Samples a uniform node of a block using donor bits (every torus
    /// block has a power-of-two side, so this is always exact).
    fn donor_node(&self, block: &TorusBlock, donor: &DonorNode) -> Coord {
        let bits = block.side().trailing_zeros();
        let offsets: Vec<u32> = (0..self.mesh.dim())
            .map(|i| donor.low_bits(i, bits))
            .collect();
        block.node_at_offset(&offsets)
    }

    fn fresh_node(&self, block: &TorusBlock, meter: &mut BitMeter<'_>) -> Coord {
        let offsets: Vec<u32> = (0..self.mesh.dim())
            .map(|_| meter.below(u64::from(block.side())) as u32)
            .collect();
        block.node_at_offset(&offsets)
    }
}

impl ObliviousRouter for BuschTorus {
    fn name(&self) -> String {
        format!("busch-torus-d{}/{:?}", self.decomp.d(), self.mode).to_lowercase()
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
        let chain = self.chain(s, t);
        let d = self.mesh.dim();
        let mut meter = BitMeter::new(rng);
        let mut stops: Vec<Coord> = Vec::with_capacity(chain.len() - 1);
        let mut orders: Vec<Vec<usize>> = Vec::new();
        match self.mode {
            RandomnessMode::Fresh => {
                for (i, block) in chain.iter().enumerate().skip(1) {
                    stops.push(if i + 1 == chain.len() {
                        *t
                    } else {
                        self.fresh_node(block, &mut meter)
                    });
                    orders.push(meter.dim_order(d));
                }
            }
            RandomnessMode::Recycled => {
                orders.push(meter.dim_order(d));
                let width = chain
                    .iter()
                    .map(|b| b.side().trailing_zeros())
                    .max()
                    .unwrap_or(0);
                let donors = [
                    DonorNode::draw(&mut meter, d, width),
                    DonorNode::draw(&mut meter, d, width),
                ];
                for (i, block) in chain.iter().enumerate().skip(1) {
                    stops.push(if i + 1 == chain.len() {
                        *t
                    } else {
                        self.donor_node(block, &donors[i % 2])
                    });
                }
            }
        }
        let nodes = walk_through(&self.mesh, s, &stops, &orders);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_coord(rng: &mut StdRng, d: usize, side: u32) -> Coord {
        Coord::new(&(0..d).map(|_| rng.gen_range(0..side)).collect::<Vec<_>>())
    }

    #[test]
    fn paths_valid_on_tori() {
        let mut rng = StdRng::seed_from_u64(81);
        for (d, k) in [(1usize, 6u32), (2, 5), (3, 3)] {
            let mesh = Mesh::new_torus(&vec![1u32 << k; d]);
            let r = BuschTorus::new(mesh.clone());
            for _ in 0..150 {
                let s = rand_coord(&mut rng, d, 1 << k);
                let t = rand_coord(&mut rng, d, 1 << k);
                let rp = r.select_path(&s, &t, &mut rng);
                assert!(rp.path.is_valid(&mesh), "d={d} {s:?}->{t:?}");
                assert_eq!(rp.path.source(), &s);
                assert_eq!(rp.path.target(), &t);
            }
        }
    }

    #[test]
    fn stretch_bounded_incl_wrap_pairs() {
        let mut rng = StdRng::seed_from_u64(82);
        let mesh = Mesh::new_torus(&[64, 64]);
        let r = BuschTorus::new(mesh.clone());
        let bound = crate::stretch_bound(2);
        let mut pairs = vec![
            // Wrap-adjacent pairs: the mesh's border nightmare, trivial here.
            (Coord::new(&[0, 5]), Coord::new(&[63, 5])),
            (Coord::new(&[10, 0]), Coord::new(&[10, 63])),
            (Coord::new(&[0, 0]), Coord::new(&[63, 63])),
        ];
        for _ in 0..400 {
            let s = rand_coord(&mut rng, 2, 64);
            let t = rand_coord(&mut rng, 2, 64);
            if s != t {
                pairs.push((s, t));
            }
        }
        for (s, t) in pairs {
            for _ in 0..3 {
                let st = r.select_path(&s, &t, &mut rng).path.stretch(&mesh);
                assert!(st <= bound, "{s:?}->{t:?}: stretch {st}");
            }
        }
    }

    #[test]
    fn recycled_cheaper_than_fresh() {
        let mesh = Mesh::new_torus(&[64, 64]);
        let fresh = BuschTorus::new(mesh.clone()).with_mode(RandomnessMode::Fresh);
        let recycled = BuschTorus::new(mesh.clone()).with_mode(RandomnessMode::Recycled);
        let mut rng = StdRng::seed_from_u64(83);
        let (mut bf, mut br) = (0u64, 0u64);
        for _ in 0..300 {
            let s = rand_coord(&mut rng, 2, 64);
            let t = rand_coord(&mut rng, 2, 64);
            if s == t {
                continue;
            }
            bf += fresh.select_path(&s, &t, &mut rng).random_bits;
            br += recycled.select_path(&s, &t, &mut rng).random_bits;
        }
        assert!(br < bf);
    }

    #[test]
    fn chain_blocks_nest() {
        let mesh = Mesh::new_torus(&[32, 32]);
        let r = BuschTorus::new(mesh.clone());
        let mut rng = StdRng::seed_from_u64(84);
        for _ in 0..200 {
            let s = rand_coord(&mut rng, 2, 32);
            let t = rand_coord(&mut rng, 2, 32);
            if s == t {
                continue;
            }
            let chain = r.chain(&s, &t);
            // Sizes are bitonic and consecutive blocks nest.
            let sizes: Vec<u64> = chain.iter().map(|b| b.node_count()).collect();
            let peak = sizes.iter().enumerate().max_by_key(|(_, &v)| v).unwrap().0;
            assert!(sizes[..=peak].windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
            assert!(sizes[peak..].windows(2).all(|w| w[0] > w[1]), "{sizes:?}");
            for w in chain.windows(2) {
                let (small, big) = if w[0].side() <= w[1].side() {
                    (&w[0], &w[1])
                } else {
                    (&w[1], &w[0])
                };
                assert!(big.contains_block(small), "{:?} {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn name_and_rejections() {
        let r = BuschTorus::new(Mesh::new_torus(&[8, 8]));
        assert_eq!(r.name(), "busch-torus-d2/recycled");
    }

    #[test]
    #[should_panic]
    fn rejects_plain_mesh() {
        let _ = BuschTorus::new(Mesh::new_mesh(&[8, 8]));
    }
}
