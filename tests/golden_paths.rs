//! Golden path digests: the exact bytes of the paper's routers.
//!
//! Each router answers 4096 fixed-seed queries; the digest folds every
//! node of every returned path plus its `random_bits` count. The
//! constants were recorded before the route hot path was optimised, so
//! any change that alters a single node or a single metered bit — in the
//! chain, the way-point draws, the subpath walks or cycle removal — fails
//! here. Path bytes are a contract: served replies, simulator runs and
//! checkpoints all depend on them.

use oblivion_core::{
    Busch2D, BuschD, BuschPadded, BuschTorus, ObliviousRouter, PathQuery, RandomnessMode,
    RoutedPath,
};
use oblivion_mesh::{Coord, Mesh};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const QUERIES: usize = 4096;

/// 64-bit FNV-1a, fed little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// 4096 queries with uniform endpoints and private seeds, all drawn from
/// one fixed generator.
fn queries(mesh: &Mesh) -> Vec<PathQuery> {
    let mut rng = StdRng::seed_from_u64(0x0601_de11);
    let node = |rng: &mut StdRng| {
        let xs: Vec<u32> = mesh.dims().iter().map(|&m| rng.gen_range(0..m)).collect();
        Coord::new(&xs)
    };
    (0..QUERIES)
        .map(|_| {
            let src = node(&mut rng);
            let dst = node(&mut rng);
            PathQuery {
                seed: rng.next_u64(),
                src,
                dst,
            }
        })
        .collect()
}

fn digest(router: &dyn ObliviousRouter) -> u64 {
    let qs = queries(router.mesh());
    let mut answers: Vec<RoutedPath> = Vec::new();
    router.route_batch(&qs, &mut answers);
    let mut h = Fnv::new();
    for (i, (q, rp)) in qs.iter().zip(&answers).enumerate() {
        assert_eq!(rp.path.source(), &q.src);
        assert_eq!(rp.path.target(), &q.dst);
        if i % 64 == 0 {
            // Batching must not change the answer of a single-shot call.
            let one = router.select_path(&q.src, &q.dst, &mut StdRng::seed_from_u64(q.seed));
            assert_eq!((&one.path, one.random_bits), (&rp.path, rp.random_bits));
        }
        h.word(rp.random_bits);
        h.word(rp.path.nodes().len() as u64);
        for c in rp.path.nodes() {
            for &x in c.as_slice() {
                h.word(u64::from(x));
            }
        }
    }
    h.0
}

#[test]
fn golden_path_digests() {
    let mesh2 = Mesh::new_mesh(&[64, 64]);
    let cases: Vec<(&str, Box<dyn ObliviousRouter>, u64)> = vec![
        (
            "busch2d 64x64 recycled",
            Box::new(Busch2D::new(mesh2.clone())),
            0xac65_9c1c_03bf_8976,
        ),
        (
            "busch2d 64x64 fresh",
            Box::new(Busch2D::new(mesh2).with_mode(RandomnessMode::Fresh)),
            0xd2f4_2bf1_3a2f_5f79,
        ),
        (
            "buschd 16^3",
            Box::new(BuschD::new(Mesh::new_mesh(&[16, 16, 16]))),
            0x009a_ee44_e6f7_8b8f,
        ),
        (
            "busch-torus 64x64",
            Box::new(BuschTorus::new(Mesh::new_torus(&[64, 64]))),
            0x0f91_e2cc_fea0_3ff9,
        ),
        (
            "busch-padded 48x40",
            Box::new(BuschPadded::new(Mesh::new_mesh(&[48, 40]))),
            0x8ab7_2d71_adf0_a1a3,
        ),
    ];
    let mut wrong = Vec::new();
    for (name, router, want) in &cases {
        let got = digest(router.as_ref());
        if got != *want {
            wrong.push(format!("{name}: got {got:#018x}, want {want:#018x}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "path bytes changed:\n{}",
        wrong.join("\n")
    );
}
