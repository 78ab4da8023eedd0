//! Turning a bitonic submesh chain into a concrete packet path.
//!
//! Both the 2-D and the d-D algorithms reduce to the same skeleton
//! (Section 3.3): given the chain of submeshes `u_0, …, u_ℓ` along the
//! bitonic access-graph path (`u_0 = {s}`, `u_ℓ = {t}`), pick a random node
//! `v_i` in each `g(u_i)` and connect consecutive `v_{i-1} → v_i` with a
//! dimension-by-dimension shortest subpath under a random dimension order.
//!
//! Two randomness disciplines are supported (Section 5.3):
//!
//! * [`RandomnessMode::Fresh`] — a new dimension order and a fully fresh
//!   uniform node per chain step: `O(d log²(D'd))` bits, the naive budget.
//! * [`RandomnessMode::Recycled`] — one dimension order for the whole
//!   path; two *donor* nodes drawn once at the widest block, whose
//!   coordinate bits are sliced (alternating donors along the chain) to
//!   produce the intermediate nodes: `O(d log(D'd))` bits, Lemma 5.4.

use crate::randbits::{BitMeter, DonorNode};
use crate::subpath::walk_through;
use oblivion_mesh::{Coord, Mesh, Path, Submesh};

/// Randomness discipline for the hierarchical routers (Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RandomnessMode {
    /// Independent draws per chain step (simple, more bits).
    Fresh,
    /// Bit-recycling via two donor nodes (the paper's optimized scheme).
    #[default]
    Recycled,
}

/// Samples a uniform node of `sub` from a donor, when the block is
/// power-of-two sized and grid-aligned on every axis; otherwise falls back
/// to fresh metered bits (this can only happen at a clipped bridge block,
/// once per path).
fn donor_or_fresh_node(sub: &Submesh, donor: &DonorNode, meter: &mut BitMeter<'_>) -> Coord {
    let mut c = *sub.lo();
    for i in 0..sub.dim() {
        let side = sub.side(i);
        if side.is_power_of_two()
            && sub.lo()[i].is_multiple_of(side)
            && side.trailing_zeros() <= donor.width()
        {
            c[i] = sub.lo()[i] + donor.low_bits(i, side.trailing_zeros());
        } else {
            c[i] = meter.range_inclusive(sub.lo()[i], sub.hi()[i]);
        }
    }
    c
}

/// Builds the packet path through a bitonic chain of submeshes.
///
/// `chain[0]` must be the singleton `{s}` and `chain.last()` the singleton
/// `{t}`; consecutive duplicates are allowed and skipped. Returns the
/// concatenated path (cycles *not* yet removed — callers decide).
pub fn path_through_chain(
    mesh: &Mesh,
    chain: &[Submesh],
    mode: RandomnessMode,
    meter: &mut BitMeter<'_>,
) -> Path {
    path_through_chain_clipped(mesh, chain, mode, meter, None)
}

/// Like [`path_through_chain`], but every way-point is sampled from the
/// intersection of the chain block with `clip` (used by the padded router
/// to keep way-points inside a non-power-of-two mesh embedded in a larger
/// virtual one).
///
/// # Panics
/// Panics if some chain block does not intersect `clip` — impossible for
/// chains produced by the routers, whose blocks all contain `s` or `t`.
pub fn path_through_chain_clipped(
    mesh: &Mesh,
    chain: &[Submesh],
    mode: RandomnessMode,
    meter: &mut BitMeter<'_>,
    clip: Option<&Submesh>,
) -> Path {
    assert!(!chain.is_empty());
    debug_assert_eq!(chain[0].node_count(), 1, "chain must start at a leaf");
    debug_assert_eq!(
        chain.last().unwrap().node_count(),
        1,
        "chain must end at a leaf"
    );
    let d = mesh.dim();
    let s = *chain[0].lo();
    let t = *chain.last().unwrap().lo();
    if s == t {
        return Path::trivial(s);
    }

    let clipped = |sub: &Submesh| -> Submesh {
        match clip {
            None => *sub,
            Some(c) => sub
                .intersection(c)
                .expect("chain block does not intersect the clip region"),
        }
    };

    // Every way-point (and dimension order) is drawn before any walking:
    // the walk draws no bits, so the metered stream is the same as if the
    // legs were interleaved, and the summed leg lengths size the walk
    // exactly.
    let mut stops: Vec<Coord> = Vec::with_capacity(chain.len() - 1);
    let mut orders: Vec<Vec<usize>> = Vec::new();
    match mode {
        RandomnessMode::Fresh => {
            for (i, sub) in chain.iter().enumerate().skip(1) {
                if sub == &chain[i - 1] {
                    continue;
                }
                stops.push(if i + 1 == chain.len() {
                    t
                } else {
                    meter.uniform_node(&clipped(sub))
                });
                orders.push(meter.dim_order(d));
            }
        }
        RandomnessMode::Recycled => {
            orders.push(meter.dim_order(d));
            // Donor width: enough bits for the widest power-aligned block.
            let width = chain
                .iter()
                .map(|b| {
                    (0..d)
                        .map(|i| {
                            let side = b.side(i);
                            if side.is_power_of_two() && b.lo()[i] % side == 0 {
                                side.trailing_zeros()
                            } else {
                                0
                            }
                        })
                        .max()
                        .unwrap_or(0)
                })
                .max()
                .unwrap_or(0);
            let donors = [
                DonorNode::draw(meter, d, width),
                DonorNode::draw(meter, d, width),
            ];
            for (i, sub) in chain.iter().enumerate().skip(1) {
                if sub == &chain[i - 1] {
                    continue;
                }
                stops.push(if i + 1 == chain.len() {
                    t
                } else {
                    donor_or_fresh_node(&clipped(sub), &donors[i % 2], meter)
                });
            }
        }
    }
    Path::new_unchecked(walk_through(mesh, &s, &stops, &orders))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn c(xs: &[u32]) -> Coord {
        Coord::new(xs)
    }

    fn sm(lo: &[u32], hi: &[u32]) -> Submesh {
        Submesh::new(c(lo), c(hi))
    }

    #[test]
    fn chain_path_endpoints_and_validity() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let chain = vec![
            Submesh::point(c(&[1, 1])),
            sm(&[0, 0], &[3, 3]),
            sm(&[0, 0], &[7, 7]),
            sm(&[4, 4], &[7, 7]),
            Submesh::point(c(&[6, 6])),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        for mode in [RandomnessMode::Fresh, RandomnessMode::Recycled] {
            let mut meter = BitMeter::new(&mut rng);
            let p = path_through_chain(&mesh, &chain, mode, &mut meter);
            assert!(p.is_valid(&mesh), "{mode:?}");
            assert_eq!(p.source(), &c(&[1, 1]));
            assert_eq!(p.target(), &c(&[6, 6]));
            assert!(meter.bits_used() > 0);
        }
    }

    #[test]
    fn trivial_chain() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let chain = vec![Submesh::point(c(&[2, 2])), Submesh::point(c(&[2, 2]))];
        let mut rng = StdRng::seed_from_u64(2);
        let mut meter = BitMeter::new(&mut rng);
        let p = path_through_chain(&mesh, &chain, RandomnessMode::Fresh, &mut meter);
        assert!(p.is_empty());
        assert_eq!(meter.bits_used(), 0);
    }

    #[test]
    fn duplicate_blocks_are_skipped() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let b = sm(&[0, 0], &[3, 3]);
        let chain = vec![Submesh::point(c(&[0, 0])), b, b, Submesh::point(c(&[3, 2]))];
        let mut rng = StdRng::seed_from_u64(3);
        let mut meter = BitMeter::new(&mut rng);
        let p = path_through_chain(&mesh, &chain, RandomnessMode::Fresh, &mut meter);
        assert!(p.is_valid(&mesh));
        assert_eq!(p.target(), &c(&[3, 2]));
    }

    #[test]
    fn recycled_uses_fewer_bits_than_fresh_on_long_chains() {
        let mesh = Mesh::new_mesh(&[64, 64]);
        // A full-height chain: 1 → 2 → 4 → ... → 64 → ... → 2 → 1 sides.
        let mut chain = vec![Submesh::point(c(&[13, 27]))];
        for h in 1..=6u32 {
            let side = 1 << h;
            let lo = [13 / side * side, 27 / side * side];
            chain.push(sm(&lo, &[lo[0] + side - 1, lo[1] + side - 1]));
        }
        for h in (1..=6u32).rev() {
            let side = 1 << h;
            let lo = [40 / side * side, 50 / side * side];
            chain.push(sm(&lo, &[lo[0] + side - 1, lo[1] + side - 1]));
        }
        chain.push(Submesh::point(c(&[40, 50])));

        let avg_bits = |mode| {
            let mut rng = StdRng::seed_from_u64(4);
            let mut total = 0u64;
            for _ in 0..50 {
                let mut meter = BitMeter::new(&mut rng);
                let _ = path_through_chain(&mesh, &chain, mode, &mut meter);
                total += meter.bits_used();
            }
            total as f64 / 50.0
        };
        let fresh = avg_bits(RandomnessMode::Fresh);
        let recycled = avg_bits(RandomnessMode::Recycled);
        assert!(
            recycled < fresh / 2.0,
            "recycled {recycled} should be well below fresh {fresh}"
        );
    }

    #[test]
    fn donor_fallback_handles_clipped_blocks() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        // A clipped (non-power-aligned) bridge in the middle.
        let chain = vec![
            Submesh::point(c(&[3, 3])),
            sm(&[2, 2], &[5, 6]), // sides 4 and 5, unaligned
            Submesh::point(c(&[5, 5])),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let mut meter = BitMeter::new(&mut rng);
        let p = path_through_chain(&mesh, &chain, RandomnessMode::Recycled, &mut meter);
        assert!(p.is_valid(&mesh));
    }
}
