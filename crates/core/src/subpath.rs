//! Dimension-by-dimension shortest subpaths.
//!
//! Every subpath `r_i` of the paper's algorithm walks from one random node
//! to the next by correcting coordinates one dimension at a time, in a
//! (possibly random) dimension order — in 2-D this is the classic
//! "at most one-bend" path of Lemma 3.5. Such a walk is always a shortest
//! path between its endpoints.

use oblivion_mesh::{Coord, Mesh, Topology};

/// Appends to `out` the nodes of the dimension-by-dimension shortest walk
/// from `*cur` to `to`, visiting dimensions in `order`; `*cur` itself is
/// **not** appended (callers seed it). Afterwards `*cur == to`.
///
/// Each axis is one straight run of `mesh.axis_dist` hops in a fixed
/// direction — on a torus the shorter way round, forward on a tie.
pub fn extend_dim_by_dim(
    mesh: &Mesh,
    cur: &mut Coord,
    to: &Coord,
    order: &[usize],
    out: &mut Vec<Coord>,
) {
    debug_assert_eq!(cur.dim(), to.dim());
    debug_assert_eq!(order.len(), cur.dim());
    for &axis in order {
        let (mut x, y, m) = (cur[axis], to[axis], mesh.side(axis));
        let hops = mesh.axis_dist(axis, x, y);
        let forward = match mesh.topology() {
            Topology::Mesh => y > x,
            Topology::Torus => (u64::from(y) + u64::from(m) - u64::from(x)) % u64::from(m) == hops,
        };
        for _ in 0..hops {
            x = match (forward, x) {
                (true, _) if x + 1 == m => 0,
                (true, _) => x + 1,
                (false, 0) => m - 1,
                (false, _) => x - 1,
            };
            cur[axis] = x;
            out.push(*cur);
        }
    }
    debug_assert_eq!(cur, to);
}

/// The walk from `from` through every way-point in `stops`, leg `i`
/// ending at `stops[i]` and correcting axes in `orders[i]` — or in
/// `orders[0]` for every leg when a single order is given. The node list
/// (both endpoints included) is allocated once at its exact length.
pub(crate) fn walk_through<O: AsRef<[usize]>>(
    mesh: &Mesh,
    from: &Coord,
    stops: &[Coord],
    orders: &[O],
) -> Vec<Coord> {
    debug_assert!(orders.len() == 1 || orders.len() == stops.len());
    let mut hops = 0;
    let mut prev = from;
    for v in stops {
        hops += mesh.dist(prev, v) as usize;
        prev = v;
    }
    let mut out = Vec::with_capacity(hops + 1);
    out.push(*from);
    let mut cur = *from;
    for (i, v) in stops.iter().enumerate() {
        let order = orders.get(i).unwrap_or(&orders[0]);
        extend_dim_by_dim(mesh, &mut cur, v, order.as_ref(), &mut out);
    }
    out
}

/// The full dimension-by-dimension walk from `from` to `to` as a node list
/// (including both endpoints).
pub fn dim_by_dim(mesh: &Mesh, from: &Coord, to: &Coord, order: &[usize]) -> Vec<Coord> {
    walk_through(mesh, from, std::slice::from_ref(to), &[order])
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivion_mesh::Path;

    fn c(xs: &[u32]) -> Coord {
        Coord::new(xs)
    }

    #[test]
    fn xy_path_is_one_bend() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let nodes = dim_by_dim(&mesh, &c(&[1, 1]), &c(&[4, 6]), &[0, 1]);
        let p = Path::new(&mesh, nodes);
        assert_eq!(p.len() as u64, mesh.dist(&c(&[1, 1]), &c(&[4, 6])));
        // First leg moves only in x, second only in y.
        let corner = c(&[4, 1]);
        assert!(p.nodes().contains(&corner));
    }

    #[test]
    fn yx_path_bends_the_other_way() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let nodes = dim_by_dim(&mesh, &c(&[1, 1]), &c(&[4, 6]), &[1, 0]);
        let p = Path::new(&mesh, nodes);
        assert!(p.nodes().contains(&c(&[1, 6])));
        assert_eq!(p.len() as u64, 8);
    }

    #[test]
    fn walk_is_always_shortest() {
        let mesh = Mesh::new_mesh(&[4, 4, 4]);
        let from = c(&[0, 3, 1]);
        let to = c(&[3, 0, 2]);
        for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let nodes = dim_by_dim(&mesh, &from, &to, &order);
            let p = Path::new(&mesh, nodes);
            assert_eq!(p.len() as u64, mesh.dist(&from, &to));
        }
    }

    #[test]
    fn trivial_walk() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let nodes = dim_by_dim(&mesh, &c(&[2, 2]), &c(&[2, 2]), &[0, 1]);
        assert_eq!(nodes.len(), 1);
    }

    #[test]
    fn torus_walk_takes_wrap_shortcut() {
        let mesh = Mesh::new_torus(&[8, 8]);
        let nodes = dim_by_dim(&mesh, &c(&[0, 0]), &c(&[7, 0]), &[0, 1]);
        let p = Path::new(&mesh, nodes);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn extend_does_not_duplicate_seed() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let mut cur = c(&[0, 0]);
        let mut out = vec![cur];
        extend_dim_by_dim(&mesh, &mut cur, &c(&[1, 1]), &[0, 1], &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], c(&[0, 0]));
    }
}
