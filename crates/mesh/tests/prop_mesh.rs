//! Property tests for the mesh substrate.

use oblivion_mesh::{Coord, Mesh, Path, Submesh, Topology};
use proptest::prelude::*;
use std::collections::HashMap;

/// Strategy: a mesh with 1–4 dimensions, sides 1–12, ≤ 4096 nodes.
fn arb_mesh() -> impl Strategy<Value = Mesh> {
    (prop::collection::vec(1u32..=12, 1..=4), prop::bool::ANY).prop_filter_map(
        "node count cap",
        |(dims, torus)| {
            let n: u64 = dims.iter().map(|&m| u64::from(m)).product();
            if n > 4096 {
                return None;
            }
            Some(Mesh::new(
                &dims,
                if torus {
                    Topology::Torus
                } else {
                    Topology::Mesh
                },
            ))
        },
    )
}

/// Strategy: a mesh or torus with 1–4 dimensions and sides 1–3, so long
/// random walks revisit nodes over and over.
fn arb_tiny_mesh() -> impl Strategy<Value = Mesh> {
    (prop::collection::vec(1u32..=3, 1..=4), prop::bool::ANY).prop_map(|(dims, torus)| {
        Mesh::new(
            &dims,
            if torus {
                Topology::Torus
            } else {
                Topology::Mesh
            },
        )
    })
}

/// A random walk from `start`, hop `i` going to neighbor `steps[i]`
/// (mod the degree); stops early on a single-node mesh.
fn random_walk(mesh: &Mesh, start: Coord, steps: &[usize]) -> Vec<Coord> {
    let mut nodes = vec![start];
    let mut cur = start;
    for &s in steps {
        let nbs = mesh.neighbors(&cur);
        if nbs.is_empty() {
            break;
        }
        cur = nbs[s % nbs.len()];
        nodes.push(cur);
    }
    nodes
}

/// The original cycle removal — a left-to-right scan with a `HashMap`
/// of first visits, unwinding loops back to the first visit — kept as
/// the oracle that `Path::remove_cycles` must match node for node.
fn remove_cycles_oracle(walk: &[Coord]) -> Vec<Coord> {
    if walk.len() <= 2 {
        return walk.to_vec();
    }
    let mut first_seen: HashMap<Coord, usize> = HashMap::with_capacity(walk.len());
    let mut out: Vec<Coord> = Vec::with_capacity(walk.len());
    for &c in walk {
        if let Some(&pos) = first_seen.get(&c) {
            for dropped in out.drain(pos + 1..) {
                first_seen.remove(&dropped);
            }
        } else {
            first_seen.insert(c, out.len());
            out.push(c);
        }
    }
    out
}

/// Strategy: a mesh plus one of its coordinates.
fn mesh_and_coord() -> impl Strategy<Value = (Mesh, Coord)> {
    with_coord(arb_mesh())
}

/// Strategy: a mesh drawn from `meshes` plus one of its coordinates.
fn with_coord(meshes: impl Strategy<Value = Mesh>) -> impl Strategy<Value = (Mesh, Coord)> {
    meshes.prop_flat_map(|mesh| {
        let n = mesh.node_count();
        (Just(mesh), 0..n).prop_map(|(mesh, i)| {
            let c = mesh.coord(oblivion_mesh::NodeId(i));
            (mesh, c)
        })
    })
}

/// Strategy: a mesh plus two coordinates.
fn mesh_and_two() -> impl Strategy<Value = (Mesh, Coord, Coord)> {
    arb_mesh().prop_flat_map(|mesh| {
        let n = mesh.node_count();
        (Just(mesh), 0..n, 0..n).prop_map(|(mesh, i, j)| {
            let a = mesh.coord(oblivion_mesh::NodeId(i));
            let b = mesh.coord(oblivion_mesh::NodeId(j));
            (mesh, a, b)
        })
    })
}

proptest! {
    /// Node-id <-> coordinate is a bijection.
    #[test]
    fn node_id_roundtrip((mesh, c) in mesh_and_coord()) {
        prop_assert_eq!(mesh.coord(mesh.node_id(&c)), c);
    }

    /// Distance is a metric: symmetric, zero iff equal, triangle inequality.
    #[test]
    fn dist_is_a_metric((mesh, a, b) in mesh_and_two(), k in 0usize..4096) {
        prop_assert_eq!(mesh.dist(&a, &b), mesh.dist(&b, &a));
        prop_assert_eq!(mesh.dist(&a, &b) == 0, a == b);
        let n = mesh.node_count();
        let c = mesh.coord(oblivion_mesh::NodeId(k % n));
        prop_assert!(mesh.dist(&a, &b) <= mesh.dist(&a, &c) + mesh.dist(&c, &b));
    }

    /// Distance never exceeds the diameter.
    #[test]
    fn dist_le_diameter((mesh, a, b) in mesh_and_two()) {
        prop_assert!(mesh.dist(&a, &b) <= mesh.diameter());
    }

    /// Adjacent nodes have distance 1 and a valid symmetric edge id.
    #[test]
    fn neighbors_are_at_distance_one((mesh, c) in mesh_and_coord()) {
        for nb in mesh.neighbors(&c) {
            prop_assert_eq!(mesh.dist(&c, &nb), 1);
            prop_assert!(mesh.adjacent(&c, &nb));
            let e = mesh.edge_id(&c, &nb);
            prop_assert_eq!(e, mesh.edge_id(&nb, &c));
            prop_assert!(e.0 < mesh.edge_count());
            let (x, y) = mesh.edge_endpoints(e);
            prop_assert!((x == c && y == nb) || (x == nb && y == c));
        }
    }

    /// step_towards decreases the axis distance by exactly one.
    #[test]
    fn step_towards_progress((mesh, c) in mesh_and_coord(), target_idx in 0usize..4096, axis_pick in 0usize..8) {
        let axis = axis_pick % mesh.dim();
        let target = mesh.coord(oblivion_mesh::NodeId(target_idx % mesh.node_count()));
        let before = mesh.axis_dist(axis, c[axis], target[axis]);
        match mesh.step_towards(&c, target[axis], axis) {
            None => prop_assert_eq!(before, 0),
            Some(next) => {
                prop_assert!(mesh.adjacent(&c, &next));
                prop_assert_eq!(mesh.axis_dist(axis, next[axis], target[axis]), before - 1);
            }
        }
    }

    /// Lemma A.4: any submesh with n' nodes has out(M') >= n'^((d-1)/d),
    /// unless it spans the whole mesh along every axis it could leave by.
    #[test]
    fn out_edges_lower_bound_lemma_a4((mesh, a, b) in mesh_and_two()) {
        let sub = Submesh::bounding_box(&a, &b);
        let full = (0..mesh.dim()).all(|i| u64::from(sub.side(i)) == u64::from(mesh.side(i)));
        if !full && mesh.topology() == Topology::Mesh {
            // Lemma A.4 assumes a proper submesh of the mesh (at most d-1
            // surfaces flush with the border). Our bounding boxes can touch
            // more borders, so check the bound only when the box is
            // strictly interior on at least one side per axis.
            let d = mesh.dim() as f64;
            let n_prime = sub.node_count() as f64;
            let interior = (0..mesh.dim()).all(|i| {
                sub.lo()[i] > 0 || sub.hi()[i] + 1 < mesh.side(i)
            });
            if interior {
                let bound = n_prime.powf((d - 1.0) / d);
                prop_assert!(
                    (sub.out_edges(&mesh) as f64) + 1e-9 >= bound.floor(),
                    "out = {}, bound = {}", sub.out_edges(&mesh), bound
                );
            }
        }
    }

    /// Submesh iteration visits exactly node_count() distinct coordinates,
    /// all contained.
    #[test]
    fn submesh_iteration_consistent((mesh, a, b) in mesh_and_two()) {
        let sub = Submesh::bounding_box(&a, &b);
        let nodes: Vec<Coord> = sub.nodes().collect();
        prop_assert_eq!(nodes.len() as u64, sub.node_count());
        let set: std::collections::HashSet<_> = nodes.iter().collect();
        prop_assert_eq!(set.len(), nodes.len());
        prop_assert!(nodes.iter().all(|c| sub.contains(c) && mesh.contains(c)));
    }

    /// Cycle removal yields a simple, valid walk with the same endpoints,
    /// never longer, and idempotent.
    #[test]
    fn cycle_removal_properties((mesh, start) in mesh_and_coord(), steps in prop::collection::vec(0usize..6, 0..40)) {
        let p = Path::new(&mesh, random_walk(&mesh, start, &steps));
        let q = p.without_cycles();
        prop_assert!(q.is_simple());
        prop_assert!(q.is_valid(&mesh));
        prop_assert_eq!(q.source(), p.source());
        prop_assert_eq!(q.target(), p.target());
        prop_assert!(q.len() <= p.len());
        prop_assert_eq!(q.without_cycles(), q.clone());
        // A simple walk is at least as long as the distance.
        prop_assert!(q.len() as u64 >= mesh.dist(p.source(), p.target()));
    }

    /// Cycle removal keeps exactly the nodes the `HashMap` oracle keeps,
    /// on long walks over meshes and tori (which wrap).
    #[test]
    fn cycle_removal_matches_oracle((mesh, start) in mesh_and_coord(), steps in prop::collection::vec(0usize..16, 0..300)) {
        let walk = random_walk(&mesh, start, &steps);
        let mut p = Path::new(&mesh, walk.clone());
        p.remove_cycles();
        prop_assert_eq!(p.nodes(), &remove_cycles_oracle(&walk)[..]);
    }

    /// The same on meshes of 1–81 nodes, where a long walk revisits
    /// almost every node many times.
    #[test]
    fn cycle_removal_matches_oracle_with_many_revisits(
        (mesh, start) in with_coord(arb_tiny_mesh()),
        steps in prop::collection::vec(0usize..16, 0..400),
    ) {
        let walk = random_walk(&mesh, start, &steps);
        let mut p = Path::new(&mesh, walk.clone());
        p.remove_cycles();
        prop_assert_eq!(p.nodes(), &remove_cycles_oracle(&walk)[..]);
    }
}
