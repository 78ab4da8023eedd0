//! Differential properties for the wire's coordinate and reply codecs.
//!
//! The reply writer appends digits straight into its buffer and the
//! coordinate parser fills a fixed array; the original `to_string`
//! formatter and `Vec`-collecting parser are kept here as oracles. The
//! writer must match byte for byte on every dimension and on the digit
//! boundaries, and the parser must give the same `Ok` value or the same
//! `Err` text (which `ERR BAD_REQUEST` echoes) on hostile tokens.

use oblivion_mesh::{Coord, Mesh, Path, MAX_DIM};
use oblivion_serve::wire;
use proptest::prelude::*;

/// The original coordinate formatter: one `String` per component.
fn format_coord_oracle(c: &Coord, dim: usize) -> String {
    let mut s = String::new();
    for i in 0..dim {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&c[i].to_string());
    }
    s
}

/// The original reply formatter, grown from empty.
fn format_path_line_oracle(path: &Path, dim: usize, id: Option<&str>) -> String {
    let mut s = String::from("OK");
    if let Some(id) = id {
        s.push_str(" id=");
        s.push_str(id);
    }
    for hop in path.nodes() {
        s.push(' ');
        s.push_str(&format_coord_oracle(hop, dim));
    }
    s.push('\n');
    s
}

/// The original coordinate parser: collects every component into a
/// `Vec` before checking the count.
fn parse_coord_oracle(token: &str, mesh: &Mesh) -> Result<Coord, String> {
    let xs: Result<Vec<u32>, _> = token.split(',').map(str::parse::<u32>).collect();
    let xs = xs.map_err(|e| format!("bad coordinate `{token}`: {e}"))?;
    if xs.len() != mesh.dim() {
        return Err(format!(
            "coordinate `{token}` has {} components, mesh has {} dimensions",
            xs.len(),
            mesh.dim()
        ));
    }
    let c = Coord::new(&xs);
    if !mesh.contains(&c) {
        return Err(format!("coordinate `{token}` outside the mesh"));
    }
    Ok(c)
}

/// Digit-count boundaries and extremes.
const EDGES: [u32; 12] = [
    0,
    9,
    10,
    99,
    100,
    999,
    65_535,
    999_999_999,
    1_000_000_000,
    4_294_967_294,
    u32::MAX,
    7,
];

/// Strategy: a component, drawn from the edges, small values or anything.
fn component() -> impl Strategy<Value = u32> {
    (0u8..3, any::<u32>(), 0usize..EDGES.len()).prop_map(|(kind, x, e)| match kind {
        0 => EDGES[e],
        1 => x % 100,
        _ => x,
    })
}

/// Strategy: a path of 1–24 hops of one dimension in 1..=MAX_DIM
/// (adjacency is irrelevant to the wire).
fn arb_path() -> impl Strategy<Value = (usize, Path)> {
    (1usize..=MAX_DIM).prop_flat_map(|dim| {
        (
            Just(dim),
            prop::collection::vec(prop::collection::vec(component(), dim), 1..=24),
        )
            .prop_map(|(dim, hops)| {
                let nodes = hops.iter().map(|xs| Coord::new(xs)).collect();
                (dim, Path::new_unchecked(nodes))
            })
    })
}

/// Strategy: an optional trace ID of the wire charset.
fn arb_id() -> impl Strategy<Value = Option<String>> {
    const CHARSET: &[u8] = b"abcXYZ0189._:-";
    (
        any::<bool>(),
        prop::collection::vec(0usize..CHARSET.len(), 1..=wire::MAX_REQUEST_ID),
    )
        .prop_map(|(some, cs)| some.then(|| cs.iter().map(|&i| char::from(CHARSET[i])).collect()))
}

/// Hostile coordinate parts: valid, empty, signed, overflowing,
/// non-ASCII digits, whitespace, prefixes.
const PARTS: [&str; 20] = [
    "0",
    "1",
    "2",
    "3",
    "4",
    "",
    "+3",
    "-1",
    "4294967295",
    "4294967296",
    "99999999999999999999",
    "\u{0663}",
    "\u{ff13}",
    "x",
    " 3",
    "3 ",
    "0x1",
    "007",
    "1e2",
    "+",
];

/// Strategy: a mesh of 1..=MAX_DIM dimensions with sides 1–4.
fn arb_mesh() -> impl Strategy<Value = Mesh> {
    prop::collection::vec(1u32..=4, 1..=MAX_DIM).prop_map(|dims| Mesh::new_mesh(&dims))
}

/// Strategy: a token of 1–12 hostile parts joined by commas, sometimes
/// with a leading or trailing comma.
fn arb_token() -> impl Strategy<Value = String> {
    (prop::collection::vec(0usize..PARTS.len(), 1..=12), 0u8..4).prop_map(|(parts, edge)| {
        let mut t = parts
            .iter()
            .map(|&i| PARTS[i])
            .collect::<Vec<_>>()
            .join(",");
        match edge {
            0 => t.push(','),
            1 => t.insert(0, ','),
            _ => {}
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `format_coord` spells every prefix of a coordinate exactly as
    /// `to_string` per component did, in an exactly sized `String`.
    #[test]
    fn coord_writer_matches_to_string((dim, path) in arb_path(), cut in 0usize..MAX_DIM) {
        let c = path.nodes()[0];
        let d = 1 + cut % dim;
        let want = format_coord_oracle(&c, d);
        let got = wire::format_coord(&c, d);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.capacity(), got.len());
    }

    /// The reply line is byte-identical to the oracle's, sized exactly
    /// up front, and appending it keeps what the buffer already held.
    #[test]
    fn reply_writer_matches_oracle((dim, path) in arb_path(), id in arb_id()) {
        let want = format_path_line_oracle(&path, dim, id.as_deref());
        let got = wire::format_path_line_with_id(&path, dim, id.as_deref());
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.capacity(), got.len());
        let mut burst = String::from("ERR OVERLOADED\n");
        wire::push_path_line(&mut burst, &path, dim, id.as_deref());
        prop_assert_eq!(burst, format!("ERR OVERLOADED\n{want}"));
    }

    /// The parser agrees with the oracle on hostile tokens: the same
    /// coordinate, or the same error text. It never panics.
    #[test]
    fn coord_parser_matches_oracle(mesh in arb_mesh(), token in arb_token()) {
        prop_assert_eq!(
            wire::parse_coord(&token, &mesh),
            parse_coord_oracle(&token, &mesh),
            "token {:?} on {:?}", token, mesh.dims()
        );
    }

    /// The same on raw strings over a small hostile alphabet.
    #[test]
    fn coord_parser_matches_oracle_on_raw_text(
        mesh in arb_mesh(),
        chars in prop::collection::vec(0usize..9, 0..24),
    ) {
        const ALPHABET: [char; 9] = ['0', '1', '3', ',', ',', '+', '-', '\u{ff13}', ' '];
        let token: String = chars.iter().map(|&i| ALPHABET[i]).collect();
        prop_assert_eq!(
            wire::parse_coord(&token, &mesh),
            parse_coord_oracle(&token, &mesh),
            "token {:?} on {:?}", token, mesh.dims()
        );
    }
}

#[test]
fn digit_boundaries_in_every_dimension() {
    for dim in 1..=MAX_DIM {
        for &x in &EDGES {
            let c = Coord::new(&vec![x; dim]);
            assert_eq!(wire::format_coord(&c, dim), format_coord_oracle(&c, dim));
            let path = Path::new_unchecked(vec![c, Coord::origin(dim), c]);
            assert_eq!(
                wire::format_path_line_with_id(&path, dim, Some("q-1")),
                format_path_line_oracle(&path, dim, Some("q-1"))
            );
        }
    }
}

#[test]
fn named_hostile_tokens_match_oracle() {
    let mesh = Mesh::new_mesh(&[16, 16, 16]);
    for token in [
        "1,1,1,1,1,1,1,1,1",
        "1,1,1,1,1,1,1,1,1,1,1,1",
        "1,1,1,1,1,1,1,1,x",
        "3,,4",
        "+3,0,0",
        "4294967296,0,0",
        "\u{0663},0,0",
        "1,2,3,",
        "16,0,0",
        "",
        ",",
    ] {
        assert_eq!(
            wire::parse_coord(token, &mesh),
            parse_coord_oracle(token, &mesh),
            "{token:?}"
        );
    }
    // `+3` is a valid component, as `str::parse::<u32>` has it.
    assert_eq!(
        wire::parse_coord("+3,0,0", &mesh),
        Ok(Coord::new(&[3, 0, 0]))
    );
}
