//! Golden wire bytes: the exact reply bytes the daemon puts on a socket.
//!
//! Two routers each answer 4096 fixed-seed pipelined `PATH` lines over
//! loopback; the digest folds every byte of every `OK ...\n` reply. A
//! corpus of malformed lines pins each `ERR BAD_REQUEST ...` reply
//! verbatim, detail text included. The constants were recorded before
//! the reply writer, the coordinate parser and the framer were
//! rewritten, so any change to a digit, a separator, an echoed ID or an
//! error message fails here. Wire bytes are a contract: clients parse
//! them and the differential suite compares them to in-process answers.
//! The request-line cap is pinned at its edge on both the request port
//! and the health port, which share one framer.

use oblivion_core::{Busch2D, BuschD, ObliviousRouter, PathQuery};
use oblivion_mesh::{Coord, Mesh};
use oblivion_serve::{wire, Control, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const LINES: usize = 4096;

/// 64-bit FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 4096 queries with uniform endpoints and private seeds, all drawn from
/// one fixed generator.
fn queries(mesh: &Mesh) -> Vec<PathQuery> {
    let mut rng = StdRng::seed_from_u64(0x0b1e_5e11);
    let node = |rng: &mut StdRng| {
        let xs: Vec<u32> = mesh.dims().iter().map(|&m| rng.gen_range(0..m)).collect();
        Coord::new(&xs)
    };
    (0..LINES)
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

/// A trace ID exercising the whole `[A-Za-z0-9._:-]` charset.
fn request_id(i: usize) -> String {
    format!("g-{i}.x:{}_Z", i % 7)
}

/// Sends `request` (raw bytes, many lines) on one pipelined connection
/// and returns the raw bytes of the first `replies` reply lines.
fn serve_raw(router: &dyn ObliviousRouter, request: &[u8], replies: usize) -> Vec<u8> {
    let cfg = ServeConfig {
        port: 0,
        health_port: None,
        threads: 1,
        announce: false,
        deadline: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(router, &cfg, &ctl));
        let addr = ctl
            .wait_addr(Duration::from_secs(5))
            .expect("server did not bind");
        let stream = TcpStream::connect(addr).expect("connect");
        let mut tx = stream.try_clone().expect("clone stream");
        // Write from a second thread: a single writer that never reads
        // could deadlock against the server's blocking reply writes.
        let writer = scope.spawn(move || tx.write_all(request));
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut got = Vec::new();
        let mut chunk = [0u8; 65536];
        while got.iter().filter(|&&b| b == b'\n').count() < replies {
            assert!(Instant::now() < deadline, "replies did not arrive in time");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            match (&stream).read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => panic!("read failed: {e}"),
            }
        }
        writer
            .join()
            .expect("writer panicked")
            .expect("write failed");
        drop(stream);
        ctl.request_shutdown();
        let summary = server
            .join()
            .expect("server thread panicked")
            .expect("server run failed");
        assert!(summary.stats.conserved(), "{:?}", summary.stats);
        got
    })
}

/// The served bytes for 4096 `PATH` lines, checked against the
/// in-process formatter and folded into one digest.
fn path_digest(router: &dyn ObliviousRouter, with_ids: bool) -> u64 {
    let mesh = router.mesh();
    let dim = mesh.dim();
    let qs = queries(mesh);
    let mut request = String::new();
    let mut expected = String::new();
    for (i, q) in qs.iter().enumerate() {
        let id = with_ids.then(|| request_id(i));
        request.push_str(&format!(
            "PATH {} {} {}",
            q.seed,
            wire::format_coord(&q.src, dim),
            wire::format_coord(&q.dst, dim)
        ));
        if let Some(id) = &id {
            request.push_str(" id=");
            request.push_str(id);
        }
        request.push('\n');
        let routed = router.select_path(&q.src, &q.dst, &mut StdRng::seed_from_u64(q.seed));
        expected.push_str(&wire::format_path_line_with_id(
            &routed.path,
            dim,
            id.as_deref(),
        ));
    }
    let served = serve_raw(router, request.as_bytes(), LINES);
    assert!(
        served == expected.as_bytes(),
        "served bytes differ from the in-process formatter"
    );
    fnv(&served)
}

#[test]
fn golden_ok_reply_digests() {
    let cases: Vec<(&str, Box<dyn ObliviousRouter>, bool, u64)> = vec![
        (
            "buschd 16^3 with id=",
            Box::new(BuschD::new(Mesh::new_mesh(&[16, 16, 16]))),
            true,
            0xfb1c_e299_fd52_1fd9,
        ),
        (
            "busch2d 64x64 without id=",
            Box::new(Busch2D::new(Mesh::new_mesh(&[64, 64]))),
            false,
            0x363f_c479_61c7_886d,
        ),
    ];
    let mut wrong = Vec::new();
    for (name, router, with_ids, want) in &cases {
        let got = path_digest(router.as_ref(), *with_ids);
        if got != *want {
            wrong.push(format!("{name}: got {got:#018x}, want {want:#018x}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "reply bytes changed:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn golden_bad_request_lines() {
    // (request line without its LF, exact reply line without its LF)
    let long = format!("PATH 1 0,0,0 1,1,1 id={}", "x".repeat(300));
    let cases: Vec<(&[u8], &str)> = vec![
        (b"", "ERR BAD_REQUEST empty request"),
        (b"NOPE 1 0,0,0 1,1,1", "ERR BAD_REQUEST unknown request `NOPE` (PATH|HEALTH|READY|METRICS)"),
        (b"PATH", "ERR BAD_REQUEST PATH needs `<seed> <src> <dst>`"),
        (b"PATH x 0,0,0 1,1,1", "ERR BAD_REQUEST bad seed: invalid digit found in string"),
        (b"PATH 18446744073709551616 0,0,0 1,1,1", "ERR BAD_REQUEST bad seed: number too large to fit in target type"),
        (b"PATH 1 0,0,0", "ERR BAD_REQUEST PATH missing <dst>"),
        (b"PATH 1", "ERR BAD_REQUEST PATH missing <src>"),
        (b"PATH 1 0,0 1,1,1", "ERR BAD_REQUEST coordinate `0,0` has 2 components, mesh has 3 dimensions"),
        (b"PATH 1 0,0,0,0 1,1,1", "ERR BAD_REQUEST coordinate `0,0,0,0` has 4 components, mesh has 3 dimensions"),
        (b"PATH 1 1,1,1,1,1,1,1,1,1 1,1,1", "ERR BAD_REQUEST coordinate `1,1,1,1,1,1,1,1,1` has 9 components, mesh has 3 dimensions"),
        (b"PATH 1 1,1,1,1,1,1,1,1,x 1,1,1", "ERR BAD_REQUEST bad coordinate `1,1,1,1,1,1,1,1,x`: invalid digit found in string"),
        (b"PATH 1 3,,4 1,1,1", "ERR BAD_REQUEST bad coordinate `3,,4`: cannot parse integer from empty string"),
        (b"PATH 1 3,4, 1,1,1", "ERR BAD_REQUEST bad coordinate `3,4,`: cannot parse integer from empty string"),
        (b"PATH 1 ,3,4 1,1,1", "ERR BAD_REQUEST bad coordinate `,3,4`: cannot parse integer from empty string"),
        (b"PATH 1 -3,4,5 1,1,1", "ERR BAD_REQUEST bad coordinate `-3,4,5`: invalid digit found in string"),
        (b"PATH 1 4294967296,0,0 1,1,1", "ERR BAD_REQUEST bad coordinate `4294967296,0,0`: number too large to fit in target type"),
        ("PATH 1 \u{0663},0,0 1,1,1".as_bytes(), "ERR BAD_REQUEST bad coordinate `\u{663},0,0`: invalid digit found in string"),
        ("PATH 1 \u{ff13},0,0 1,1,1".as_bytes(), "ERR BAD_REQUEST bad coordinate `\u{ff13},0,0`: invalid digit found in string"),
        (b"PATH 1 16,0,0 1,1,1", "ERR BAD_REQUEST coordinate `16,0,0` outside the mesh"),
        (b"PATH 1 0,0,0 0,16,0", "ERR BAD_REQUEST coordinate `0,16,0` outside the mesh"),
        (b"PATH 1 0,0,0 1,x,1 id=bad-coord.1", "ERR BAD_REQUEST id=bad-coord.1 bad coordinate `1,x,1`: invalid digit found in string"),
        (b"PATH 1 0,0,0 1,1,1 extra", "ERR BAD_REQUEST unexpected token `extra` (want id=<token>)"),
        (b"PATH 1 0,0,0 1,1,1 id=", "ERR BAD_REQUEST bad request id (1..=64 chars of [A-Za-z0-9._:-])"),
        (b"PATH 1 0,0,0 1,1,1 id=sp@ce", "ERR BAD_REQUEST bad request id (1..=64 chars of [A-Za-z0-9._:-])"),
        (b"PATH 1 0,0,0 1,1,1 id=ok trailing", "ERR BAD_REQUEST id=ok trailing tokens after PATH <seed> <src> <dst> [id=...]"),
        (b"MESH sp@ce PATH 1 0,0,0 1,1,1", "ERR BAD_REQUEST bad mesh id (1..=64 chars of [A-Za-z0-9._-])"),
        (b"MESH a", "ERR BAD_REQUEST MESH <id> must prefix a request line"),
        (b"\xff\xfe PATH", "ERR BAD_REQUEST request line is not valid UTF-8"),
        (long.as_bytes(), "ERR BAD_REQUEST request line too long"),
    ];
    let mut request = Vec::new();
    for (line, _) in &cases {
        request.extend_from_slice(line);
        request.push(b'\n');
    }
    let router = BuschD::new(Mesh::new_mesh(&[16, 16, 16]));
    let served = serve_raw(&router, &request, cases.len());
    let served = String::from_utf8(served).expect("replies are UTF-8");
    let got: Vec<&str> = served.lines().collect();
    assert_eq!(got.len(), cases.len(), "one reply per line:\n{served}");
    let mut wrong = Vec::new();
    for ((line, want), got) in cases.iter().zip(&got) {
        if got != want {
            wrong.push(format!(
                "{:?}\n   got  {got:?}\n   want {want:?}",
                String::from_utf8_lossy(line)
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "error replies changed:\n{}",
        wrong.join("\n")
    );
}

/// Writes `request` on a fresh connection and reads `n` reply lines back.
fn reply_lines(addr: std::net::SocketAddr, request: &[u8], n: usize) -> Vec<String> {
    use std::io::BufRead as _;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(request).expect("write request");
    let mut reader = std::io::BufReader::new(stream);
    (0..n)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read reply");
            line
        })
        .collect()
}

/// `verb`, a run of spaces, then `rest`: exactly `len` bytes.
fn padded(verb: &str, rest: &str, len: usize) -> String {
    let line = format!("{verb}{}{rest}", " ".repeat(len - verb.len() - rest.len()));
    assert_eq!(line.len(), len);
    line
}

#[test]
fn request_line_cap_excludes_the_terminator() {
    // The longest accepted line is MAX_REQUEST_LINE bytes, sent here with
    // a CRLF (258 bytes on the wire); one byte more is rejected. Both
    // ports frame lines the same way.
    let max = oblivion_serve::MAX_REQUEST_LINE;
    assert_eq!(max, 256);
    let router = BuschD::new(Mesh::new_mesh(&[16, 16, 16]));
    let cfg = ServeConfig {
        port: 0,
        health_port: Some(0),
        threads: 1,
        announce: false,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let health = ctl.health_addr().expect("no health listener");

        let request = format!(
            "{}\r\n{}\nPATH 1 0,0,0 1,1,1\n",
            padded("PATH", "1 0,0,0 1,1,1", max),
            padded("PATH", "1 0,0,0 1,1,1", max + 1)
        );
        let got = reply_lines(addr, request.as_bytes(), 3);
        assert!(got[2].starts_with("OK 0,0,0 "), "{got:?}");
        assert_eq!(got[0], got[2], "a {max}-byte line must be served");
        assert_eq!(got[1], "ERR BAD_REQUEST request line too long\n");

        let at_cap = format!("{}\r\n", padded("HEALTH", "", max));
        let got = reply_lines(health, at_cap.as_bytes(), 1);
        assert!(got[0].starts_with("OK healthy "), "{got:?}");
        let over = format!("{}\n", padded("HEALTH", "", max + 1));
        assert_eq!(
            reply_lines(health, over.as_bytes(), 1),
            ["ERR BAD_REQUEST no probe line\n"]
        );

        ctl.request_shutdown();
        server.join().expect("server thread").expect("serve run");
    });
}
