//! The client's read path against canned replies from a loopback fake
//! server. Each reply is sent whole and again one byte per write; the
//! outcome of `Client::request_path_with_id` (framing plus the reply
//! classifier) must not depend on how the bytes were split.

use oblivion_mesh::{Coord, Mesh};
use oblivion_serve::wire::MAX_RESPONSE_LINE;
use oblivion_serve::{Client, ClientError};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

/// How the fake server puts one reply on the wire.
#[derive(Clone, Copy, Debug)]
enum Send {
    Whole,
    OneBytePerWrite,
    /// Two writes, split at this byte offset.
    SplitAt(usize),
}

/// Serves `reply` to one connection, after reading its request line.
fn fake_server(reply: Vec<u8>, send: Send) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let _ = stream.set_nodelay(true);
        let mut request = String::new();
        BufReader::new(&stream)
            .read_line(&mut request)
            .expect("read request");
        let mut out = &stream;
        // The client may hang up mid-reply (an over-long line fails at
        // once), so write errors are expected and ignored.
        let _ = match send {
            Send::Whole => out.write_all(&reply),
            Send::OneBytePerWrite => reply.iter().try_for_each(|b| {
                out.write_all(std::slice::from_ref(b))?;
                out.flush()
            }),
            Send::SplitAt(k) => out.write_all(&reply[..k]).and_then(|()| {
                out.flush()?;
                std::thread::sleep(Duration::from_millis(20));
                out.write_all(&reply[k..])
            }),
        };
        // Hold the connection open until the client hangs up, so a reply
        // without its LF can only end by the client's own decision.
        let _ = std::io::copy(&mut out, &mut std::io::sink());
    });
    (addr, handle)
}

/// The outcome of one request, in a comparable form.
fn outcome(reply: &[u8], send: Send) -> Result<Vec<Coord>, String> {
    let mesh = Mesh::new_mesh(&[4, 4]);
    let (addr, server) = fake_server(reply.to_vec(), send);
    let client = Client::to(addr, Duration::from_secs(10));
    let got = client
        .request_path_with_id(
            &mesh,
            7,
            &Coord::new(&[0, 0]),
            &Coord::new(&[2, 1]),
            Some("t-1"),
        )
        .map_err(|e| match e {
            ClientError::Transport(io) => format!("transport: {io}"),
            ClientError::Server(kind, detail) => format!("server: {kind} {detail}"),
            ClientError::Malformed(why) => format!("malformed: {why}"),
        });
    server.join().expect("fake server panicked");
    got
}

#[test]
fn reply_outcomes_do_not_depend_on_write_sizes() {
    let path: Vec<Coord> = [[0, 0], [1, 0], [2, 0], [2, 1]]
        .iter()
        .map(|c| Coord::new(c))
        .collect();
    // (name, reply bytes, the hops or the error's leading text)
    type Case<'a> = (&'a str, &'a [u8], Result<Vec<Coord>, &'a str>);
    let cases: Vec<Case> = vec![
        (
            "valid OK path",
            b"OK id=t-1 0,0 1,0 2,0 2,1\n",
            Ok(path.clone()),
        ),
        (
            "valid OK path, CRLF",
            b"OK id=t-1 0,0 1,0 2,0 2,1\r\n",
            Ok(path),
        ),
        (
            "OK missing its echo",
            b"OK 0,0 1,0 2,0 2,1\n",
            Err("malformed: request id not echoed"),
        ),
        (
            "ERR contradicting the echo",
            b"ERR DEADLINE_EXCEEDED id=t-2\n",
            Err("malformed: request id mangled"),
        ),
        (
            "ERR without an echo",
            b"ERR OVERLOADED\n",
            Err("server: OVERLOADED"),
        ),
        (
            "non-adjacent hop",
            b"OK id=t-1 0,0 2,0 2,1\n",
            Err("malformed: non-adjacent hop 0,0 -> 2,0"),
        ),
        (
            "wrong endpoints",
            b"OK id=t-1 0,0 1,0 2,0\n",
            Err("malformed: path endpoints do not match"),
        ),
        (
            "non-UTF-8 bytes",
            b"OK id=t-1 0,0 \xff\xfe 2,1\n",
            Err("malformed: reply line is not valid UTF-8"),
        ),
    ];
    for (name, reply, want) in &cases {
        let whole = outcome(reply, Send::Whole);
        let bytewise = outcome(reply, Send::OneBytePerWrite);
        assert_eq!(whole, bytewise, "{name}: outcome depends on write sizes");
        match (want, &whole) {
            (Ok(hops), Ok(got)) => assert_eq!(got, hops, "{name}"),
            (Err(prefix), Err(got)) => {
                assert!(
                    got.starts_with(prefix),
                    "{name}: got {got:?}, want {prefix:?}"
                )
            }
            _ => panic!("{name}: got {whole:?}, want {want:?}"),
        }
    }
}

/// A reply line past the cap is malformed as soon as the cap is passed:
/// it carries no LF and the server keeps the connection open, so waiting
/// for the LF would end in a transport timeout instead.
#[test]
fn over_long_reply_is_malformed_wherever_it_splits() {
    let mut reply = b"OK id=t-1 ".to_vec();
    reply.resize(MAX_RESPONSE_LINE + 64, b'x');
    for k in [5, MAX_RESPONSE_LINE - 1] {
        let got = outcome(&reply, Send::SplitAt(k));
        assert_eq!(
            got,
            Err("malformed: reply line too long".to_string()),
            "split at byte {k}"
        );
    }
}
