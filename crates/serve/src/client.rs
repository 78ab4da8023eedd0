//! Clients for the serve wire protocol, with the error partition the
//! retry logic needs: transport errors (connect refused, reset, timeout
//! — always retryable), typed server errors (retryable per
//! [`ErrorKind::retryable`]), and *malformed* responses (a protocol
//! violation; never retried, and required to be zero across the kill -9
//! chaos scenario).
//!
//! [`Client`] opens one connection per request — the conservative
//! baseline. [`PipelinedConn`] holds a keep-alive connection and lets
//! the caller write a whole burst of request lines before reading the
//! replies back in order.
//!
//! Both share one reply path. Every blocking socket read in this crate
//! (the two clients, the `METRICS` scrape and the server's health port)
//! goes through one framed reader, `next_line`, built on [`FrameBuf`]:
//! the lines it yields do not depend on where reads split the stream,
//! and a line over the cap fails as soon as the cap is passed. Every
//! path reply, from [`Client`] or from either load-generator worker, is
//! judged by one classifier, `classify_path_reply`: the echoed ID, the
//! endpoints, and mesh-adjacent hops.

use crate::wire::{self, ErrorKind, FrameBuf, Framed, Response, MAX_RESPONSE_LINE};
use oblivion_mesh::{Coord, Mesh};
use std::io::{ErrorKind as IoKind, Read as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest `METRICS` exposition a scrape accepts, in bytes.
const MAX_EXPOSITION: usize = 1 << 20;

/// Why a request failed.
#[derive(Debug)]
pub enum ClientError {
    /// The bytes never made it there and back (connect/read/write
    /// failure or timeout). Always retryable.
    Transport(std::io::Error),
    /// The server answered with a typed wire error.
    Server(ErrorKind, String),
    /// The server answered with bytes that are not a protocol line —
    /// the one bucket that must stay empty.
    Malformed(String),
}

impl ClientError {
    /// Whether retrying the identical request can help.
    pub fn retryable(&self) -> bool {
        match self {
            ClientError::Transport(_) => true,
            ClientError::Server(kind, _) => kind.retryable(),
            ClientError::Malformed(_) => false,
        }
    }
}

/// A transport error with a fixed description.
pub(crate) fn transport(kind: IoKind, why: &str) -> ClientError {
    ClientError::Transport(std::io::Error::new(kind, why))
}

/// A resolved server address plus the per-attempt socket budget.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
}

impl Client {
    /// Resolves `addr` (e.g. `127.0.0.1:4701`) once, up front.
    pub fn new(addr: &str, timeout: Duration) -> std::io::Result<Client> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(IoKind::InvalidInput, "address resolved to nothing")
        })?;
        Ok(Client { addr, timeout })
    }

    /// A client for an already-resolved address.
    pub fn to(addr: SocketAddr, timeout: Duration) -> Client {
        Client { addr, timeout }
    }

    /// One request, one connection, one response line; returns the
    /// payload of the `OK` answer.
    pub fn round_trip(&self, request_line: &str) -> Result<String, ClientError> {
        match wire::parse_response(&self.exchange(request_line)?).map_err(ClientError::Malformed)? {
            Response::Ok(payload) => Ok(payload),
            Response::Err(kind, detail) => Err(ClientError::Server(kind, detail)),
        }
    }

    /// One request, one connection, one raw response line.
    fn exchange(&self, request_line: &str) -> Result<String, ClientError> {
        let deadline = Instant::now() + self.timeout;
        let mut conn =
            PipelinedConn::connect(self.addr, self.timeout).map_err(ClientError::Transport)?;
        conn.send_burst(request_line, deadline)
            .map_err(ClientError::Transport)?;
        conn.recv_line(deadline)
    }

    /// Requests a path for `(seed, src, dst)` and parses the hops,
    /// validating them against `mesh`. Any structural violation (bad
    /// hop token, wrong endpoints, non-adjacent step) counts as
    /// [`ClientError::Malformed`].
    pub fn request_path(
        &self,
        mesh: &Mesh,
        seed: u64,
        src: &Coord,
        dst: &Coord,
    ) -> Result<Vec<Coord>, ClientError> {
        self.request_path_with_id(mesh, seed, src, dst, None)
    }

    /// [`Client::request_path`] with an optional client-supplied trace
    /// ID. When `id` is given, the server must echo it byte-for-byte on
    /// the `OK` reply (and does on any post-read `ERR`); a missing or
    /// mangled echo counts as [`ClientError::Malformed`].
    pub fn request_path_with_id(
        &self,
        mesh: &Mesh,
        seed: u64,
        src: &Coord,
        dst: &Coord,
        id: Option<&str>,
    ) -> Result<Vec<Coord>, ClientError> {
        self.request_path_on(mesh, None, seed, src, dst, id)
    }

    /// [`Client::request_path_with_id`] addressed to a named mesh on a
    /// multi-tenant server: the request line is prefixed `MESH <id> `
    /// so it routes on that tenant's mesh (and is charged to its
    /// quota). `mesh_id: None` sends the bare single-tenant line,
    /// byte-identical to [`Client::request_path_with_id`].
    pub fn request_path_on(
        &self,
        mesh: &Mesh,
        mesh_id: Option<&str>,
        seed: u64,
        src: &Coord,
        dst: &Coord,
        id: Option<&str>,
    ) -> Result<Vec<Coord>, ClientError> {
        let line = path_request_line(mesh, mesh_id, seed, src, dst, id);
        classify_path_reply(mesh, &self.exchange(&line)?, src, dst, id)
    }

    /// Sends a probe (`HEALTH` or `READY`) and returns the payload of an
    /// `OK` answer.
    pub fn probe(&self, what: &str) -> Result<String, ClientError> {
        self.round_trip(&format!("{what}\n"))
    }

    /// Sends `METRICS` and reads the multi-line exposition one line at a
    /// time up to its `# EOF` terminator (or the peer's close). Returns
    /// the raw text; parse it with [`crate::metrics::parse_exposition`],
    /// whose terminator check catches truncated scrapes. A hard 1 MiB cap
    /// keeps a misbehaving peer from ballooning memory.
    pub fn scrape(&self) -> Result<String, ClientError> {
        let deadline = Instant::now() + self.timeout;
        let mut conn = PipelinedConn::open(self.addr, self.timeout, MAX_EXPOSITION)
            .map_err(ClientError::Transport)?;
        conn.send_burst("METRICS\n", deadline)
            .map_err(ClientError::Transport)?;
        // Half-close: we have nothing more to say, and the EOF tells a
        // keep-alive server to close its side once the reply is out.
        let _ = conn.stream.shutdown(std::net::Shutdown::Write);
        let mut body = String::new();
        while let Some(line) = next_line(&mut conn.fb, &conn.stream, deadline)? {
            body.push_str(&line);
            body.push('\n');
            if body.len() > MAX_EXPOSITION {
                return Err(ClientError::Malformed(
                    "metrics exposition exceeds 1 MiB".into(),
                ));
            }
            if line == "# EOF" {
                break;
            }
        }
        Ok(body)
    }
}

/// The wire line of a `PATH` request: an optional `MESH <id> ` prefix and
/// an optional trailing `id=<token>`.
pub(crate) fn path_request_line(
    mesh: &Mesh,
    mesh_id: Option<&str>,
    seed: u64,
    src: &Coord,
    dst: &Coord,
    id: Option<&str>,
) -> String {
    let prefix = mesh_id.map_or(String::new(), |mid| format!("MESH {mid} "));
    let id_field = id.map_or(String::new(), |id| format!(" id={id}"));
    format!(
        "{prefix}PATH {seed} {} {}{id_field}\n",
        wire::format_coord(src, mesh.dim()),
        wire::format_coord(dst, mesh.dim())
    )
}

/// The one reply classifier: judges the reply `line` to a `PATH` request
/// for `src -> dst` sent with trace ID `id`.
///
/// When an ID was sent, an `OK` reply must echo it byte-for-byte. An
/// `ERR` reply may carry no ID (admission shed and the slow-loris
/// deadline answer before the line is read), but one that contradicts
/// the request means the stream desynchronized. An `OK` payload must
/// parse as hops on `mesh`, start at `src`, end at `dst`, and take only
/// mesh-adjacent steps. Any violation is [`ClientError::Malformed`]; a
/// well-formed `ERR` is [`ClientError::Server`].
pub(crate) fn classify_path_reply(
    mesh: &Mesh,
    line: &str,
    src: &Coord,
    dst: &Coord,
    id: Option<&str>,
) -> Result<Vec<Coord>, ClientError> {
    let (response, echoed) = wire::parse_response_with_id(line).map_err(ClientError::Malformed)?;
    let payload = match (response, id) {
        (Response::Ok(_), Some(want)) if echoed.as_deref() != Some(want) => {
            return Err(ClientError::Malformed(format!(
                "request id not echoed: sent `{want}`, got {echoed:?}"
            )))
        }
        (Response::Err(..), Some(want)) if echoed.as_deref().is_some_and(|got| got != want) => {
            return Err(ClientError::Malformed(format!(
                "request id mangled on error reply: sent `{want}`, got {echoed:?}"
            )))
        }
        (Response::Ok(payload), _) => payload,
        (Response::Err(kind, detail), _) => return Err(ClientError::Server(kind, detail)),
    };
    let hops = payload
        .split_ascii_whitespace()
        .map(|tok| wire::parse_coord(tok, mesh))
        .collect::<Result<Vec<Coord>, String>>()
        .map_err(ClientError::Malformed)?;
    if hops.first() != Some(src) || hops.last() != Some(dst) {
        return Err(ClientError::Malformed(format!(
            "path endpoints do not match the request: `{payload}`"
        )));
    }
    if let Some(pair) = hops.windows(2).find(|p| !mesh.adjacent(&p[0], &p[1])) {
        return Err(ClientError::Malformed(format!(
            "non-adjacent hop {} -> {}",
            wire::format_coord(&pair[0], mesh.dim()),
            wire::format_coord(&pair[1], mesh.dim())
        )));
    }
    Ok(hops)
}

/// The one framed reader behind every blocking socket read in this
/// crate. Pops the next line (CR/LF stripped) out of `fb`, reading
/// `stream` only when no complete line is buffered, and re-arms the read
/// timeout with what is left of `deadline` before every read, so a
/// trickling peer cannot stretch the call past it. `Ok(None)` is a clean
/// EOF between lines; EOF mid-line is a transport error. A line over the
/// framer's cap is [`ClientError::Malformed`] as soon as the cap is
/// passed, without waiting for its LF.
pub(crate) fn next_line(
    fb: &mut FrameBuf,
    stream: &TcpStream,
    deadline: Instant,
) -> Result<Option<String>, ClientError> {
    let mut chunk = [0u8; 4096];
    // Only a read that brought an LF can complete a line; popping after
    // the others would rescan a long partial line once per read.
    let mut pop = true;
    loop {
        match if pop { fb.next_line() } else { None } {
            Some(Framed::Line(line)) => return Ok(Some(line)),
            Some(Framed::Bad(why)) => {
                return Err(ClientError::Malformed(why.replace("request", "reply")))
            }
            None if fb.is_poisoned() => {
                return Err(ClientError::Malformed("reply line too long".into()))
            }
            None => {}
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(transport(IoKind::TimedOut, "reply deadline expired"));
        }
        stream
            .set_read_timeout(Some(remaining))
            .map_err(ClientError::Transport)?;
        match (&mut &*stream).read(&mut chunk) {
            Ok(0) if fb.has_partial() => {
                // A dead or dying peer truncates mid-line; that is a
                // transport failure, not a protocol violation.
                return Err(transport(
                    IoKind::UnexpectedEof,
                    "connection closed mid-line",
                ));
            }
            Ok(0) => return Ok(None),
            Ok(n) => {
                fb.extend(&chunk[..n]);
                pop = chunk[..n].contains(&b'\n');
            }
            Err(e) if e.kind() == IoKind::Interrupted => {}
            Err(e) if matches!(e.kind(), IoKind::WouldBlock | IoKind::TimedOut) => {
                return Err(transport(IoKind::TimedOut, "reply deadline expired"))
            }
            Err(e) => return Err(ClientError::Transport(e)),
        }
    }
}

/// A persistent, pipelined connection: the caller may write many
/// request lines (ideally as one burst) before reading any reply, and
/// the server answers strictly in request order. Replies are framed by
/// `next_line`, so a single read may surface several reply lines.
pub struct PipelinedConn {
    stream: TcpStream,
    fb: FrameBuf,
}

impl PipelinedConn {
    /// Connects with `timeout` as the connect budget.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<PipelinedConn> {
        Self::open(addr, timeout, MAX_RESPONSE_LINE)
    }

    /// Connects, framing replies of at most `max_line` bytes.
    fn open(addr: SocketAddr, timeout: Duration, max_line: usize) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        let _ = stream.set_nodelay(true);
        Ok(PipelinedConn {
            stream,
            fb: FrameBuf::new(max_line),
        })
    }

    /// Writes `burst` (one or more `\n`-terminated request lines) with a
    /// single syscall, honoring `deadline` as the write budget.
    pub fn send_burst(&mut self, burst: &str, deadline: Instant) -> std::io::Result<()> {
        wire::write_line(&self.stream, burst, deadline)
    }

    /// Reads the next reply line (CR/LF stripped), honoring `deadline`.
    /// Replies arrive in request order; the caller matches them to its
    /// send window (and should verify the echoed IDs).
    pub fn recv_line(&mut self, deadline: Instant) -> Result<String, ClientError> {
        next_line(&mut self.fb, &self.stream, deadline)?.ok_or_else(|| {
            transport(
                IoKind::UnexpectedEof,
                "connection closed with replies outstanding",
            )
        })
    }
}
