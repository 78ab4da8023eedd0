//! Incremental LF framing for pipelined byte streams.
//!
//! The serving layer's request framer. It survives garbage between
//! terminators and keeps memory bounded no matter what the peer sends.

/// One framing outcome popped off a [`FrameBuf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Framed {
    /// A complete line (CR/LF stripped, valid UTF-8, within the length
    /// cap).
    Line(String),
    /// A complete line that broke the framing rules (over-long or not
    /// UTF-8). The terminator was found, so the reader can answer in
    /// order and the stream stays in sync.
    Bad(&'static str),
}

/// Incremental LF framing for a pipelined connection.
///
/// Bytes read off the socket (or pipe) go in via [`FrameBuf::extend`];
/// complete lines pop out of [`FrameBuf::next_line`] one at a time, and
/// a partial trailing line survives untouched until the next read.
///
/// Memory stays bounded no matter what the peer sends: once an
/// unterminated line passes the `max_line` cap the buffer is poisoned
/// and further bytes are discarded until the next LF, which then yields
/// a single [`Framed::Bad`]. A peer that never sends the LF is handled
/// by the reader's per-line deadline on partial input, not by memory
/// growth here.
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    max_line: usize,
    poisoned: bool,
}

impl FrameBuf {
    /// An empty buffer enforcing `max_line` bytes per line.
    pub fn new(max_line: usize) -> Self {
        Self {
            buf: Vec::new(),
            max_line,
            poisoned: false,
        }
    }

    /// Appends bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.poisoned {
            // Discard up to (and excluding) the resynchronizing LF.
            match bytes.iter().position(|&b| b == b'\n') {
                Some(nl) => self.buf.extend_from_slice(&bytes[nl..]),
                None => return,
            }
        } else {
            self.buf.extend_from_slice(bytes);
        }
        // Over-long unterminated tail: poison and drop the bytes so a
        // hostile peer cannot grow server memory (slow-loris defence).
        if !self.buf.contains(&b'\n') && self.buf.len() > self.max_line {
            self.buf.clear();
            self.poisoned = true;
        }
    }

    /// Pops the next complete line, if any. `None` means every buffered
    /// byte belongs to a still-partial trailing line.
    pub fn next_line(&mut self) -> Option<Framed> {
        let nl = match self.buf.iter().position(|&b| b == b'\n') {
            Some(nl) => nl,
            None => {
                if !self.poisoned && self.buf.len() > self.max_line {
                    self.buf.clear();
                    self.poisoned = true;
                }
                return None;
            }
        };
        let line: Vec<u8> = self.buf.drain(..=nl).collect();
        let mut line = &line[..nl];
        if self.poisoned {
            // The LF resynchronized the stream; the discarded line
            // becomes one in-order error.
            self.poisoned = false;
            return Some(Framed::Bad("request line too long"));
        }
        if line.ends_with(b"\r") {
            line = &line[..line.len() - 1];
        }
        if line.len() > self.max_line {
            return Some(Framed::Bad("request line too long"));
        }
        match std::str::from_utf8(line) {
            Ok(s) => Some(Framed::Line(s.to_string())),
            Err(_) => Some(Framed::Bad("request line is not valid UTF-8")),
        }
    }

    /// Whether a partial (unterminated) line is pending — including a
    /// poisoned one still awaiting its resynchronizing LF. Readers apply
    /// their per-line deadline to this state.
    pub fn has_partial(&self) -> bool {
        self.poisoned || !self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_pipelined_lines_across_reads() {
        let mut fb = FrameBuf::new(64);
        fb.extend(b"alpha\nbra");
        assert_eq!(fb.next_line(), Some(Framed::Line("alpha".into())));
        assert_eq!(fb.next_line(), None);
        assert!(fb.has_partial());
        fb.extend(b"vo\r\n");
        assert_eq!(fb.next_line(), Some(Framed::Line("bravo".into())));
        assert_eq!(fb.next_line(), None);
        assert!(!fb.has_partial());
    }

    #[test]
    fn overlong_line_poisons_and_resynchronizes() {
        let mut fb = FrameBuf::new(8);
        fb.extend(&[b'x'; 64]);
        assert_eq!(fb.next_line(), None);
        fb.extend(b"tail\nok\n");
        assert_eq!(fb.next_line(), Some(Framed::Bad("request line too long")));
        assert_eq!(fb.next_line(), Some(Framed::Line("ok".into())));
    }

    #[test]
    fn non_utf8_line_is_bad_but_stream_recovers() {
        let mut fb = FrameBuf::new(64);
        fb.extend(&[0xFF, 0xFE, b'\n', b'o', b'k', b'\n']);
        assert_eq!(
            fb.next_line(),
            Some(Framed::Bad("request line is not valid UTF-8"))
        );
        assert_eq!(fb.next_line(), Some(Framed::Line("ok".into())));
    }
}
