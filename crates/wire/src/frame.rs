//! Incremental LF framing for pipelined byte streams.
//!
//! The serving layer's line framer, on both ends of the wire. It
//! survives garbage between terminators and keeps memory bounded no
//! matter what the peer sends.

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
/// Popping a line only advances a read cursor; the popped bytes are
/// reclaimed once per `extend`, so a read of many pipelined lines costs
/// one move of its partial tail, not one per line.
///
/// Memory stays bounded no matter what the peer sends: once an
/// unterminated line passes `max_line + 1` bytes (the cap does not count
/// a line's CR) the buffer is poisoned and further bytes are discarded
/// until the next LF, which then yields a single [`Framed::Bad`]. A
/// reader that pops every line after each `extend` never holds more than
/// `max_line + 1` bytes plus one read, and where reads split the stream
/// never changes the lines that pop out. A peer that never sends the LF
/// is handled by the reader's per-line deadline on partial input, not by
/// memory growth here.
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Read cursor: `buf[..start]` holds lines already popped.
    start: usize,
    max_line: usize,
    poisoned: bool,
}

impl FrameBuf {
    /// An empty buffer enforcing `max_line` bytes per line.
    pub fn new(max_line: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            max_line,
            poisoned: false,
        }
    }

    /// Appends bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        if self.poisoned && self.buf.is_empty() {
            // Discard up to (and excluding) the resynchronizing LF. Once
            // that LF is buffered, later bytes are kept as they come.
            match bytes.iter().position(|&b| b == b'\n') {
                Some(nl) => self.buf.extend_from_slice(&bytes[nl..]),
                None => return,
            }
        } else {
            self.buf.extend_from_slice(bytes);
        }
        // Over-long unterminated tail: poison and drop the bytes so a
        // hostile peer cannot grow server memory (slow-loris defence).
        if self.buf.len() > self.max_line + 1 && !self.buf.contains(&b'\n') {
            self.buf.clear();
            self.poisoned = true;
        }
    }

    /// Pops the next complete line, if any. `None` means every buffered
    /// byte belongs to a still-partial trailing line.
    pub fn next_line(&mut self) -> Option<Framed> {
        let rest = &self.buf[self.start..];
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            if !self.poisoned && rest.len() > self.max_line + 1 {
                self.buf.clear();
                self.start = 0;
                self.poisoned = true;
            }
            return None;
        };
        let framed = if self.poisoned {
            // The LF resynchronized the stream; the discarded line
            // becomes one in-order error.
            self.poisoned = false;
            Framed::Bad("request line too long")
        } else {
            let line = rest[..nl].strip_suffix(b"\r").unwrap_or(&rest[..nl]);
            if line.len() > self.max_line {
                Framed::Bad("request line too long")
            } else {
                match std::str::from_utf8(line) {
                    Ok(s) => Framed::Line(s.to_owned()),
                    Err(_) => Framed::Bad("request line is not valid UTF-8"),
                }
            }
        };
        self.start += nl + 1;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Some(framed)
    }

    /// Whether a partial (unterminated) line is pending — including a
    /// poisoned one still awaiting its resynchronizing LF. Readers apply
    /// their per-line deadline to this state.
    pub fn has_partial(&self) -> bool {
        self.poisoned || self.start < self.buf.len()
    }

    /// Whether an over-long line was discarded and its resynchronizing LF
    /// is still awaited. A reader that wants one line at a time can fail
    /// that line here instead of waiting for the LF.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
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

    #[test]
    fn poisoned_buffer_keeps_reads_after_its_lf_until_popped() {
        let mut fb = FrameBuf::new(4);
        fb.extend(b"xxxxxxxx");
        fb.extend(b"x\nab");
        // A second read before the lines are popped is kept whole, not
        // searched for another resynchronizing LF.
        fb.extend(b"c\nd\n");
        assert_eq!(fb.next_line(), Some(Framed::Bad("request line too long")));
        assert_eq!(fb.next_line(), Some(Framed::Line("abc".into())));
        assert_eq!(fb.next_line(), Some(Framed::Line("d".into())));
        assert_eq!(fb.next_line(), None);
        assert!(!fb.has_partial());
        assert!(fb.buf.is_empty());
    }
}

/// Hostile-input properties. Streams mix plain, CRLF, empty, over-long
/// and non-UTF-8 lines with a trailing partial, on caps small enough that
/// poisoning is common. The lines that pop out must not depend on where
/// reads split the stream, memory must stay within the cap plus one read,
/// and `has_partial` must agree with the original framer, kept here as
/// the oracle.
#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// The original framer: `drain(..=nl).collect()` per line, poisoning any
    /// unterminated tail longer than the cap.
    struct Oracle {
        buf: Vec<u8>,
        max_line: usize,
        poisoned: bool,
    }

    impl Oracle {
        fn new(max_line: usize) -> Self {
            Oracle {
                buf: Vec::new(),
                max_line,
                poisoned: false,
            }
        }

        fn extend(&mut self, bytes: &[u8]) {
            if self.poisoned {
                match bytes.iter().position(|&b| b == b'\n') {
                    Some(nl) => self.buf.extend_from_slice(&bytes[nl..]),
                    None => return,
                }
            } else {
                self.buf.extend_from_slice(bytes);
            }
            if !self.buf.contains(&b'\n') && self.buf.len() > self.max_line {
                self.buf.clear();
                self.poisoned = true;
            }
        }

        fn next_line(&mut self) -> Option<Framed> {
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

        fn has_partial(&self) -> bool {
            self.poisoned || !self.buf.is_empty()
        }
    }

    /// Builds a stream from `(kind, len)` segments against cap `max_line`,
    /// ending in an unterminated partial of `tail` bytes.
    fn stream(max_line: usize, segments: &[(u8, usize)], tail: usize) -> Vec<u8> {
        let text = |n: usize| -> Vec<u8> { (0..n).map(|i| b'a' + (i % 26) as u8).collect() };
        let mut s = Vec::new();
        for &(kind, len) in segments {
            match kind {
                0 => s.extend(text(len % (max_line + 1))),
                1 => {
                    s.extend(text(len % (max_line + 1)));
                    s.push(b'\r');
                }
                // Over the cap, with and without a CR.
                2 => s.extend(text(max_line + 1 + len)),
                3 => {
                    s.extend(text(max_line + len));
                    s.push(b'\r');
                }
                // Exactly at the cap, CRLF-terminated: the split-sensitive edge.
                4 => {
                    s.extend(text(max_line));
                    s.push(b'\r');
                }
                // Not UTF-8 (a lone continuation byte or an invalid lead).
                5 => {
                    s.extend(text(len % max_line));
                    s.push(if len % 2 == 0 { 0x80 } else { 0xFF });
                }
                // A stray CR mid-line.
                6 => {
                    s.extend(text(len % max_line));
                    s.extend(b"\r\r");
                }
                // An empty line.
                _ => {}
            }
            s.push(b'\n');
        }
        s.extend(text(tail));
        s
    }

    /// What one feeding produced: the popped lines and the final
    /// `has_partial`.
    type Fed = (Vec<Framed>, bool);

    /// Feeds `chunks` in order, popping every line after each read; checks
    /// the memory bound and `has_partial` against the oracle at every step.
    fn feed<'a>(
        max_line: usize,
        chunks: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<Fed, TestCaseError> {
        let mut fb = FrameBuf::new(max_line);
        let mut oracle = Oracle::new(max_line);
        let mut frames = Vec::new();
        for chunk in chunks {
            fb.extend(chunk);
            oracle.extend(chunk);
            let bound = max_line + 1 + chunk.len();
            prop_assert!(
                fb.buf.len() <= bound,
                "retained {} > {bound} after extend",
                fb.buf.len()
            );
            while let Some(f) = fb.next_line() {
                frames.push(f);
            }
            while oracle.next_line().is_some() {}
            prop_assert!(fb.buf.len() <= bound);
            prop_assert_eq!(fb.has_partial(), oracle.has_partial());
        }
        Ok((frames, fb.has_partial()))
    }

    fn arb_stream() -> impl Strategy<Value = (usize, Vec<u8>)> {
        (
            1usize..20,
            prop::collection::vec((0u8..8, 0usize..40), 0..12),
            0usize..30,
        )
            .prop_map(|(max_line, segments, tail)| (max_line, stream(max_line, &segments, tail)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Splitting the stream into two reads at any byte offset yields the
        /// same lines, in the same order, as one read of the whole.
        #[test]
        fn frames_do_not_depend_on_a_split((max_line, s) in arb_stream()) {
            let whole = feed(max_line, [s.as_slice()])?;
            for k in 0..=s.len() {
                let split = feed(max_line, [&s[..k], &s[k..]])?;
                prop_assert_eq!(&split, &whole, "split at byte {}", k);
            }
        }

        /// Reads of arbitrary sizes, down to one byte at a time, yield the
        /// same lines as one read; fed whole, the lines match the oracle's.
        #[test]
        fn frames_do_not_depend_on_read_sizes(
            (max_line, s) in arb_stream(),
            sizes in prop::collection::vec(1usize..16, 1..8),
        ) {
            let whole = feed(max_line, [s.as_slice()])?;
            let mut oracle = Oracle::new(max_line);
            oracle.extend(&s);
            let expected: Vec<Framed> = std::iter::from_fn(|| oracle.next_line()).collect();
            prop_assert_eq!(&whole.0, &expected);
            let mut chunks = Vec::new();
            let mut at = 0;
            for &n in sizes.iter().cycle() {
                if at >= s.len() {
                    break;
                }
                let end = (at + n).min(s.len());
                chunks.push(&s[at..end]);
                at = end;
            }
            prop_assert_eq!(&feed(max_line, chunks)?, &whole);
            prop_assert_eq!(&feed(max_line, s.chunks(1))?, &whole);
        }
    }

    #[test]
    fn crlf_line_at_the_cap_survives_a_split_between_cr_and_lf() {
        let s = b"abcdefgh\r\nok\n";
        let whole = feed(8, [&s[..]]).expect("whole");
        assert_eq!(
            whole.0,
            vec![Framed::Line("abcdefgh".into()), Framed::Line("ok".into())]
        );
        assert_eq!(feed(8, [&s[..9], &s[9..]]).expect("split"), whole);
    }
}
