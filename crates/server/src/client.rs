//! A tiny blocking client for the `histql` protocol, used by tests, the
//! benchmark harness, and as a reference implementation of both framings
//! (text lines and binary length-prefixed frames).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use histql::{Frame, Response, WireFormat};

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads the response (without the `END`
    /// sentinel).
    pub fn send(&mut self, request: &str) -> io::Result<Vec<String>> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.recv()
    }

    /// Reads one response (lines up to the `END` sentinel). Useful when the
    /// server talks first, e.g. the `ERR server busy` refusal.
    pub fn recv(&mut self) -> io::Result<Vec<String>> {
        // Response lines are short (one graph element each); a misbehaving
        // server must not be able to grow a single line without bound.
        const MAX_RESPONSE_LINE: usize = 1024 * 1024;
        let mut lines = Vec::new();
        let mut line = String::new();
        loop {
            match read_bounded_line(&mut self.reader, &mut line, MAX_RESPONSE_LINE)? {
                Some(()) => {}
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    ))
                }
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed == "END" {
                return Ok(lines);
            }
            lines.push(trimmed.to_string());
        }
    }

    /// Sends a request and fails unless the response starts with `OK`.
    pub fn send_ok(&mut self, request: &str) -> io::Result<Vec<String>> {
        let lines = self.send(request)?;
        match lines.first() {
            Some(first) if first.starts_with("OK") => Ok(lines),
            Some(first) => Err(io::Error::other(format!(
                "request {request:?} failed: {first}"
            ))),
            None => Err(io::Error::other(format!(
                "request {request:?} got an empty response"
            ))),
        }
    }

    /// Sends `QUIT` and waits for the goodbye, ignoring errors.
    pub fn quit(mut self) {
        let _ = self.send("QUIT");
    }

    // --- binary protocol --------------------------------------------------

    /// Switches the connection to binary responses: sends `PROTOCOL BINARY`
    /// and consumes the acknowledgment, which already arrives as a binary
    /// frame. Requests remain text lines.
    pub fn binary(&mut self) -> io::Result<()> {
        match self.send_binary("PROTOCOL BINARY")? {
            Frame::Response(Response::Protocol {
                mode: WireFormat::Binary,
            }) => Ok(()),
            other => Err(io::Error::other(format!(
                "unexpected PROTOCOL acknowledgment: {other:?}"
            ))),
        }
    }

    /// Sends one request line and reads one binary frame, decoded into the
    /// response envelope. Only valid after [`Client::binary`].
    pub fn send_binary(&mut self, request: &str) -> io::Result<Frame> {
        let payload = self.send_binary_raw(request)?;
        Frame::from_payload(&payload).map_err(io::Error::other)
    }

    /// Sends one request line and reads one binary frame's payload (version
    /// byte + envelope, after the length prefix) without decoding it —
    /// for callers that only need the bytes (e.g. throughput harnesses).
    pub fn send_binary_raw(&mut self, request: &str) -> io::Result<Vec<u8>> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.recv_binary_raw()
    }

    /// Reads one binary frame's payload.
    pub fn recv_binary_raw(&mut self) -> io::Result<Vec<u8>> {
        let mut len_bytes = [0u8; 4];
        self.reader.read_exact(&mut len_bytes)?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        // The length prefix is server-controlled, but a confused or
        // malicious peer must not make us allocate without bound.
        if len == 0 || len > histql::MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("implausible frame length {len}"),
            ));
        }
        let mut payload = vec![0u8; len];
        self.reader.read_exact(&mut payload)?;
        Ok(payload)
    }
}

/// Reads one `\n`-terminated line without buffering more than `max` bytes:
/// `Ok(None)` on a clean EOF, `Err(InvalidData)` when the cap is exceeded
/// (the line is abandoned unread). `read_line` alone would buffer an entire
/// newline-less stream into memory before any length check could run.
fn read_bounded_line(
    reader: &mut impl BufRead,
    line: &mut String,
    max: usize,
) -> io::Result<Option<()>> {
    line.clear();
    let mut bytes = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF: a non-empty unterminated tail still counts as a line.
            return Ok(if bytes.is_empty() {
                None
            } else {
                *line = String::from_utf8_lossy(&bytes).into_owned();
                Some(())
            });
        }
        let (chunk, found) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (&buf[..=i], true),
            None => (buf, false),
        };
        if bytes.len() + chunk.len() > max {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "line exceeds maximum length",
            ));
        }
        bytes.extend_from_slice(chunk);
        let consumed = chunk.len();
        reader.consume(consumed);
        if found {
            *line = String::from_utf8_lossy(&bytes).into_owned();
            return Ok(Some(()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_line_reader_rejects_newline_less_floods() {
        use std::io::Cursor;
        let mut line = String::new();
        // A 1 MiB stream with no newline must be rejected once the cap is
        // exceeded, long before the whole stream is buffered.
        let flood = vec![b'a'; 1024 * 1024];
        let mut r = std::io::BufReader::new(Cursor::new(flood));
        let err = read_bounded_line(&mut r, &mut line, 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Normal lines and EOF behave like read_line.
        let mut r = std::io::BufReader::new(Cursor::new(b"hello\nworld".to_vec()));
        assert!(read_bounded_line(&mut r, &mut line, 4096)
            .unwrap()
            .is_some());
        assert_eq!(line, "hello\n");
        assert!(read_bounded_line(&mut r, &mut line, 4096)
            .unwrap()
            .is_some());
        assert_eq!(line, "world");
        assert!(read_bounded_line(&mut r, &mut line, 4096)
            .unwrap()
            .is_none());
    }
}
