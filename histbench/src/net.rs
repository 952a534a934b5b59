//! A raw protocol client that keeps replies as bytes, so they can be
//! compared byte-for-byte with reference renderings.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Whether a complete text reply ends this buffer: its last line is `END`.
pub fn ends_text_reply(buf: &[u8]) -> bool {
    buf == b"END\n" || buf.ends_with(b"\nEND\n")
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(256 * 1024, stream.try_clone()?),
            writer: stream,
        })
    }

    pub fn stream(&self) -> &TcpStream {
        &self.writer
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Reads one text reply, `END` line included, appending it to `out`.
    pub fn read_text(&mut self, out: &mut Vec<u8>) -> io::Result<()> {
        let start = out.len();
        loop {
            let before = out.len();
            if self.reader.read_until(b'\n', out)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-reply",
                ));
            }
            if &out[before..] == b"END\n" {
                debug_assert!(ends_text_reply(&out[start..]));
                return Ok(());
            }
        }
    }

    /// Reads one binary frame (length prefix included), appending it to
    /// `out`.
    pub fn read_binary(&mut self, out: &mut Vec<u8>) -> io::Result<()> {
        let mut len = [0u8; 4];
        self.reader.read_exact(&mut len)?;
        let n = u32::from_le_bytes(len) as usize;
        if n == 0 || n > histql::MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "implausible frame length",
            ));
        }
        out.extend_from_slice(&len);
        let at = out.len();
        out.resize(at + n, 0);
        self.reader.read_exact(&mut out[at..])
    }

    pub fn text(&mut self, line: &str) -> io::Result<Vec<u8>> {
        self.send(line)?;
        let mut out = Vec::new();
        self.read_text(&mut out)?;
        Ok(out)
    }

    pub fn binary(&mut self, line: &str) -> io::Result<Vec<u8>> {
        self.send(line)?;
        let mut out = Vec::new();
        self.read_binary(&mut out)?;
        Ok(out)
    }

    /// Switches the session to binary replies (the ack is already binary).
    pub fn use_binary(&mut self) -> io::Result<()> {
        let ack = self.binary("PROTOCOL BINARY")?;
        match histql::Frame::from_payload(&ack[4..]) {
            Ok(histql::Frame::Response(histql::Response::Protocol { .. })) => Ok(()),
            other => Err(io::Error::other(format!(
                "unexpected PROTOCOL ack: {other:?}"
            ))),
        }
    }

    /// `STATS METRICS` decoded from a binary session.
    pub fn metrics(&mut self) -> io::Result<Vec<histql::MetricEntry>> {
        let bytes = self.binary("STATS METRICS")?;
        match histql::Frame::from_payload(&bytes[4..]) {
            Ok(histql::Frame::Response(histql::Response::Metrics { entries })) => Ok(entries),
            other => Err(io::Error::other(format!(
                "unexpected STATS METRICS reply: {other:?}"
            ))),
        }
    }
}

/// Whether a reply (either encoding) reports success: text replies start
/// with `OK`, binary frames carry the response tag (0) after the version.
pub fn is_ok(reply: &[u8], binary: bool) -> bool {
    if binary {
        reply.len() > 5 && reply[5] == 0
    } else {
        reply.starts_with(b"OK")
    }
}
