//! The benchmark's side of the wire: reply classification, the request
//! ledger, and a blocking, optionally pipelined connection.

use pfdbg_obs::{parse_jsonl, Event, JsonValue};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};

/// How one reply ended.
#[derive(Debug)]
pub enum Reply {
    Ok(Event),
    /// Shed at a full shard inbox (or a migrating device).
    Overloaded,
    Failed(String),
}

pub fn classify(line: &str) -> Reply {
    let ev = match parse_jsonl(line) {
        Ok(mut evs) if evs.len() == 1 => evs.remove(0),
        _ => return Reply::Failed(format!("unparsable reply {line:?}")),
    };
    if ev.fields.get("ok") == Some(&JsonValue::Bool(true)) {
        Reply::Ok(ev)
    } else if ev.str("kind") == Some("overloaded") {
        Reply::Overloaded
    } else {
        Reply::Failed(ev.str("error").unwrap_or("error reply without a message").to_string())
    }
}

/// Every issued request lands in exactly one bucket.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub issued: u64,
    pub ok: u64,
    pub overloaded: u64,
    pub failed: u64,
    /// Issued, but no reply arrived before the run gave up waiting.
    pub missing: u64,
}

impl Ledger {
    /// Count one reply; returns the parsed event when it succeeded.
    pub fn record(&mut self, line: &str) -> Option<Event> {
        match classify(line) {
            Reply::Ok(ev) => {
                self.ok += 1;
                Some(ev)
            }
            Reply::Overloaded => {
                self.overloaded += 1;
                None
            }
            Reply::Failed(e) => {
                if self.failed < 5 {
                    eprintln!("perfbench: error reply: {e}");
                }
                self.failed += 1;
                None
            }
        }
    }

    /// Close the books: whatever was issued and neither answered nor
    /// refused is missing.
    pub fn settle(&mut self) {
        self.missing = self.issued - self.ok - self.overloaded - self.failed;
    }

    pub fn balanced(&self) -> bool {
        self.issued == self.ok + self.overloaded + self.failed + self.missing
    }

    /// Requests that did not complete: errors, refusals and losses.
    pub fn not_ok(&self) -> u64 {
        self.overloaded + self.failed + self.missing
    }
}

/// A blocking connection. Requests may be pipelined: the server
/// answers each connection's requests in the order they were sent.
pub struct BlockingConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl BlockingConn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<BlockingConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server fails the run instead of hanging it.
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        let writer = stream.try_clone()?;
        Ok(BlockingConn { reader: BufReader::new(stream), writer, line: String::new() })
    }

    /// Send one request line.
    pub fn send(&mut self, request: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(request.len() + 1);
        buf.extend_from_slice(request.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Wait for the next reply line.
    pub fn recv(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "server closed"));
        }
        Ok(self.line.trim_end())
    }

    /// One request line out, one reply line in.
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<&str> {
        self.send(request)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_balances_over_every_outcome() {
        let mut l = Ledger::default();
        let replies = [
            "{\"ok\":true,\"op\":\"select\",\"id\":\"0\"}",
            "{\"ok\":false,\"error\":\"overloaded: shard inbox is full\",\"kind\":\"overloaded\"}",
            "{\"ok\":false,\"error\":\"no such session\"}",
            "not json",
            "{\"ok\":true,\"op\":\"scrub\",\"id\":\"4\"}",
        ];
        l.issued = 7;
        for r in replies {
            l.record(r);
        }
        l.settle();
        assert_eq!((l.ok, l.overloaded, l.failed, l.missing), (2, 1, 2, 2));
        assert!(l.balanced());
        assert_eq!(l.not_ok(), 5);
    }

    #[test]
    fn ok_replies_come_back_parsed() {
        let mut l = Ledger { issued: 1, ..Default::default() };
        let ev = l.record("{\"ok\":true,\"params\":\"0101\",\"transfer_us\":12.5}").unwrap();
        assert_eq!(ev.str("params"), Some("0101"));
        assert_eq!(ev.num("transfer_us"), Some(12.5));
    }
}
