//! A minimal HTTP/1.1 client for the what-if service's isolation cell: one
//! request per connection, read to end of stream (the server closes every
//! connection).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One HTTP reply.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// Sends `POST path` with a JSON body and reads the whole reply.
///
/// # Errors
///
/// Connection and I/O failures, or a reply that is not HTTP.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<Reply> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP reply");
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}
