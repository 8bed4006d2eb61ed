//! A minimal blocking HTTP/1.1 client for loopback use: integration
//! tests, the latency benchmark and the CI smoke step. Keep-alive by
//! default — one [`Client`] holds one connection and reuses it across
//! requests, which is exactly the path the server's keep-alive loop
//! needs exercised.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::http::MAX_HEAD_BYTES;

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns an error when the body is not UTF-8.
    pub fn text(&self) -> io::Result<&str> {
        std::str::from_utf8(&self.body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))
    }

    /// Deserializes the JSON body.
    ///
    /// # Errors
    ///
    /// Returns an error when the body is not valid JSON of shape `T`.
    pub fn json<T: Deserialize>(&self) -> io::Result<T> {
        serde_json::from_slice(&self.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Transport timeouts of a [`Client`] connection.
///
/// The default keeps the historical behavior: a generous 30 s read
/// timeout so a wedged server fails a test instead of hanging it.
/// Connecting always uses the OS default timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClientConfig {
    /// Bound on each blocking read; `None` blocks forever.
    read_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects with a 30 s read timeout and the OS default connect
    /// timeout.
    ///
    /// # Errors
    ///
    /// Returns the connect/configuration error, if any.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit read timeout.
    ///
    /// # Errors
    ///
    /// Returns the connect/configuration error, if any.
    fn connect_with<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(config.read_timeout)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads the response off the same
    /// connection.
    ///
    /// # Errors
    ///
    /// Returns the transport error or a parse failure.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        let body = body.unwrap_or(&[]);
        let written = write!(
            self.stream,
            "{method} {path} HTTP/1.1\r\nhost: mood-serve\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\r\n",
            body.len()
        )
        .and_then(|()| self.stream.write_all(body))
        .and_then(|()| self.stream.flush());
        match written {
            Ok(()) => self.read_response(),
            // The server may have answered-and-closed before we wrote
            // (load shedding does exactly that); a response can still be
            // sitting in the receive buffer — prefer it over the EPIPE.
            Err(write_err) => self.read_response().map_err(|_| write_err),
        }
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// Returns the transport error or a parse failure.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// Returns the transport error, a serialization failure or a parse
    /// failure.
    pub fn post_json<T: Serialize>(&mut self, path: &str, value: &T) -> io::Result<ClientResponse> {
        let mut body = Vec::with_capacity(256);
        serde_json::to_writer(&mut body, value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.request("POST", path, Some(&body))
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let mut scanned = 0;
        let head_len = loop {
            if let Some(end) = crate::http::head_end(&self.buf, &mut scanned) {
                break end;
            }
            // The server's head cap holds here too: a peer that never
            // ends its head must not grow this buffer without bound.
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response head exceeds {MAX_HEAD_BYTES} bytes"),
                ));
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before response head",
                ));
            }
        };
        // Same head-splitting rules as the server (crate::http).
        let (status_line, headers) = crate::http::split_head(&self.buf[..head_len - 4])
            .map_err(|reason| io::Error::new(io::ErrorKind::InvalidData, reason))?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed status line `{status_line}`"),
                )
            })?;
        let content_length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        while self.buf.len() < head_len + content_length {
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
        }
        let body = self.buf[head_len..head_len + content_length].to_vec();
        self.buf.drain(..head_len + content_length);
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

/// One-shot request on a fresh connection (the non-keep-alive path).
///
/// # Errors
///
/// Returns the transport error or a parse failure.
pub fn fetch<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> io::Result<ClientResponse> {
    let mut client = Client::connect(addr)?;
    client.request(method, path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn wedged_server_times_out_instead_of_hanging() {
        // A listener that accepts and then never writes a byte.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let wedge = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Hold the connection open until the test signals it's over
            // (dropping earlier would turn the timeout into an EOF).
            let _ = done_rx.recv_timeout(Duration::from_secs(5));
            drop(stream);
        });

        let config = ClientConfig {
            read_timeout: Some(Duration::from_millis(100)),
        };
        let mut client = Client::connect_with(addr, config).unwrap();
        let started = Instant::now();
        let err = client.get("/healthz").expect_err("no response can exist");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "expected a read-timeout error, got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "timeout must fire promptly, took {:?}",
            started.elapsed()
        );
        done_tx.send(()).unwrap();
        wedge.join().unwrap();
    }

    /// A one-connection server thread: accepts, reads the request head,
    /// runs `respond` on the stream, then holds the connection open until
    /// the test ends.
    fn one_shot_server(
        respond: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> (
        std::net::SocketAddr,
        std::sync::mpsc::Sender<()>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap() == 1 {
                head.push(byte[0]);
            }
            respond(&mut stream);
            let _ = done_rx.recv_timeout(Duration::from_secs(5));
        });
        (addr, done_tx, server)
    }

    #[test]
    fn a_response_written_a_byte_at_a_time_parses() {
        let (addr, done, server) = one_shot_server(|stream| {
            stream.set_nodelay(true).unwrap();
            for byte in b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok" {
                stream.write_all(&[*byte]).unwrap();
                stream.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let response = Client::connect(addr).unwrap().get("/").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"ok");
        done.send(()).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn an_endless_response_head_is_invalid_data_promptly() {
        let (addr, done, server) = one_shot_server(|stream| {
            let mut head = b"HTTP/1.1 200 OK\r\n".to_vec();
            while head.len() < 32 * 1024 {
                head.extend_from_slice(b"x-pad: aaaaaaaaaaaaaaaaaaaaaaaa\r\n");
            }
            stream.write_all(&head).unwrap();
        });
        let config = ClientConfig {
            read_timeout: Some(Duration::from_secs(10)),
        };
        let started = Instant::now();
        let err = Client::connect_with(addr, config)
            .unwrap()
            .get("/")
            .expect_err("a head past the cap must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the cap must fire on arrival, not at the read timeout: {:?}",
            started.elapsed()
        );
        done.send(()).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn default_config_keeps_the_historical_read_timeout() {
        assert_eq!(
            ClientConfig::default().read_timeout,
            Some(Duration::from_secs(30))
        );
    }
}
