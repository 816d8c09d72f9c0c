//! A minimal HTTP/1.1 keep-alive client for the load generator.
//!
//! Deliberately the harness's own code rather than `bbncg_serve::client`:
//! it never retries (a failed exchange is a failed operation), it
//! stamps when the first and last body bytes arrive, and during
//! fixed-rate blocks it polls its socket instead of blocking on it (see
//! [`Polled`]).

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long any one read may wait before the exchange fails.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A socket that, when `polling`, is nonblocking and waits by polling,
/// yielding the CPU between attempts, so a waiting generator thread
/// never leaves its CPU idle. On a virtual machine an idle CPU is
/// halted, and waking it again waits on the hypervisor; on a busy host
/// that wait showed as 20–30% CPU steal during the fixed-rate blocks,
/// whose load leaves the CPUs mostly idle, and inflated their latency
/// tails (see the README). Polling keeps the CPUs running, so the
/// server threads are woken inside the guest. Closed-loop blocks keep
/// the CPUs busy anyway; there polling threads would only take CPU time
/// from the server, so they block.
pub struct Polled {
    stream: TcpStream,
    polling: bool,
}

/// Retry `op` until it stops returning `WouldBlock`, for at most
/// [`READ_TIMEOUT`]. A blocking socket returns `WouldBlock` only when
/// its read timeout (the same) expired, so this fails at once then.
fn poll<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let start = Instant::now();
    loop {
        match op() {
            Err(e) if e.kind() == ErrorKind::WouldBlock && start.elapsed() < READ_TIMEOUT => {
                std::thread::yield_now()
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "timed out"))
            }
            r => return r,
        }
    }
}

impl Polled {
    fn set_polling(&mut self, on: bool) -> std::io::Result<()> {
        if on != self.polling {
            self.stream.set_nonblocking(on)?;
            self.polling = on;
        }
        Ok(())
    }
}

impl Read for Polled {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        poll(|| self.stream.read(buf))
    }
}

impl Write for Polled {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        poll(|| self.stream.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// When the first body byte arrived (`None` for an empty body).
    pub first_byte: Option<Instant>,
    /// When the last byte arrived.
    pub done: Instant,
}

impl Reply {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One keep-alive connection; reconnects only when the server closed
/// the previous exchange (`Connection: close`) or none was open yet.
pub struct Conn {
    addr: String,
    stream: Option<BufReader<Polled>>,
    polling: bool,
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            stream: None,
            polling: false,
        }
    }

    /// Wait by polling (see [`Polled`]) or by blocking, from now on.
    pub fn set_polling(&mut self, on: bool) {
        self.polling = on;
    }

    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> Result<Reply, String> {
        let mut reader = match self.stream.take() {
            Some(r) => r,
            None => {
                let s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
                s.set_nodelay(true).map_err(|e| e.to_string())?;
                s.set_read_timeout(Some(READ_TIMEOUT))
                    .map_err(|e| e.to_string())?;
                BufReader::new(Polled {
                    stream: s,
                    polling: false,
                })
            }
        };
        reader
            .get_mut()
            .set_polling(self.polling)
            .map_err(|e| e.to_string())?;
        let mut req = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        reader
            .get_mut()
            .write_all(&req)
            .map_err(|e| format!("send: {e}"))?;

        let mut line = String::new();
        read_line(&mut reader, &mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let (mut chunked, mut length, mut close) = (false, None, false);
        loop {
            read_line(&mut reader, &mut line)?;
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
                match name.as_str() {
                    "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                    "content-length" => length = value.parse::<usize>().ok(),
                    "connection" => close = value.eq_ignore_ascii_case("close"),
                    _ => {}
                }
            }
        }

        let mut out = Vec::new();
        let mut first_byte = None;
        if chunked {
            loop {
                read_line(&mut reader, &mut line)?;
                let size = usize::from_str_radix(line.trim().split(';').next().unwrap_or(""), 16)
                    .map_err(|_| format!("bad chunk size {line:?}"))?;
                if size == 0 {
                    // Trailer section ends with an empty line.
                    loop {
                        read_line(&mut reader, &mut line)?;
                        if line.trim_end().is_empty() {
                            break;
                        }
                    }
                    break;
                }
                first_byte.get_or_insert_with(Instant::now);
                let start = out.len();
                out.resize(start + size, 0);
                reader
                    .read_exact(&mut out[start..])
                    .map_err(|e| format!("read chunk: {e}"))?;
                read_line(&mut reader, &mut line)?;
            }
        } else {
            let len = length.ok_or("response without a length")?;
            out.resize(len, 0);
            reader
                .read_exact(&mut out)
                .map_err(|e| format!("read body: {e}"))?;
            if len > 0 {
                first_byte = Some(Instant::now());
            }
        }
        let done = Instant::now();
        if !close {
            self.stream = Some(reader);
        }
        Ok(Reply {
            status,
            body: out,
            first_byte,
            done,
        })
    }
}

fn read_line(r: &mut BufReader<Polled>, line: &mut String) -> Result<(), String> {
    line.clear();
    match r.read_line(line) {
        Ok(0) => Err("connection closed".into()),
        Ok(_) => Ok(()),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// The value of `"key":<number>` in a flat JSON document.
pub fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat)? + pat.len();
    doc[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_numbers_out_of_flat_json() {
        let doc = r#"{"job":17,"kind":"scenario","queue_wait_us":250,"run_us":9}"#;
        assert_eq!(json_u64(doc, "job"), Some(17));
        assert_eq!(json_u64(doc, "run_us"), Some(9));
        assert_eq!(json_u64(doc, "missing"), None);
    }

    #[test]
    fn exchanges_work_polling_and_blocking_on_one_connection() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let mut r = BufReader::new(sock);
            for body in ["polled", "blocked"] {
                let mut line = String::new();
                while line != "\r\n" {
                    line.clear();
                    r.read_line(&mut line).unwrap();
                }
                // Answer late, so the client has to wait for it.
                std::thread::sleep(Duration::from_millis(20));
                let reply = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                r.get_mut().write_all(reply.as_bytes()).unwrap();
            }
        });
        let mut conn = Conn::new(&addr);
        conn.set_polling(true);
        assert_eq!(conn.request("GET", "/a", b"").unwrap().text(), "polled");
        conn.set_polling(false);
        assert_eq!(conn.request("GET", "/b", b"").unwrap().text(), "blocked");
        server.join().unwrap();
    }
}
