//! A minimal blocking HTTP/1.1 keep-alive client, and a handle on a
//! `dbr serve` child process.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::proc::{self, Exit};

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// `GET` request bytes for `target`.
pub fn get_request(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request and reads its response: the status and body.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill(&mut chunk)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::other("non-UTF-8 response head"))?;
        let status: u16 = head
            .get(9..12)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other("malformed status line"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| io::Error::other("response without Content-Length"))?;
        while self.buf.len() < head_end + length {
            self.fill(&mut chunk)?;
        }
        Ok((status, &self.buf[head_end..head_end + length]))
    }

    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        let n = self.stream.read(chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// A running `dbr serve` process. Dropping it without [`Server::quit`]
/// kills and reaps the process.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    reaped: bool,
}

impl Server {
    /// Starts `dbr serve <d>` with default flags and waits until
    /// `/healthz` answers 200; returns the server and that set-up time.
    pub fn start(dbr: &Path, d: u8) -> io::Result<(Server, Duration)> {
        let start = Instant::now();
        let mut child = Command::new(dbr)
            .args(["serve", &d.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            reaped: false,
        };
        // The banner names the bound address: "... on http://ADDR (...".
        let mut banner = String::new();
        server.stdout.read_line(&mut banner)?;
        server.addr = banner
            .split_once("http://")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected serve banner: {banner:?}")))?;
        let health = get_request("/healthz");
        loop {
            let ok = Conn::connect(server.addr)
                .and_then(|mut c| c.exchange(&health).map(|(s, _)| s == 200))
                .unwrap_or(false);
            if ok {
                break;
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err(io::Error::other("server never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, start.elapsed()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to shut down, then returns the metrics dump it
    /// prints on exit and its resource usage.
    pub fn quit(mut self) -> io::Result<(String, Exit)> {
        let status = Conn::connect(self.addr)
            .and_then(|mut c| c.exchange(&get_request("/quitquitquit")).map(|(s, _)| s))?;
        if status != 200 {
            return Err(io::Error::other(format!("/quitquitquit answered {status}")));
        }
        let mut dump = String::new();
        self.stdout.read_to_string(&mut dump)?;
        let exit = proc::reap(&self.child)?;
        self.reaped = true;
        Ok((dump, exit))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sum of every sample of a Prometheus family whose labels contain
/// `label` (empty matches all), from a `dbr_service_*` dump.
pub fn dump_sum(dump: &str, family: &str, label: &str) -> f64 {
    dump_samples(dump, family, label).sum()
}

/// Largest sample of a family whose labels contain `label`.
pub fn dump_max(dump: &str, family: &str, label: &str) -> f64 {
    dump_samples(dump, family, label).fold(0.0, f64::max)
}

fn dump_samples<'a>(
    dump: &'a str,
    family: &'a str,
    label: &'a str,
) -> impl Iterator<Item = f64> + 'a {
    dump.lines().filter_map(move |line| {
        let (key, value) = line.rsplit_once(' ')?;
        let (name, labels) = key.split_once('{').unwrap_or((key, ""));
        (name == family && labels.contains(label))
            .then(|| value.parse().ok())
            .flatten()
    })
}
