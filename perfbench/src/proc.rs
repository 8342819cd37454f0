//! Child processes: the `energydx` daemon and CLI jobs, their
//! resources read from `/proc`, and connections to the daemon.

use crate::spans::Recorder;
use energydx_fleetd::client::Client;
use energydx_fleetd::protocol::{read_frame, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `energydx serve`; killed and reaped when dropped.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The address from the daemon's banner.
    pub addr: String,
    /// Process id, for `/proc` sampling.
    pub pid: u32,
}

impl Daemon {
    /// Starts `bin serve <args>` and waits for its listening banner.
    pub fn start(
        bin: &Path,
        args: &[String],
        log: &Path,
    ) -> Result<Daemon, String> {
        let stderr = std::fs::File::create(log)
            .map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .arg("serve")
            // One malloc arena: with glibc's default of one per
            // connection thread, which thread happened to allocate the
            // query caches moved the daemon's peak RSS between two
            // levels 40% apart on identical runs.
            .env("MALLOC_ARENA_MAX", "1")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("fleetd listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                pid: child.id(),
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "daemon did not start (banner {banner:?}; see {})",
                    log.display()
                ))
            }
        }
    }

    /// Asks the daemon to shut down and waits for it to exit; kills it
    /// if it has not exited within `grace`.
    pub fn shutdown(mut self, grace: Duration) -> Result<(), String> {
        let asked = client(&self.addr)
            .and_then(|mut c| call(&mut c, &Request::Shutdown))
            .map(|_| ());
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked,
                Ok(Some(status)) => {
                    return Err(format!("daemon exited with {status}"))
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("daemon did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A process's resources at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Resources {
    /// Open file descriptors.
    pub fds: u64,
    /// Threads.
    pub threads: u64,
    /// Peak resident set (VmHWM), kB.
    pub hwm_kb: u64,
}

/// Reads fd count, thread count and VmHWM of `pid`.
pub fn resources(pid: u32) -> Result<Resources, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let fds = std::fs::read_dir(format!("/proc/{pid}/fd"))
        .map_err(|e| format!("/proc/{pid}/fd: {e}"))?
        .count() as u64;
    Ok(Resources {
        fds,
        threads: field("Threads:"),
        hwm_kb: field("VmHWM:"),
    })
}

extern "C" {
    fn sync();
}

/// Flushes every file system's dirty pages, so that writeback of files
/// made outside a timed phase (a corpus, a removed run directory) does
/// not run on into one.
pub fn flush_disks() {
    // SAFETY: sync(2) takes no arguments and always succeeds.
    unsafe { sync() }
}

#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(
        pid: i32,
        status: *mut i32,
        options: i32,
        usage: *mut RUsage,
    ) -> i32;
}

/// Waits for `child` and returns whether it exited with status 0 and
/// its own peak RSS in kB. Reaps the child: do not wait on it again.
///
/// The peak includes the parent's resident set at the time of the
/// fork, which is why corpora are generated in a separate
/// process and stays small while it runs jobs.
pub fn wait_rss(child: &std::process::Child) -> Result<(bool, u64), String> {
    let mut status = 0i32;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are writable and sized as wait4
    // expects (`struct rusage` is two timevals then fourteen longs on
    // 64-bit Linux); the pid is our own unreaped child.
    let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    if rc < 0 {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((exited_zero, usage.maxrss.max(0) as u64))
}

/// Connects with `energydx_fleetd`'s own client.
pub fn client(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// One request over `energydx_fleetd`'s own client.
pub fn call(client: &mut Client, req: &Request) -> Result<Response, String> {
    client.request(req).map_err(|e| format!("request: {e}"))
}

/// A connection as a workload drives it: the daemon's own client, or
/// on the traced run a bare stream, so that encode, the wait for the
/// daemon and decode can be timed apart.
#[derive(Debug)]
pub enum Link {
    /// Untraced: [`Client`].
    Plain(Client),
    /// Traced: the stream [`Link::call`] frames by hand.
    Traced(TcpStream),
}

impl Link {
    /// Connects, traced when `traced`.
    pub fn connect(addr: &str, traced: bool) -> Result<Link, String> {
        if !traced {
            return client(addr).map(Link::Plain);
        }
        let stream = TcpStream::connect(addr)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Link::Traced(stream))
    }

    /// Sends one request and reads its answer; returns it with the
    /// request plus response frame bytes (0 when untraced). Traced, it
    /// records the client's encode and decode, the wait for the daemon
    /// and — replayed on the same messages right after — the daemon
    /// side's request decode and response encode; all four protocol
    /// steps land under `fleetd.protocol`.
    pub fn call(
        &mut self,
        rec: &mut Recorder,
        request: u64,
        req: &Request,
    ) -> Result<(Response, u64), String> {
        let stream = match self {
            Link::Plain(c) => return call(c, req).map(|r| (r, 0)),
            Link::Traced(stream) => stream,
        };
        let bytes = rec.span("fleetd.protocol", request, |_| req.encode());
        let frame = rec.span("client.wait", request, |_| {
            stream
                .write_all(&bytes)
                .and_then(|()| stream.flush())
                .map_err(|e| format!("send: {e}"))?;
            match read_frame(stream) {
                Ok(Some(frame)) => Ok(frame),
                Ok(None) => Err("daemon closed the connection".to_string()),
                Err(e) => Err(format!("receive: {e}")),
            }
        })?;
        let response = rec.span("fleetd.protocol", request, |_| {
            Response::decode(&frame).map_err(|e| format!("decode: {e}"))
        })?;
        let echoed = rec.span("fleetd.protocol", request, |_| {
            let mut r = bytes.as_slice();
            let decoded = read_frame(&mut r)
                .ok()
                .flatten()
                .and_then(|f| Request::decode(&f).ok());
            (decoded.is_some(), response.encode().len())
        });
        if !echoed.0 {
            return Err("request did not round-trip".to_string());
        }
        Ok((response, (bytes.len() + echoed.1) as u64))
    }
}
