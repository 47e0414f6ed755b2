//! The service driver: one nonblocking event loop around [`SvcMachine`].
//!
//! Where `nestsim-cluster` dedicates a blocking thread to every
//! connection, this driver multiplexes *all* clients, the listener,
//! and execution-pool completions through a single [`Poller`] loop:
//!
//! ```text
//!            ┌────────────┐   SvcEvent    ┌────────────┐
//!  sockets ─▶│ event loop ├──────────────▶│ SvcMachine │
//!            │  (1 thread)│◀──────────────┤  (sans-I/O)│
//!            └─────┬──────┘   SvcAction   └────────────┘
//!                  │ StartExec / wake socket
//!            ┌─────▼──────┐
//!            │ exec pool  │  run_campaign_with, one job per task
//!            └────────────┘
//! ```
//!
//! Executions run whole jobs in a small thread pool (a job *is* an
//! in-process campaign — that is what makes service results
//! byte-identical to local execution); completions are queued and the
//! loop is woken through a loopback socket, so the loop itself never
//! blocks on anything but the poller.

use crate::conn::{frame_bytes, FrameBuf};
use crate::machine::{SvcAction, SvcConfig, SvcEvent, SvcMachine};
use crate::poll::{Interest, PollEvent, Poller};
use crate::proto::SvcMessage;
use crate::store::ExecOutput;
use nestsim_cluster::proto::JobWire;
use nestsim_core::run_campaign_with;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

/// Tunables of [`serve`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub listen: String,
    /// Protocol-machine tunables (queue bound, DRR quantum, slots).
    pub machine: SvcConfig,
    /// Execution-pool threads; clamped up to `machine.exec_slots`.
    pub exec_threads: usize,
    /// Chaos knob for tests: crash the first N executions instead of
    /// running them, exercising the requeue path end to end.
    pub chaos_crash_first: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            listen: "127.0.0.1:0".to_string(),
            machine: SvcConfig::default(),
            exec_threads: 2,
            chaos_crash_first: 0,
        }
    }
}

/// A running service; dropping the handle leaves it running (use
/// [`ServiceHandle::shutdown`] for a clean stop).
#[derive(Debug)]
pub struct ServiceHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake: TcpStream,
    join: thread::JoinHandle<io::Result<()>>,
}

impl ServiceHandle {
    /// The bound listen address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the event loop, joins the execution pool, and returns the
    /// loop's exit status.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.wake.write(&[1]);
        match self.join.join() {
            Ok(res) => res,
            Err(_) => Err(io::Error::other("service event loop panicked")),
        }
    }
}

enum ExecMsg {
    Done { exec: u64, output: ExecOutput },
    Crashed { exec: u64, reason: String },
}

/// Starts the service and returns once the listener is bound.
pub fn serve(cfg: ServiceConfig) -> io::Result<ServiceHandle> {
    let listener = TcpListener::bind(&cfg.listen)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));

    // Wake channel: a loopback socket pair. Exec threads (and
    // `shutdown`) write one byte to pop the loop out of `wait`.
    let wake_listener = TcpListener::bind("127.0.0.1:0")?;
    let wake_tx = TcpStream::connect(wake_listener.local_addr()?)?;
    let (wake_rx, _) = wake_listener.accept()?;
    wake_rx.set_nonblocking(true)?;
    drop(wake_listener);

    let completions: Arc<Mutex<VecDeque<ExecMsg>>> = Arc::new(Mutex::new(VecDeque::new()));
    let (task_tx, task_rx) = mpsc::channel::<(u64, JobWire)>();
    let task_rx = Arc::new(Mutex::new(task_rx));
    let chaos = Arc::new(AtomicU64::new(cfg.chaos_crash_first));
    let mut exec_joins = Vec::new();
    for _ in 0..cfg.exec_threads.clamp(1, cfg.machine.exec_slots.max(1)) {
        let task_rx = Arc::clone(&task_rx);
        let completions = Arc::clone(&completions);
        let chaos = Arc::clone(&chaos);
        let wake = wake_tx.try_clone()?;
        exec_joins.push(thread::spawn(move || {
            exec_worker(&task_rx, &completions, &chaos, wake)
        }));
    }

    let stop2 = Arc::clone(&stop);
    let join = thread::Builder::new()
        .name("nestsim-svc-loop".to_string())
        .spawn(move || {
            let mut lp = EventLoop::new(
                listener,
                wake_rx,
                SvcMachine::new(cfg.machine),
                task_tx,
                completions,
                stop2,
            )?;
            let res = lp.run();
            // Dropping `task_tx` (inside `lp`) ends the exec pool.
            drop(lp);
            for j in exec_joins {
                let _ = j.join();
            }
            res
        })?;
    Ok(ServiceHandle {
        addr,
        stop,
        wake: wake_tx,
        join,
    })
}

fn exec_worker(
    task_rx: &Mutex<mpsc::Receiver<(u64, JobWire)>>,
    completions: &Mutex<VecDeque<ExecMsg>>,
    chaos: &AtomicU64,
    mut wake: TcpStream,
) {
    loop {
        let task = match task_rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok((exec, job)) = task else { return };
        let chaos_hit = chaos
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        let msg = if chaos_hit {
            ExecMsg::Crashed {
                exec,
                reason: "chaos: injected worker crash".to_string(),
            }
        } else {
            match run_exec(&job) {
                Ok(output) => ExecMsg::Done { exec, output },
                Err(reason) => ExecMsg::Crashed { exec, reason },
            }
        };
        if let Ok(mut q) = completions.lock() {
            q.push_back(msg);
        }
        let _ = wake.write(&[1]);
    }
}

/// Runs one job to completion in-process. Panics inside the campaign
/// engine surface as crashes (the machine retries, then fails the job)
/// rather than taking the service down.
fn run_exec(job: &JobWire) -> Result<ExecOutput, String> {
    let job = job.clone();
    let run = std::panic::catch_unwind(move || {
        let profile = job.profile()?;
        let spec = job.spec();
        let telemetry = job.telemetry_config();
        let result = run_campaign_with(profile, &spec, telemetry.as_ref());
        Ok::<ExecOutput, String>(ExecOutput {
            golden: result.golden,
            records: result.records,
            merged: result.telemetry.merged,
        })
    });
    match run {
        Ok(res) => res,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            Err(format!("execution panicked: {msg}"))
        }
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    /// Encoded frames not yet accepted by the socket, oldest first.
    outbuf: VecDeque<u8>,
    /// Close once `outbuf` drains (machine-initiated close).
    closing: bool,
    /// Whether the poller registration currently includes writable.
    want_write: bool,
}

struct EventLoop {
    listener: TcpListener,
    wake_rx: TcpStream,
    poller: Poller,
    machine: SvcMachine,
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    task_tx: mpsc::Sender<(u64, JobWire)>,
    completions: Arc<Mutex<VecDeque<ExecMsg>>>,
    stop: Arc<AtomicBool>,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        wake_rx: TcpStream,
        machine: SvcMachine,
        task_tx: mpsc::Sender<(u64, JobWire)>,
        completions: Arc<Mutex<VecDeque<ExecMsg>>>,
        stop: Arc<AtomicBool>,
    ) -> io::Result<EventLoop> {
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        Ok(EventLoop {
            listener,
            wake_rx,
            poller,
            machine,
            conns: BTreeMap::new(),
            next_token: FIRST_CONN_TOKEN,
            task_tx,
            completions,
            stop,
        })
    }

    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            events.clear();
            self.poller.wait(100, &mut events)?;
            if self.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            let batch: Vec<PollEvent> = std::mem::take(&mut events);
            for ev in batch {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake(),
                    token => self.conn_ready(token, ev),
                }
            }
            self.drain_completions();
        }
    }

    /// Accepts every pending connection.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            inbuf: FrameBuf::new(),
                            outbuf: VecDeque::new(),
                            closing: false,
                            want_write: false,
                        },
                    );
                    let acts = self.machine.step(SvcEvent::Connected { conn: token });
                    self.apply(acts);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Drains wake bytes (level-triggered, so partial drains are fine).
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.wake_rx.read(&mut buf), Ok(n) if n > 0) {}
    }

    /// Moves finished executions into the machine.
    fn drain_completions(&mut self) {
        loop {
            let msg = match self.completions.lock() {
                Ok(mut q) => q.pop_front(),
                Err(_) => None,
            };
            let Some(msg) = msg else { return };
            let ev = match msg {
                ExecMsg::Done { exec, output } => SvcEvent::ExecDone { exec, output },
                ExecMsg::Crashed { exec, reason } => SvcEvent::ExecCrashed { exec, reason },
            };
            let acts = self.machine.step(ev);
            self.apply(acts);
        }
    }

    /// Handles readiness on a client connection.
    fn conn_ready(&mut self, token: u64, ev: PollEvent) {
        if ev.readable || ev.hangup {
            self.read_ready(token);
        }
        if ev.writable {
            self.flush(token);
        }
    }

    fn read_ready(&mut self, token: u64) {
        let mut buf = [0u8; 8192];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    self.close_conn(token, true);
                    return;
                }
                Ok(n) => {
                    conn.inbuf.extend(&buf[..n]);
                    if !self.pump_frames(token) {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token, true);
                    return;
                }
            }
        }
    }

    /// Decodes and dispatches every complete frame buffered on `token`.
    /// Returns false when the connection died during processing.
    fn pump_frames(&mut self, token: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            match conn.inbuf.next_frame() {
                Ok(None) => return true,
                Ok(Some(payload)) => match SvcMessage::decode(&payload) {
                    Ok(msg) => {
                        let acts = self.machine.step(SvcEvent::Received { conn: token, msg });
                        self.apply(acts);
                    }
                    Err(e) => {
                        self.protocol_error(token, &format!("undecodable frame: {e}"));
                        return false;
                    }
                },
                Err(e) => {
                    self.protocol_error(token, &format!("bad frame: {e}"));
                    return false;
                }
            }
        }
    }

    /// Best-effort error reply, then drop the connection.
    fn protocol_error(&mut self, token: u64, message: &str) {
        if let Ok(payload) = (SvcMessage::Error {
            message: message.to_string(),
        })
        .encode()
        {
            if let Ok(frame) = frame_bytes(&payload) {
                if let Some(conn) = self.conns.get_mut(&token) {
                    let _ = conn.stream.write(&frame);
                }
            }
        }
        self.close_conn(token, true);
    }

    /// Tears down a connection; `notify` feeds `Closed` to the machine
    /// (false when the machine itself requested the close).
    fn close_conn(&mut self, token: u64, notify: bool) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.remove(conn.stream.as_raw_fd());
        }
        if notify {
            let acts = self.machine.step(SvcEvent::Closed { conn: token });
            self.apply(acts);
        }
    }

    fn apply(&mut self, acts: Vec<SvcAction>) {
        for act in acts {
            match act {
                SvcAction::Send { conn, msg } => self.send(conn, &msg),
                SvcAction::Close { conn } => {
                    let drained = match self.conns.get_mut(&conn) {
                        Some(c) => {
                            c.closing = true;
                            c.outbuf.is_empty()
                        }
                        None => false,
                    };
                    if drained {
                        self.close_conn(conn, false);
                    }
                }
                SvcAction::StartExec { exec, job } => {
                    if self.task_tx.send((exec, job)).is_err() {
                        // Pool gone (shutdown): surface as a crash so
                        // the machine's books stay balanced.
                        if let Ok(mut q) = self.completions.lock() {
                            q.push_back(ExecMsg::Crashed {
                                exec,
                                reason: "execution pool unavailable".to_string(),
                            });
                        }
                    }
                }
            }
        }
    }

    fn send(&mut self, token: u64, msg: &SvcMessage) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // client left before the result did
        };
        if conn.closing {
            return;
        }
        let frame = match msg.encode().and_then(|p| frame_bytes(&p)) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("nestsim-svc: dropping unencodable frame: {e}");
                return;
            }
        };
        conn.outbuf.extend(&frame);
        self.flush(token);
    }

    /// Writes as much of `outbuf` as the socket accepts.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if write_backlog(&mut conn.outbuf, &mut conn.stream).is_err() {
            self.close_conn(token, true);
            return;
        }
        let empty = conn.outbuf.is_empty();
        let closing = conn.closing;
        let want = !empty;
        if conn.want_write != want {
            conn.want_write = want;
            let interest = if want {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, interest);
        }
        if empty && closing {
            self.close_conn(token, false);
        }
    }
}

/// Writes as much of `out` as `w` accepts, front first, dropping each
/// accepted prefix from the deque (no shift of the remaining backlog).
/// Stops when the backlog is empty or the writer would block; `Err` means
/// the peer is gone.
fn write_backlog(out: &mut VecDeque<u8>, w: &mut impl Write) -> Result<(), ()> {
    while !out.is_empty() {
        match w.write(out.as_slices().0) {
            Ok(0) => return Err(()),
            Ok(n) => {
                out.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket stand-in that accepts at most `chunk` bytes per write
    /// and would block on every third call.
    struct Trickle {
        got: Vec<u8>,
        chunk: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.chunk);
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_keep_bytes_in_order() {
        let mut out = VecDeque::new();
        let mut sock = Trickle {
            got: Vec::new(),
            chunk: 7,
            calls: 0,
        };
        let mut sent = Vec::new();
        for frame in 0..200u32 {
            // Frames of varying length, appended while a backlog is
            // still pending, so the deque wraps around.
            let bytes: Vec<u8> = (0..frame % 23 + 1).map(|i| (frame + i) as u8).collect();
            sent.extend_from_slice(&bytes);
            out.extend(&bytes);
            write_backlog(&mut out, &mut sock).unwrap();
        }
        while !out.is_empty() {
            write_backlog(&mut out, &mut sock).unwrap();
        }
        assert_eq!(sock.got, sent);
    }

    #[test]
    fn closed_peer_is_an_error() {
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out: VecDeque<u8> = b"frame".iter().copied().collect();
        assert!(write_backlog(&mut out, &mut Closed).is_err());
        assert_eq!(out.len(), 5, "nothing was consumed");
    }
}
