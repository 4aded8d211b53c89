//! Pluggable byte transports: the boundary between the model's accounting
//! and the machinery that actually moves bytes (DESIGN.md §3.12).
//!
//! [`crate::bsp::Bsp`] charges rounds and bits analytically; by default it
//! also delivers in process — the simulator, the accounting oracle. With a
//! [`Transport`] installed, a superstep's bytes travel through it instead:
//! [`ProcTransport`] is a real multi-process backend: one OS worker process
//! per machine, spawned by the coordinator, exchanging superstep batches
//! over Unix-domain sockets with TCP-ready framing (length-prefixed,
//! seq-numbered frames whose payloads are the PR 6 varint batch encoding,
//! now as actual bytes rather than a pricing fiction). A worker that dies
//! mid-window is detected, respawned, and the window is replayed under a
//! fresh token — the crash-stop-with-immediate-restart semantics the
//! [`crate::fault::CrashEvent`] recovery path assumes.
//!
//! Workers are payload-agnostic relays: frame payloads are opaque bytes
//! (encoded/decoded by [`crate::message::WireCodec`] on the coordinator
//! side), so one worker binary serves every algorithm.
//!
//! ## Window protocol
//!
//! One [`Transport::exchange`] call moves one delivery window (a superstep
//! batch, or one retransmission wave of the fault-recovery protocol). The
//! coordinator drives each attempt under a fresh *token*, with one command
//! per worker: every machine that sends or receives in the window gets
//! `Window{token, expect, frames}` on its control socket. The worker writes
//! its frames to the destination workers' mesh sockets (a link is a
//! reliable, ordered stream, so there is no per-frame ack), replies
//! `Shipped{token, sent}`, then drains `expect` frames of that token from
//! its inbound buffer and replies `Frames{token, frames}`. The window is
//! confirmed end to end: it returns only when every frame came back.
//!
//! An attempt is abandoned at its first failure (a socket error, a sender
//! that shipped fewer frames than it was given, a short `Frames`); the
//! coordinator respawns dead workers and replays the window. Replies still
//! owed by the abandoned attempt carry its older token and are skipped; a
//! worker still draining it stops at the first frame of a newer token and
//! keeps that frame. Stale frames are discarded by token mismatch, so a
//! window is delivered exactly once.

#![warn(clippy::unwrap_used, clippy::expect_used)]
// ^ window-protocol / worker-path panic hygiene (kcheck KC05): a
// panic here kills a worker mid-window instead of failing the
// attempt cleanly. Tests opt back in below.

use crate::message::{put_varint, WireReader};
use crate::trace::Stopwatch;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Which backend a configuration selects. `Copy` so it threads through the
/// per-problem config structs unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TransportSel {
    /// The in-process simulator (default; bit-for-bit the historical path).
    #[default]
    Sim,
    /// One OS process per machine (worker executable resolved via
    /// [`set_worker_exe`], else the current executable).
    Proc,
}

impl TransportSel {
    /// Parses a CLI selector (`sim` or `proc`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "sim" => Ok(TransportSel::Sim),
            "proc" => Ok(TransportSel::Proc),
            other => Err(format!("unknown transport `{other}` (expected sim|proc)")),
        }
    }

    /// The CLI name of this selector.
    pub fn name(&self) -> &'static str {
        match self {
            TransportSel::Sim => "sim",
            TransportSel::Proc => "proc",
        }
    }
}

/// One length-prefixed, seq-numbered unit of wire traffic: a directed
/// link's encoded superstep batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Sending machine.
    pub src: u32,
    /// Receiving machine.
    pub dst: u32,
    /// Window-attempt token (assigned by the transport; fresh per attempt
    /// so replayed windows dedup stale frames exactly).
    pub token: u64,
    /// Frame index within its window.
    pub seq: u64,
    /// The encoded batch (opaque to the transport).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame awaiting token/seq assignment by the transport.
    pub fn new(src: u32, dst: u32, payload: Vec<u8>) -> Self {
        Frame {
            src,
            dst,
            token: 0,
            seq: 0,
            payload,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.src));
        put_varint(out, u64::from(self.dst));
        put_varint(out, self.token);
        put_varint(out, self.seq);
        put_varint(out, self.payload.len() as u64);
        out.extend_from_slice(&self.payload);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::io::Result<Frame> {
        let src = read_field(r, "frame.src")? as u32;
        let dst = read_field(r, "frame.dst")? as u32;
        let token = read_field(r, "frame.token")?;
        let seq = read_field(r, "frame.seq")?;
        let len = read_field(r, "frame.len")? as usize;
        let payload = r
            .bytes(len, "frame.payload")
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
            .to_vec();
        Ok(Frame {
            src,
            dst,
            token,
            seq,
            payload,
        })
    }
}

fn read_field(r: &mut WireReader<'_>, field: &'static str) -> std::io::Result<u64> {
    r.varint(field)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Physical-layer counters: what the transport actually moved, as opposed
/// to what the model charged ([`crate::metrics::CommStats`] is reconstructed
/// from decoded frames; these count the frames themselves).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhysStats {
    /// Delivery windows exchanged ([`Transport::exchange`] calls).
    pub windows: u64,
    /// Window attempts, including replays after failures.
    pub attempts: u64,
    /// Frames handed to workers for shipment.
    pub frames_sent: u64,
    /// Sum of frame payload bytes shipped.
    pub payload_bytes: u64,
    /// Workers that died and were respawned (window replays).
    pub worker_restarts: u64,
}

/// A byte transport for delivery windows. Object-safe so the superstep
/// layer can hold `Box<dyn Transport>` regardless of payload type.
pub trait Transport: Send {
    /// Delivers one window: every frame reaches its destination machine and
    /// comes back to the coordinator, exactly once. Frames are returned in
    /// window-seq order.
    fn exchange(&mut self, frames: Vec<Frame>) -> Vec<Frame>;
    /// Physical-layer counters so far.
    fn phys(&self) -> &PhysStats;
}

// ---------------------------------------------------------------------------
// Socket message layer (control + mesh): length-prefixed framing.
// ---------------------------------------------------------------------------

const KIND_HELLO: u8 = 1;
const KIND_WINDOW: u8 = 2;
const KIND_SHIPPED: u8 = 3;
const KIND_FRAMES: u8 = 4;
const KIND_FRAME: u8 = 5;
const KIND_SHUTDOWN: u8 = 6;

/// Hard cap on one socket message body; a longer prefix means corruption.
const MAX_BODY: u64 = 1 << 30;

#[derive(Debug)]
enum Msg {
    Hello {
        machine: u64,
    },
    Window {
        token: u64,
        expect: u64,
        frames: Vec<Frame>,
    },
    Shipped {
        token: u64,
        sent: u64,
    },
    Frames {
        token: u64,
        frames: Vec<Frame>,
    },
    Frame(Frame),
    Shutdown,
}

impl Msg {
    fn token(&self) -> Option<u64> {
        match self {
            Msg::Window { token, .. } | Msg::Shipped { token, .. } | Msg::Frames { token, .. } => {
                Some(*token)
            }
            Msg::Frame(f) => Some(f.token),
            _ => None,
        }
    }
}

fn encode_frames(out: &mut Vec<u8>, frames: &[Frame]) {
    put_varint(out, frames.len() as u64);
    for f in frames {
        f.encode_into(out);
    }
}

fn decode_frames(r: &mut WireReader<'_>) -> std::io::Result<Vec<Frame>> {
    let n = read_field(r, "msg.nframes")?;
    (0..n).map(|_| Frame::decode_from(r)).collect()
}

fn write_msg(stream: &mut UnixStream, msg: &Msg) -> std::io::Result<()> {
    let mut body = Vec::new();
    match msg {
        Msg::Hello { machine } => {
            body.push(KIND_HELLO);
            put_varint(&mut body, *machine);
        }
        Msg::Window {
            token,
            expect,
            frames,
        } => {
            body.push(KIND_WINDOW);
            put_varint(&mut body, *token);
            put_varint(&mut body, *expect);
            encode_frames(&mut body, frames);
        }
        Msg::Shipped { token, sent } => {
            body.push(KIND_SHIPPED);
            put_varint(&mut body, *token);
            put_varint(&mut body, *sent);
        }
        Msg::Frames { token, frames } => {
            body.push(KIND_FRAMES);
            put_varint(&mut body, *token);
            encode_frames(&mut body, frames);
        }
        Msg::Frame(f) => {
            body.push(KIND_FRAME);
            f.encode_into(&mut body);
        }
        Msg::Shutdown => body.push(KIND_SHUTDOWN),
    }
    stream.write_all(&(body.len() as u32).to_le_bytes())?;
    stream.write_all(&body)?;
    stream.flush()
}

fn read_msg(stream: &mut UnixStream) -> std::io::Result<Msg> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as u64;
    if len == 0 || len > MAX_BODY {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad message length {len}"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    // The `None` arm is unreachable (len == 0 was rejected above), but a
    // clean protocol error beats a panicking index on this path.
    let Some((&kind, rest)) = body.split_first() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "empty message body",
        ));
    };
    let mut r = WireReader::new(rest);
    let msg = match kind {
        KIND_HELLO => Msg::Hello {
            machine: read_field(&mut r, "hello.machine")?,
        },
        KIND_WINDOW => Msg::Window {
            token: read_field(&mut r, "window.token")?,
            expect: read_field(&mut r, "window.expect")?,
            frames: decode_frames(&mut r)?,
        },
        KIND_SHIPPED => Msg::Shipped {
            token: read_field(&mut r, "shipped.token")?,
            sent: read_field(&mut r, "shipped.sent")?,
        },
        KIND_FRAMES => Msg::Frames {
            token: read_field(&mut r, "frames.token")?,
            frames: decode_frames(&mut r)?,
        },
        KIND_FRAME => Msg::Frame(Frame::decode_from(&mut r)?),
        KIND_SHUTDOWN => Msg::Shutdown,
        k => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unknown message kind {k}"),
            ))
        }
    };
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

/// How long a worker waits for one expected inbound frame before reporting
/// a shortfall (the coordinator then replays the window).
const COLLECT_FRAME_TIMEOUT: Duration = Duration::from_millis(2_000);
/// Mesh socket write timeout. Mesh streams are write-only from the
/// sender's side (no acks come back), so no read timeout is set.
const MESH_TIMEOUT: Duration = Duration::from_secs(10);
/// Coordinator control-socket I/O timeout.
const CTRL_TIMEOUT: Duration = Duration::from_secs(30);
/// How long the coordinator waits for worker hellos at spawn.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(20);
/// Window replays before the coordinator gives up.
const MAX_WINDOW_ATTEMPTS: u64 = 50;

fn mesh_sock(dir: &Path, machine: usize) -> PathBuf {
    dir.join(format!("m{machine}.sock"))
}

/// The body of one worker process (or thread, in the in-process test mode):
/// binds its mesh socket, connects to the coordinator's control socket, and
/// serves windows until shutdown. Exposed so the CLI's hidden
/// `__transport-worker` subcommand (and thread-mode tests) can run it.
pub fn worker_main(dir: &Path, machine: usize, k: usize) -> std::io::Result<()> {
    let _ = k;
    let sock = mesh_sock(dir, machine);
    let _ = std::fs::remove_file(&sock);
    let listener = UnixListener::bind(&sock)?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<Frame>();
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || accept_loop(listener, tx, stop));
    }
    let result = worker_serve(dir, machine, &rx);
    stop.store(true, Ordering::Relaxed);
    let _ = std::fs::remove_file(&sock);
    result
}

fn accept_loop(listener: UnixListener, tx: mpsc::Sender<Frame>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((conn, _)) => {
                let tx = tx.clone();
                std::thread::spawn(move || serve_peer(conn, tx));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

/// One inbound mesh connection: frames in, until the sender hangs up.
fn serve_peer(mut conn: UnixStream, tx: mpsc::Sender<Frame>) {
    while let Ok(Msg::Frame(f)) = read_msg(&mut conn) {
        if tx.send(f).is_err() {
            return;
        }
    }
}

fn worker_serve(dir: &Path, machine: usize, rx: &mpsc::Receiver<Frame>) -> std::io::Result<()> {
    let mut ctrl = UnixStream::connect(dir.join("ctrl.sock"))?;
    write_msg(
        &mut ctrl,
        &Msg::Hello {
            machine: machine as u64,
        },
    )?;
    let mut peers: Vec<Option<UnixStream>> = Vec::new();
    // Frames of a newer attempt that arrived while an older one drained.
    let mut early: Vec<Frame> = Vec::new();
    loop {
        match read_msg(&mut ctrl) {
            Ok(Msg::Window {
                token,
                expect,
                frames,
            }) => {
                let mut sent = 0u64;
                for f in frames {
                    sent += u64::from(send_frame(dir, &mut peers, f));
                }
                write_msg(&mut ctrl, &Msg::Shipped { token, sent })?;
                let (mut got, newer): (Vec<Frame>, Vec<Frame>) = early
                    .drain(..)
                    .filter(|f| f.token >= token)
                    .partition(|f| f.token == token);
                early = newer;
                while (got.len() as u64) < expect && early.is_empty() {
                    match rx.recv_timeout(COLLECT_FRAME_TIMEOUT) {
                        Ok(f) if f.token == token => got.push(f),
                        // This attempt was abandoned: stop waiting.
                        Ok(f) if f.token > token => early.push(f),
                        Ok(_) => {} // stale attempt: discard
                        Err(_) => break,
                    }
                }
                got.sort_unstable_by_key(|f| f.seq);
                write_msg(&mut ctrl, &Msg::Frames { token, frames: got })?;
            }
            Ok(Msg::Shutdown) | Err(_) => return Ok(()),
            Ok(_) => {}
        }
    }
}

/// Writes one frame to its destination worker's mesh socket. A broken
/// cached connection (e.g. the peer died and was respawned) gets one
/// reconnect retry; persistent failure is reported as a shortfall.
fn send_frame(dir: &Path, peers: &mut Vec<Option<UnixStream>>, f: Frame) -> bool {
    let dst = f.dst as usize;
    let msg = Msg::Frame(f);
    if peers.len() <= dst {
        peers.resize_with(dst + 1, || None);
    }
    let Some(slot) = peers.get_mut(dst) else {
        return false; // unreachable: just resized past dst
    };
    for _ in 0..2 {
        if slot.is_none() {
            *slot = UnixStream::connect(mesh_sock(dir, dst))
                .and_then(|s| {
                    s.set_write_timeout(Some(MESH_TIMEOUT))?;
                    Ok(s)
                })
                .ok();
        }
        if let Some(s) = slot.as_mut() {
            if write_msg(s, &msg).is_ok() {
                return true;
            }
        }
        *slot = None;
    }
    false
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

/// Process-wide counter so concurrent transports get distinct socket dirs.
static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Worker-executable override for embedders that are not the `kmm` binary
/// (integration tests point this at `CARGO_BIN_EXE_kmm`).
static WORKER_EXE: std::sync::Mutex<Option<PathBuf>> = std::sync::Mutex::new(None);

/// Overrides the worker executable [`ProcTransport::processes`] spawns;
/// without it the current executable re-execs itself (which works for the
/// `kmm` CLI itself).
pub fn set_worker_exe(path: PathBuf) {
    *WORKER_EXE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(path);
}

fn resolve_worker_exe() -> std::io::Result<PathBuf> {
    let exe_override = WORKER_EXE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    exe_override.map_or_else(std::env::current_exe, Ok)
}

enum WorkerHandle {
    Process(std::process::Child),
    Thread,
}

struct WorkerSlot {
    ctrl: UnixStream,
    handle: WorkerHandle,
    /// OS pid for process workers (teardown assertions).
    pid: Option<u32>,
    /// Set when a control-socket operation failed this attempt.
    suspect: bool,
}

enum SpawnMode {
    Processes(PathBuf),
    Threads,
}

/// The multi-process backend coordinator: spawns one worker per machine,
/// drives the window protocol, respawns dead workers, and reaps every
/// child on drop (even when dropped by a panicking test).
pub struct ProcTransport {
    k: usize,
    dir: PathBuf,
    listener: UnixListener,
    workers: Vec<WorkerSlot>,
    mode: SpawnMode,
    next_token: u64,
    phys: PhysStats,
}

impl ProcTransport {
    /// Spawns `k` worker processes running the resolved worker executable
    /// (see [`set_worker_exe`]).
    pub fn processes(k: usize) -> std::io::Result<Self> {
        Self::spawn(k, SpawnMode::Processes(resolve_worker_exe()?))
    }

    /// Runs the `k` workers as in-process threads over the same sockets and
    /// protocol — full wire coverage without a worker binary (unit tests).
    pub fn threads(k: usize) -> std::io::Result<Self> {
        Self::spawn(k, SpawnMode::Threads)
    }

    fn spawn(k: usize, mode: SpawnMode) -> std::io::Result<Self> {
        assert!(k >= 2, "the model requires k >= 2");
        let dir = std::env::temp_dir().join(format!(
            "kmm-transport-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let listener = UnixListener::bind(dir.join("ctrl.sock"))?;
        listener.set_nonblocking(true)?;
        let mut t = ProcTransport {
            k,
            dir,
            listener,
            workers: Vec::new(),
            mode,
            next_token: 1,
            phys: PhysStats::default(),
        };
        for m in 0..k {
            let handle = t.launch_worker(m)?;
            let pid = match &handle {
                WorkerHandle::Process(c) => Some(c.id()),
                WorkerHandle::Thread => None,
            };
            t.workers.push(WorkerSlot {
                // Placeholder stream; replaced once the worker's hello
                // arrives in `await_hellos`.
                ctrl: UnixStream::pair()?.0,
                handle,
                pid,
                suspect: false,
            });
        }
        let pending: Vec<usize> = (0..k).collect();
        t.await_hellos(&pending)?;
        Ok(t)
    }

    fn launch_worker(&self, machine: usize) -> std::io::Result<WorkerHandle> {
        match &self.mode {
            SpawnMode::Processes(exe) => {
                let child = std::process::Command::new(exe)
                    .arg("__transport-worker")
                    .arg(&self.dir)
                    .arg(machine.to_string())
                    .arg(self.k.to_string())
                    .stdin(std::process::Stdio::null())
                    .spawn()?;
                Ok(WorkerHandle::Process(child))
            }
            SpawnMode::Threads => {
                let dir = self.dir.clone();
                let k = self.k;
                std::thread::spawn(move || {
                    let _ = worker_main(&dir, machine, k);
                });
                Ok(WorkerHandle::Thread)
            }
        }
    }

    /// The coordinator's slot for machine `m`. Every caller passes an
    /// index that is `< k` by construction (loops over `0..k`, or frame
    /// endpoints produced by our own windowing) and `workers.len() == k`
    /// from construction onward — this is the single audited index of the
    /// window protocol (kcheck KC05, entry in `kcheck.allow`).
    fn slot(&mut self, m: usize) -> &mut WorkerSlot {
        &mut self.workers[m]
    }

    /// Accepts control connections until every machine in `pending` has
    /// said hello, installing the fresh control streams.
    fn await_hellos(&mut self, pending: &[usize]) -> std::io::Result<()> {
        let waited = Stopwatch::start();
        let mut missing: Vec<usize> = pending.to_vec();
        while !missing.is_empty() {
            match self.listener.accept() {
                Ok((mut conn, _)) => {
                    conn.set_read_timeout(Some(CTRL_TIMEOUT))?;
                    conn.set_write_timeout(Some(CTRL_TIMEOUT))?;
                    match read_msg(&mut conn)? {
                        Msg::Hello { machine } => {
                            let m = machine as usize;
                            if m >= self.k {
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::InvalidData,
                                    format!("hello from machine {m} out of range"),
                                ));
                            }
                            let slot = self.slot(m);
                            slot.ctrl = conn;
                            slot.suspect = false;
                            missing.retain(|&x| x != m);
                        }
                        other => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                format!("expected hello, got {other:?}"),
                            ))
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if waited.elapsed() >= SPAWN_TIMEOUT {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!("workers {missing:?} never said hello"),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// OS pids of process-mode workers (teardown assertions in tests).
    pub fn worker_pids(&self) -> Vec<u32> {
        self.workers.iter().filter_map(|w| w.pid).collect()
    }

    /// Worker `m`'s reply to attempt `token`, skipping stale replies of
    /// abandoned attempts. A failed read marks the worker suspect.
    fn reply(&mut self, m: usize, token: u64) -> Option<Msg> {
        loop {
            match read_msg(&mut self.slot(m).ctrl) {
                Ok(msg) if msg.token().is_some_and(|t| t < token) => {}
                Ok(msg) if msg.token() == Some(token) => return Some(msg),
                _ => {
                    self.slot(m).suspect = true;
                    return None;
                }
            }
        }
    }

    /// One window attempt. Returns the collected frames, or `None` at the
    /// first failure (the caller respawns dead workers and replays).
    fn attempt(&mut self, frames: &[Frame], token: u64) -> Option<Vec<Frame>> {
        let mut outbound: Vec<Vec<Frame>> = vec![Vec::new(); self.k];
        let mut expect = vec![0u64; self.k];
        for (i, f) in frames.iter().enumerate() {
            let mut f = f.clone();
            f.token = token;
            f.seq = i as u64;
            // Frame endpoints come from our own windowing, so src/dst < k;
            // a malformed frame is dropped as a failed attempt, not a panic.
            match (
                expect.get_mut(f.dst as usize),
                outbound.get_mut(f.src as usize),
            ) {
                (Some(e), Some(o)) => {
                    *e += 1;
                    o.push(f);
                }
                _ => return None,
            }
        }
        // One command per machine that sends or receives; consuming the
        // per-machine vectors here keeps the loops below free of indexing.
        let mut commanded = Vec::new();
        for (m, (fs, e)) in outbound.into_iter().zip(expect).enumerate() {
            if fs.is_empty() && e == 0 {
                continue;
            }
            let want = fs.len() as u64;
            let msg = Msg::Window {
                token,
                expect: e,
                frames: fs,
            };
            if write_msg(&mut self.slot(m).ctrl, &msg).is_err() {
                self.slot(m).suspect = true;
                return None;
            }
            commanded.push((m, want, e));
        }
        // `Shipped` precedes any drain, so a dead worker shows up here.
        for &(m, want, _) in &commanded {
            match self.reply(m, token)? {
                Msg::Shipped { sent, .. } if sent == want => {}
                _ => return None, // a peer is unreachable; replay
            }
        }
        let mut collected = Vec::with_capacity(frames.len());
        for &(m, _, e) in &commanded {
            match self.reply(m, token)? {
                Msg::Frames { frames: fs, .. } if fs.len() as u64 == e => {
                    collected.extend(fs);
                }
                _ => return None,
            }
        }
        collected.sort_unstable_by_key(|f| f.seq);
        Some(collected)
    }

    /// Respawns every worker that died or whose control socket failed, and
    /// waits for the replacements' hellos. This is the [`crate::fault::CrashEvent`]
    /// story made physical: crash-stop with immediate restart, after which
    /// the in-flight window is replayed from the coordinator's send log.
    fn recover(&mut self) -> std::io::Result<()> {
        let mut respawned = Vec::new();
        for m in 0..self.k {
            let sock = mesh_sock(&self.dir, m);
            let slot = self.slot(m);
            let dead = match &mut slot.handle {
                WorkerHandle::Process(child) => child.try_wait().map_or(true, |s| s.is_some()),
                WorkerHandle::Thread => false,
            };
            if !(dead || slot.suspect) {
                continue;
            }
            if let WorkerHandle::Process(child) = &mut slot.handle {
                let _ = child.kill();
                let _ = child.wait();
            }
            let _ = std::fs::remove_file(sock);
            let handle = self.launch_worker(m)?;
            let slot = self.slot(m);
            slot.pid = match &handle {
                WorkerHandle::Process(c) => Some(c.id()),
                WorkerHandle::Thread => slot.pid,
            };
            slot.handle = handle;
            slot.suspect = false;
            self.phys.worker_restarts += 1;
            respawned.push(m);
        }
        if !respawned.is_empty() {
            self.await_hellos(&respawned)?;
        }
        Ok(())
    }
}

impl Transport for ProcTransport {
    fn exchange(&mut self, frames: Vec<Frame>) -> Vec<Frame> {
        self.phys.windows += 1;
        if frames.is_empty() {
            return frames;
        }
        for attempt in 0..MAX_WINDOW_ATTEMPTS {
            self.phys.attempts += 1;
            let token = self.next_token;
            self.next_token += 1;
            if let Some(got) = self.attempt(&frames, token) {
                self.phys.frames_sent += frames.len() as u64;
                self.phys.payload_bytes += got.iter().map(|f| f.payload.len() as u64).sum::<u64>();
                return got;
            }
            if let Err(e) = self.recover() {
                panic!("transport recovery failed (attempt {attempt}): {e}");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("delivery window failed after {MAX_WINDOW_ATTEMPTS} attempts");
    }

    fn phys(&self) -> &PhysStats {
        &self.phys
    }
}

impl Drop for ProcTransport {
    fn drop(&mut self) {
        // Best-effort graceful shutdown, then reap unconditionally: no
        // orphaned worker survives a panicking test.
        for w in &mut self.workers {
            let _ = write_msg(&mut w.ctrl, &Msg::Shutdown);
        }
        let draining = Stopwatch::start();
        for w in &mut self.workers {
            if let WorkerHandle::Process(child) = &mut w.handle {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if draining.elapsed() < Duration::from_millis(500) => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A transport plus the monomorphized [`crate::message::WireCodec`] hooks
/// for one payload type, captured at install time. Keeping the codec as fn
/// pointers means the superstep layer's hot entry points need no
/// `WireCodec` bound — payload types that never leave the simulator are untouched.
pub(crate) struct CodecBridge<M> {
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) enc: fn(&M, &mut Vec<u8>),
    pub(crate) dec: fn(&mut WireReader<'_>) -> Result<M, crate::message::WireError>,
    /// `worker_restarts` already folded into the layer's crash counter.
    pub(crate) restarts_seen: u64,
}

impl<M: crate::message::WireCodec> CodecBridge<M> {
    pub(crate) fn new(transport: Box<dyn Transport>) -> Self {
        CodecBridge {
            transport,
            enc: M::encode,
            dec: M::decode,
            restarts_seen: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn frame(src: u32, dst: u32, bytes: &[u8]) -> Frame {
        Frame::new(src, dst, bytes.to_vec())
    }

    #[test]
    fn frame_encoding_round_trips() {
        let f = Frame {
            src: 3,
            dst: 1,
            token: 900,
            seq: 41,
            payload: vec![1, 2, 3, 0xff],
        };
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(Frame::decode_from(&mut r).unwrap(), f);
        assert!(r.is_empty());
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "real Unix-domain sockets; outside Miri's syscall model"
    )]
    fn thread_workers_deliver_a_window_over_real_sockets() {
        let mut t = ProcTransport::threads(3).expect("spawn");
        let frames = vec![
            frame(0, 1, b"zero to one"),
            frame(0, 2, b"zero to two"),
            frame(2, 1, b"two to one"),
            frame(1, 0, b"one to zero"),
        ];
        let got = t.exchange(frames.clone());
        assert_eq!(got.len(), 4);
        // Seq order is window order, payloads survive the wire verbatim.
        for (i, (sent, recv)) in frames.iter().zip(&got).enumerate() {
            assert_eq!(recv.seq, i as u64);
            assert_eq!((recv.src, recv.dst), (sent.src, sent.dst));
            assert_eq!(recv.payload, sent.payload);
        }
        assert_eq!(t.phys().frames_sent, 4);
        assert_eq!(t.phys().worker_restarts, 0);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "real Unix-domain sockets; outside Miri's syscall model"
    )]
    fn consecutive_windows_keep_their_frames_apart() {
        let mut t = ProcTransport::threads(2).expect("spawn");
        for round in 0..5u8 {
            let body = vec![round; 1 + round as usize];
            let got = t.exchange(vec![frame(0, 1, &body), frame(1, 0, &body)]);
            assert_eq!(got.len(), 2);
            assert!(got.iter().all(|f| f.payload == body), "round {round}");
        }
        assert_eq!(t.phys().windows, 5);
        assert_eq!(t.phys().attempts, 5, "no replays on a healthy mesh");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "real Unix-domain sockets; outside Miri's syscall model"
    )]
    fn empty_windows_are_free() {
        let mut t = ProcTransport::threads(2).expect("spawn");
        assert!(t.exchange(Vec::new()).is_empty());
        assert_eq!(t.phys().attempts, 0);
    }

    #[test]
    fn transport_sel_parses_cli_names() {
        assert_eq!(TransportSel::parse("sim").unwrap(), TransportSel::Sim);
        assert_eq!(TransportSel::parse("proc").unwrap(), TransportSel::Proc);
        assert!(TransportSel::parse("tcp").is_err());
        assert_eq!(TransportSel::Proc.name(), "proc");
        assert_eq!(TransportSel::default(), TransportSel::Sim);
    }

    #[cfg(not(miri))] // proptest machinery is far too slow under the interpreter
    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Frames with arbitrary payload bytes, tokens and sequence
            /// numbers survive encode→decode exactly and consume the whole
            /// buffer — the framing layer under every superstep window.
            #[test]
            fn frames_round_trip_random_contents(
                src in 0u32..64,
                dst in 0u32..64,
                token in 0u64..u64::MAX,
                seq in 0u64..u64::MAX,
                payload in prop::collection::vec(0u8..=255u8, 0..300),
            ) {
                let f = Frame { src, dst, token, seq, payload };
                let mut buf = Vec::new();
                f.encode_into(&mut buf);
                let mut r = WireReader::new(&buf);
                let back = Frame::decode_from(&mut r).expect("decode");
                prop_assert_eq!(back, f);
                prop_assert!(r.is_empty());
            }
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "real Unix-domain sockets; outside Miri's syscall model"
    )]
    fn large_payloads_survive_framing() {
        let mut t = ProcTransport::threads(2).expect("spawn");
        let big: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let got = t.exchange(vec![frame(1, 0, &big)]);
        assert_eq!(got[0].payload, big);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "real Unix-domain sockets; outside Miri's syscall model"
    )]
    fn all_to_all_frames_larger_than_a_socket_buffer_do_not_deadlock() {
        // Every worker ships before it drains, and each frame outgrows a
        // socket buffer: the window completes only if inbound mesh traffic
        // is read while its receiver is still shipping its own frames.
        let k = 4u32;
        let mut t = ProcTransport::threads(k as usize).expect("spawn");
        let frames: Vec<Frame> = (0..k)
            .flat_map(|src| {
                (0..k)
                    .filter(move |&dst| dst != src)
                    .map(move |dst| (src, dst))
            })
            .map(|(src, dst)| {
                let body: Vec<u8> = (0..256 * 1024u32)
                    .map(|i| (i ^ (src * 7 + dst)) as u8)
                    .collect();
                frame(src, dst, &body)
            })
            .collect();
        let got = t.exchange(frames.clone());
        assert_eq!(got.len(), 12);
        for (i, (sent, recv)) in frames.iter().zip(&got).enumerate() {
            assert_eq!(recv.seq, i as u64);
            assert_eq!((recv.src, recv.dst), (sent.src, sent.dst));
            assert_eq!(recv.payload, sent.payload);
        }
        assert_eq!(t.phys().attempts, 1, "no replays on a healthy mesh");
    }
}
