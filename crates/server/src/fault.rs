//! Deterministic network fault injection for the wire layer.
//!
//! The chaos suite (`tests/chaos.rs`) and the `fault_overhead` binary need to
//! break connections *reproducibly*: the acceptance property is that for
//! **any** seeded fault schedule, every client either completes with
//! store and tap bit-identical to the fault-free run, or surfaces a
//! clean typed error — never a third outcome. That demands schedules
//! that are (a) frame-aware, so faults land exactly at the protocol's
//! atomicity boundaries and inside them, and (b) replayable from a seed,
//! so a failing schedule is a bug report, not a flake.
//!
//! [`FaultProxy`] is an in-process TCP proxy: clients connect to it, it
//! relays byte-exact traffic to the real server, and at every *frame*
//! boundary (both directions — losing an ack is the interesting case for
//! exactly-once) it consults a [`FaultPlan`] derived from a
//! [`FaultSpec`] seed: forward, delay, cut the connection, or forward a
//! partial frame and then cut. Production paths are untouched — the
//! proxy lives entirely outside [`crate::server`] / [`crate::client`].
//!
//! The randomness is [`SplitMix64`] — the same tiny generator the
//! workspace already uses for synthetic payloads — so schedules are
//! stable across platforms and toolchains.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// SplitMix64: 8 bytes of state, full 64-bit period, excellent mixing —
/// the workspace's standard deterministic stream (same constants as
/// [`crate::client::synthetic_payload`]).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded directly.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// A stream seeded from a name (FNV-1a fold of the bytes), so e.g.
    /// each client name gets its own reproducible jitter schedule.
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SplitMix64::new(h)
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// What to do with one relayed frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Relay unchanged.
    Forward,
    /// Hold the frame for the given number of milliseconds, then relay.
    Delay(u16),
    /// Cut the connection at the frame boundary (the frame is lost).
    Reset,
    /// Relay only the first `n` bytes of the frame, then cut — a torn
    /// frame on the wire.
    PartialThenReset(u32),
}

/// Seeded fault-schedule parameters: how often (per mille of frames, per
/// direction) each fault fires, and the delay ceiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed every per-connection schedule derives from.
    pub seed: u64,
    /// Connection cuts per 1000 frames.
    pub reset_per_mille: u16,
    /// Torn-frame cuts per 1000 frames.
    pub partial_per_mille: u16,
    /// Delays per 1000 frames.
    pub delay_per_mille: u16,
    /// Upper bound on an injected delay, in milliseconds.
    pub max_delay_ms: u16,
}

impl FaultSpec {
    /// A moderately hostile default schedule for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            reset_per_mille: 30,
            partial_per_mille: 20,
            delay_per_mille: 50,
            max_delay_ms: 2,
        }
    }

    /// A schedule that never injects (the proxy becomes a transparent
    /// relay — the control arm of the chaos property).
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        FaultSpec {
            seed,
            reset_per_mille: 0,
            partial_per_mille: 0,
            delay_per_mille: 0,
            max_delay_ms: 0,
        }
    }

    /// Sets the cut rate (builder style).
    #[must_use]
    pub fn resets(mut self, per_mille: u16) -> Self {
        self.reset_per_mille = per_mille;
        self
    }

    /// Sets the torn-frame rate (builder style).
    #[must_use]
    pub fn partials(mut self, per_mille: u16) -> Self {
        self.partial_per_mille = per_mille;
        self
    }

    /// Sets the delay rate and ceiling (builder style).
    #[must_use]
    pub fn delays(mut self, per_mille: u16, max_ms: u16) -> Self {
        self.delay_per_mille = per_mille;
        self.max_delay_ms = max_ms;
        self
    }
}

/// One direction's deterministic schedule: the fault decision for the
/// k-th frame of connection `conn` depends only on
/// `(spec.seed, conn, direction, k)`.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: SplitMix64,
}

impl FaultPlan {
    /// The schedule for one direction of one proxied connection
    /// (`direction`: 0 = client→server, 1 = server→client).
    #[must_use]
    pub fn for_connection(spec: FaultSpec, conn: u64, direction: u64) -> Self {
        let mut seed = SplitMix64::new(spec.seed ^ conn.rotate_left(17) ^ (direction << 62));
        // Burn one output so conn 0 / direction 0 does not reuse the raw
        // seed as its first decision.
        let state = seed.next_u64();
        FaultPlan {
            spec,
            rng: SplitMix64::new(state),
        }
    }

    /// Decides the fate of the next frame (`frame_len` = header + body
    /// bytes; a partial cut lands strictly inside it).
    pub fn next_event(&mut self, frame_len: usize) -> NetFault {
        let r = self.rng.next_u64();
        let roll = (r % 1000) as u16;
        let reset_at = self.spec.reset_per_mille;
        let partial_at = reset_at + self.spec.partial_per_mille;
        let delay_at = partial_at + self.spec.delay_per_mille;
        if roll < reset_at {
            NetFault::Reset
        } else if roll < partial_at {
            // 1..frame_len-1: always torn, never empty, never complete.
            let span = frame_len.saturating_sub(1).max(1) as u64;
            NetFault::PartialThenReset(1 + ((r >> 16) % span) as u32)
        } else if roll < delay_at && self.spec.max_delay_ms > 0 {
            NetFault::Delay(1 + ((r >> 32) % u64::from(self.spec.max_delay_ms)) as u16)
        } else {
            NetFault::Forward
        }
    }
}

/// Counters of what a [`FaultProxy`] actually injected.
#[derive(Debug, Default)]
pub struct ProxyCounts {
    /// Frames relayed (either direction, post-decision).
    pub frames: AtomicU64,
    /// Connections proxied.
    pub connections: AtomicU64,
    /// Injected delays.
    pub delays: AtomicU64,
    /// Injected connection cuts (frame-boundary).
    pub resets: AtomicU64,
    /// Injected torn-frame cuts.
    pub partials: AtomicU64,
}

/// Poll interval for the proxy's stop flag (accept loop and relays).
const PROXY_POLL: Duration = Duration::from_millis(5);

/// An in-process fault-injecting TCP relay in front of a real server.
///
/// All threads are owned and joined by [`Self::stop`]; nothing detaches.
#[derive(Debug)]
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counts: Arc<ProxyCounts>,
    acceptor: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Binds a loopback listener and starts relaying every accepted
    /// connection to `upstream` under `spec`'s schedule.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind error.
    pub fn start(upstream: SocketAddr, spec: FaultSpec) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counts = Arc::new(ProxyCounts::default());
        let acceptor = {
            let stop = Arc::clone(&stop);
            let counts = Arc::clone(&counts);
            std::thread::spawn(move || {
                accept_loop(&listener, upstream, spec, &stop, &counts);
            })
        };
        Ok(FaultProxy {
            addr,
            stop,
            counts,
            acceptor: Some(acceptor),
        })
    }

    /// The address clients should connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live injection counters.
    #[must_use]
    pub fn counts(&self) -> &ProxyCounts {
        &self.counts
    }

    /// Stops accepting, cuts the remaining relays, and joins every
    /// proxy thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

/// Accepts connections until stopped; joins all relay threads before
/// returning (so `FaultProxy::stop` implies full quiescence).
fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    spec: FaultSpec,
    stop: &Arc<AtomicBool>,
    counts: &Arc<ProxyCounts>,
) {
    let relays: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    let mut conn: u64 = 0;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let id = conn;
                conn += 1;
                counts.connections.fetch_add(1, Ordering::SeqCst);
                match TcpStream::connect(upstream) {
                    Ok(server) => {
                        let _ = client.set_nodelay(true);
                        let _ = server.set_nodelay(true);
                        spawn_relay_pair(client, server, spec, id, stop, counts, &relays);
                    }
                    Err(_) => {
                        let _ = client.shutdown(Shutdown::Both);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(PROXY_POLL);
            }
            Err(_) => std::thread::sleep(PROXY_POLL),
        }
    }
    for handle in relays.into_inner().unwrap_or_default() {
        let _ = handle.join();
    }
}

/// Spawns the two per-direction relay threads of one proxied connection.
fn spawn_relay_pair(
    client: TcpStream,
    server: TcpStream,
    spec: FaultSpec,
    conn: u64,
    stop: &Arc<AtomicBool>,
    counts: &Arc<ProxyCounts>,
    relays: &Mutex<Vec<JoinHandle<()>>>,
) {
    let mut handles = relays
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for direction in 0..2u64 {
        let (Ok(read_side), Ok(write_side)) = (if direction == 0 {
            (client.try_clone(), server.try_clone())
        } else {
            (server.try_clone(), client.try_clone())
        }) else {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return;
        };
        let plan = FaultPlan::for_connection(spec, conn, direction);
        let stop = Arc::clone(stop);
        let counts = Arc::clone(counts);
        handles.push(std::thread::spawn(move || {
            relay_frames(read_side, write_side, plan, &stop, &counts);
        }));
    }
}

/// Relays whole frames from `from` to `to`, applying the plan's decision
/// at each boundary. Exits on EOF, error, an injected cut, or stop.
fn relay_frames(
    mut from: TcpStream,
    mut to: TcpStream,
    mut plan: FaultPlan,
    stop: &AtomicBool,
    counts: &ProxyCounts,
) {
    let _ = from.set_read_timeout(Some(PROXY_POLL));
    let mut frame: Vec<u8> = Vec::new();
    loop {
        frame.clear();
        frame.resize(8, 0);
        match read_exact_polling(&mut from, &mut frame[..], stop) {
            ReadOutcome::Full => {}
            ReadOutcome::Eof(0) => break, // clean boundary EOF
            ReadOutcome::Eof(n) => {
                // Torn header from the source: propagate the tear.
                let _ = to.write_all(&frame[..n]);
                break;
            }
            ReadOutcome::Stopped | ReadOutcome::Err => break,
        }
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        if len == 0 || len > crate::frame::MAX_FRAME_BYTES {
            // Not our protocol; forward the bytes and drop to passthrough.
            let _ = to.write_all(&frame);
            passthrough(&mut from, &mut to, stop);
            break;
        }
        frame.resize(8 + len, 0);
        match read_exact_polling(&mut from, &mut frame[8..], stop) {
            ReadOutcome::Full => {}
            ReadOutcome::Eof(n) => {
                let _ = to.write_all(&frame[..8 + n]);
                break;
            }
            ReadOutcome::Stopped | ReadOutcome::Err => break,
        }
        match plan.next_event(frame.len()) {
            NetFault::Forward => {
                if to.write_all(&frame).is_err() {
                    break;
                }
            }
            NetFault::Delay(ms) => {
                counts.delays.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(u64::from(ms)));
                if to.write_all(&frame).is_err() {
                    break;
                }
            }
            NetFault::Reset => {
                counts.resets.fetch_add(1, Ordering::SeqCst);
                cut(&from, &to);
                break;
            }
            NetFault::PartialThenReset(n) => {
                counts.partials.fetch_add(1, Ordering::SeqCst);
                let n = (n as usize).min(frame.len().saturating_sub(1));
                let _ = to.write_all(&frame[..n]);
                let _ = to.flush();
                cut(&from, &to);
                break;
            }
        }
        counts.frames.fetch_add(1, Ordering::SeqCst);
    }
    // Relay done (tear, EOF or stop): make sure the peer direction
    // unblocks too.
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Cuts both sides of a proxied connection.
fn cut(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

enum ReadOutcome {
    Full,
    /// EOF after the given number of bytes.
    Eof(usize),
    Stopped,
    Err,
}

/// `read_exact` that polls the stop flag on its read-timeout ticks.
fn read_exact_polling(from: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> ReadOutcome {
    let mut got = 0;
    while got < buf.len() {
        match from.read(&mut buf[got..]) {
            Ok(0) => return ReadOutcome::Eof(got),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return ReadOutcome::Stopped;
                }
            }
            Err(_) => return ReadOutcome::Err,
        }
    }
    ReadOutcome::Full
}

/// Byte-level passthrough for non-frame traffic (diagnostic fallback).
fn passthrough(from: &mut TcpStream, to: &mut TcpStream, stop: &AtomicBool) {
    let mut buf = [0u8; 4096];
    while !stop.load(Ordering::SeqCst) {
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_deterministic_and_name_seeded() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        assert_eq!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
        assert_ne!(
            SplitMix64::from_name("client-a").next_u64(),
            SplitMix64::from_name("client-b").next_u64()
        );
    }

    #[test]
    fn plans_replay_identically_and_differ_across_connections() {
        let spec = FaultSpec::new(7);
        let mut p1 = FaultPlan::for_connection(spec, 3, 0);
        let mut p2 = FaultPlan::for_connection(spec, 3, 0);
        let a: Vec<_> = (0..256).map(|_| p1.next_event(100)).collect();
        let b: Vec<_> = (0..256).map(|_| p2.next_event(100)).collect();
        assert_eq!(a, b);
        let mut other = FaultPlan::for_connection(spec, 4, 0);
        let c: Vec<_> = (0..256).map(|_| other.next_event(100)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn default_spec_actually_injects() {
        let mut plan = FaultPlan::for_connection(FaultSpec::new(1), 0, 0);
        let events: Vec<_> = (0..2000).map(|_| plan.next_event(64)).collect();
        assert!(events.iter().any(|e| matches!(e, NetFault::Reset)));
        assert!(events
            .iter()
            .any(|e| matches!(e, NetFault::PartialThenReset(_))));
        assert!(events.iter().any(|e| matches!(e, NetFault::Delay(_))));
        assert!(
            events
                .iter()
                .filter(|e| matches!(e, NetFault::Forward))
                .count()
                > 1500
        );
        // Partial cuts land strictly inside the frame.
        for e in &events {
            if let NetFault::PartialThenReset(n) = e {
                assert!(*n >= 1 && *n < 64);
            }
        }
        // The quiet spec never injects.
        let mut quiet = FaultPlan::for_connection(FaultSpec::quiet(1), 0, 0);
        assert!((0..2000).all(|_| quiet.next_event(64) == NetFault::Forward));
    }
}
