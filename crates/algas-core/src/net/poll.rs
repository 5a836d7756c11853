//! Readiness waiting: the one way this crate blocks on sockets.
//!
//! [`Poller`] blocks its owning thread in `poll(2)` over a set of file
//! descriptors that is rebuilt every pass, plus the read end of a
//! nonblocking socket pair. A cloneable [`Waker`] holds the write end,
//! so another thread (a host poller delivering a reply, `stop()`) can
//! end the wait at once instead of the loop discovering the event on
//! its next timer tick.
//!
//! # Why no wake-up is lost
//!
//! The two sides run the standard flag / re-check protocol:
//!
//! ```text
//! poller (wait)                      producer (wake)
//! 1. parked = true                   a. publish work (push, set flag)
//! 2. fence(SeqCst)                   b. fence(SeqCst)
//! 3. re-check `work_pending()`       c. if parked: parked = false,
//! 4. poll(fds + wake fd, timeout)        write 1 byte to the wake fd
//! ```
//!
//! One of the two fences comes first in the sequentially consistent
//! order. If the producer's does, step 3 sees the work of step a and
//! the poller polls with a zero timeout. If the poller's does, step c
//! sees `parked == true` and writes the byte, which makes step 4
//! return (level-triggered: also when the byte was written before
//! `poll` was entered). Either way the work is handled without
//! waiting out the timeout. The timeout stays as a bound on anything
//! that is *not* announced through a `Waker`.
//!
//! While the poller is running rather than parked the flag is clear,
//! so `wake()` is one fence and one load — no syscall, no write to a
//! shared cache line.
//!
//! # The FFI
//!
//! `std` links the platform C library but exposes no `poll`, and the
//! build is hermetic (no `libc` crate to depend on), so the function
//! is declared here: one `#[repr(C)]` struct, one three-line `extern`
//! block. The single `unsafe` block of `algas-core` is the call in
//! [`Poller::wait`]; everything it relies on (the descriptor array and
//! its length) is private to this file.

use std::io::{ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the other
/// unixes.
#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

// Event bits shared by every unix `<poll.h>`.
const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;
/// Conditions `poll` reports whether or not they were asked for; a
/// source in one of them must be read or written to surface the error.
const POLLFAIL: i16 = POLLERR | POLLHUP | POLLNVAL;

struct WakeState {
    /// True from just before the poller blocks until it returns.
    parked: AtomicBool,
    tx: UnixStream,
}

/// Ends a [`Poller::wait`] from another thread. Cheap to clone; every
/// clone wakes the same poller.
#[derive(Clone)]
pub struct Waker(Arc<WakeState>);

impl Waker {
    /// Call *after* publishing the work the poller should see. Writes
    /// one byte if — and only if — the poller is parked or about to
    /// park; otherwise returns after a fence and a load.
    pub fn wake(&self) {
        fence(Ordering::SeqCst);
        // The load keeps the common case read-only; the swap elects
        // one writer among concurrent wakers.
        if self.0.parked.load(Ordering::Relaxed) && self.0.parked.swap(false, Ordering::Relaxed) {
            // The socket is nonblocking and holds at most one byte per
            // park, so this cannot block; an error (the poller is gone)
            // leaves nobody to wake.
            let _ = (&self.0.tx).write(&[1]);
        }
    }
}

/// Handle to one registered source, valid until the next
/// [`Poller::clear`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Key(usize);

/// A `poll(2)` wait over a per-pass descriptor set and a wake channel.
/// Used by exactly one thread; see the module docs for the protocol.
pub struct Poller {
    /// `fds[0]` is the wake channel's read end; the rest is the
    /// caller's set for this pass.
    fds: Vec<PollFd>,
    wake_rx: UnixStream,
    state: Arc<WakeState>,
}

impl Poller {
    /// Creates the poller and its wake channel.
    ///
    /// # Errors
    /// Propagates socket-pair creation failures (descriptor limits).
    pub fn new() -> std::io::Result<Self> {
        let (wake_rx, tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        let wake = PollFd { fd: wake_rx.as_raw_fd(), events: POLLIN, revents: 0 };
        let state = Arc::new(WakeState { parked: AtomicBool::new(false), tx });
        Ok(Self { fds: vec![wake], wake_rx, state })
    }

    /// A handle other threads use to end this poller's waits.
    pub fn waker(&self) -> Waker {
        Waker(Arc::clone(&self.state))
    }

    /// Forgets every registered source (not the wake channel).
    pub fn clear(&mut self) {
        self.fds.truncate(1);
    }

    /// Registers `source` for the next [`Self::wait`]: for input when
    /// `read`, for output when `write`. The caller keeps `source` open
    /// until that wait returns (a closed descriptor is reported as
    /// ready, never dereferenced).
    pub fn add(&mut self, source: &impl AsRawFd, read: bool, write: bool) -> Key {
        let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
        self.fds.push(PollFd { fd: source.as_raw_fd(), events, revents: 0 });
        Key(self.fds.len() - 1)
    }

    /// Blocks until a registered source is ready, a [`Waker`] fires or
    /// `timeout` passes. `work_pending` is the re-check of the
    /// protocol: it runs after the parked flag is published and must
    /// report anything a producer announces through `wake()`; when it
    /// returns true the descriptors are still polled, with a zero
    /// timeout. An interrupted or failed `poll` reports nothing ready.
    pub fn wait(&mut self, timeout: Duration, work_pending: impl FnOnce() -> bool) {
        self.state.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let timeout_ms = if work_pending() {
            self.state.parked.store(false, Ordering::Relaxed);
            0
        } else {
            // Round up: a sub-millisecond timeout must not spin.
            c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
        };
        // SAFETY: `fds` is a live, exclusively borrowed Vec of
        // `#[repr(C)]` pollfd records and `len()` is its exact element
        // count, so the kernel reads and writes only inside the
        // allocation; `poll` keeps no pointer past its return. The
        // descriptors themselves are plain integers: a stale one
        // yields POLLNVAL, not undefined behaviour.
        let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NfdsT, timeout_ms) };
        self.state.parked.store(false, Ordering::Relaxed);
        if n < 0 {
            // EINTR or a transient failure: whatever `revents` hold is
            // not from this call.
            for fd in &mut self.fds {
                fd.revents = 0;
            }
            return;
        }
        if self.fds[0].revents != 0 {
            self.drain_wake_bytes();
        }
    }

    /// Whether reading `key`'s source would make progress (data, EOF,
    /// or an error to collect).
    pub fn readable(&self, key: Key) -> bool {
        self.fds[key.0].revents & (POLLIN | POLLFAIL) != 0
    }

    /// Whether writing `key`'s source would make progress (buffer
    /// space, or an error to collect).
    pub fn writable(&self, key: Key) -> bool {
        self.fds[key.0].revents & (POLLOUT | POLLFAIL) != 0
    }

    fn drain_wake_bytes(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                Ok(n) if n == sink.len() => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Short read, WouldBlock, or the impossible EOF (this
                // poller holds a write end itself): drained.
                _ => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Instant;

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn a_wake_issued_while_parking_is_not_lost() {
        // The producer's side of the protocol runs inside the re-check
        // window: the flag is already published, `poll` not yet
        // entered. The byte it writes must end the wait.
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let start = Instant::now();
        poller.wait(LONG, || {
            waker.wake();
            false
        });
        assert!(start.elapsed() < Duration::from_secs(1), "wake lost: {:?}", start.elapsed());
        // The byte was consumed: the next wait runs its full timeout.
        let start = Instant::now();
        poller.wait(Duration::from_millis(30), || false);
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn pending_work_skips_the_block() {
        let mut poller = Poller::new().unwrap();
        let start = Instant::now();
        poller.wait(LONG, || true);
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(!poller.state.parked.load(Ordering::Relaxed));
    }

    #[test]
    fn a_wake_from_another_thread_ends_a_long_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let (parked_tx, parked_rx) = mpsc::channel();
        let t = std::thread::spawn(move || {
            // Runs once the poller is committed to blocking.
            parked_rx.recv().unwrap();
            waker.wake();
        });
        let start = Instant::now();
        poller.wait(LONG, || {
            parked_tx.send(()).unwrap();
            false
        });
        assert!(start.elapsed() < Duration::from_secs(1), "wake took {:?}", start.elapsed());
        t.join().unwrap();
    }

    #[test]
    fn ping_pong_never_loses_a_wake_up() {
        // Two pollers hand a counter back and forth 100 000 times. Each
        // side publishes (store), wakes, then waits with a re-check of
        // the counter; one lost wake-up would stall a side for the
        // 10 s timeout and trip the deadline below.
        const ROUNDS: u64 = 100_000;
        let mut a = Poller::new().unwrap();
        let mut b = Poller::new().unwrap();
        let (wake_a, wake_b) = (a.waker(), b.waker());
        let turn = Arc::new(AtomicU64::new(0));
        let start = Instant::now();
        let t = {
            let turn = Arc::clone(&turn);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let mine = 2 * round + 1;
                    while turn.load(Ordering::Relaxed) != mine {
                        b.wait(LONG, || turn.load(Ordering::Relaxed) == mine);
                    }
                    turn.store(mine + 1, Ordering::Relaxed);
                    wake_a.wake();
                }
            })
        };
        for round in 0..ROUNDS {
            turn.store(2 * round + 1, Ordering::Relaxed);
            wake_b.wake();
            let back = 2 * round + 2;
            while turn.load(Ordering::Relaxed) != back {
                a.wait(LONG, || turn.load(Ordering::Relaxed) == back);
            }
        }
        t.join().unwrap();
        assert!(start.elapsed() < LONG, "a wake-up was lost: {:?}", start.elapsed());
    }

    #[test]
    fn the_timeout_is_honoured_without_a_wake() {
        let mut poller = Poller::new().unwrap();
        let start = Instant::now();
        poller.wait(Duration::from_millis(50), || false);
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(50), "returned early: {waited:?}");
        assert!(waited < Duration::from_secs(2), "overslept: {waited:?}");
        // Sub-millisecond timeouts round up instead of spinning.
        let start = Instant::now();
        poller.wait(Duration::from_micros(10), || false);
        assert!(start.elapsed() >= Duration::from_micros(900));
    }

    #[test]
    fn a_hot_wake_writes_nothing() {
        // Flag clear (the poller is running, not parked): wake() must
        // not touch the socket, so a later wait sees no stale byte.
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        for _ in 0..1000 {
            waker.wake();
        }
        let mut probe = [0u8; 1];
        let err = (&poller.wake_rx).read(&mut probe).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock, "hot wake wrote to the channel");
        let start = Instant::now();
        poller.wait(Duration::from_millis(30), || false);
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn concurrent_wakers_write_one_byte_per_park() {
        // Four wakers race for one published park: the swap elects a
        // single writer, so the channel holds exactly one byte.
        let poller = Poller::new().unwrap();
        let wakers: Vec<Waker> = (0..4).map(|_| poller.waker()).collect();
        poller.state.parked.store(true, Ordering::SeqCst);
        std::thread::scope(|s| {
            for w in &wakers {
                s.spawn(|| w.wake());
            }
        });
        let mut bytes = [0u8; 8];
        assert_eq!((&poller.wake_rx).read(&mut bytes).unwrap(), 1);
        assert!(!poller.state.parked.load(Ordering::SeqCst));
    }

    #[test]
    fn sockets_report_read_and_write_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut poller = Poller::new().unwrap();
        let key = poller.add(&listener, true, false);
        poller.wait(Duration::from_millis(10), || false);
        assert!(!poller.readable(key), "no connection yet");

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller.clear();
        let key = poller.add(&listener, true, false);
        poller.wait(LONG, || false);
        assert!(poller.readable(key), "pending accept is input readiness");
        let (served, _) = listener.accept().unwrap();

        // An idle connection: writable, not readable.
        poller.clear();
        let key = poller.add(&served, true, true);
        poller.wait(LONG, || false);
        assert!(poller.writable(key) && !poller.readable(key));
        // Registered for nothing: data arriving does not report.
        client.write_all(b"x").unwrap();
        poller.clear();
        let quiet = poller.add(&served, false, false);
        let loud = poller.add(&served, true, false);
        poller.wait(LONG, || false);
        assert!(poller.readable(loud) && !poller.readable(quiet));
        // Peer gone: reported even with no interest, so the owner can
        // collect the EOF.
        drop(client);
        poller.clear();
        let key = poller.add(&served, true, false);
        poller.wait(LONG, || false);
        assert!(poller.readable(key));
    }
}
