//! Shared listener lifecycle: one bounded-linger stop path for every
//! TCP front end (the stats HTTP server and the query protocol
//! server).
//!
//! Both fronts share [`ListenerHandle`]: the listener is switched to
//! nonblocking mode and the loop body is handed a [`Poller`] to wait on
//! it (and on whatever else the body owns). `stop()` is "set flag, wake the poller, join" — no
//! self-connect, no leaked thread, and the loop leaves its wait at once
//! rather than on its next timeout.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use super::poll::{Poller, Waker};

/// Longest a loop may block in one [`Poller::wait`]. `stop()` and
/// reply delivery wake the poller explicitly; this bounds how stale
/// anything *not* announced through a [`Waker`] can get.
pub const MAX_PARK: Duration = Duration::from_millis(2);

/// A named listener thread with a shared stop flag. Created by
/// [`ListenerHandle::spawn`]; stopped (flag + join) by
/// [`ListenerHandle::stop`] or drop.
pub struct ListenerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
}

impl ListenerHandle {
    /// Binds `addr` (port 0 for ephemeral), switches the listener to
    /// nonblocking mode, and runs `body(listener, stop, poller)` on a
    /// named thread until it returns.
    ///
    /// Contract for `body`: block only in `poller.wait` with a timeout
    /// of at most [`MAX_PARK`], pass it a re-check that reports `stop`
    /// turning true (so a stop racing the park is not slept through),
    /// read `stop` once per pass and return promptly once it is set.
    ///
    /// # Errors
    /// Propagates bind / nonblocking-mode / wake-channel / thread-spawn
    /// failures.
    pub fn spawn<F>(name: &str, addr: impl ToSocketAddrs, body: F) -> std::io::Result<Self>
    where
        F: FnOnce(TcpListener, &AtomicBool, &mut Poller) + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let mut poller = Poller::new()?;
        let waker = poller.waker();
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || body(listener, &stop_flag, &mut poller))?;
        Ok(Self { addr, stop, waker, thread: Some(thread) })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once [`ListenerHandle::stop`] has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Sets the stop flag, wakes the loop out of its wait and joins its
    /// thread. Returns once the thread has exited: at once for an idle
    /// loop, after whatever linger its body applies otherwise.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::Release);
            self.waker.wake();
            let _ = thread.join();
        }
    }
}

impl Drop for ListenerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::time::Instant;

    fn accept_counting_loop(
        listener: TcpListener,
        stop: &AtomicBool,
        poller: &mut Poller,
        hits: Arc<std::sync::atomic::AtomicU64>,
    ) {
        while !stop.load(Ordering::Acquire) {
            poller.clear();
            let key = poller.add(&listener, true, false);
            poller.wait(MAX_PARK, || stop.load(Ordering::Acquire));
            if poller.readable(key) && listener.accept().is_ok() {
                hits.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn stop_ends_a_wait_no_timeout_would() {
        // An hour-long timeout: only the wake, or the re-check seeing
        // the flag when stop races the park, can end this loop.
        let h = ListenerHandle::spawn("t-hour", "127.0.0.1:0", |l, s, p| {
            while !s.load(Ordering::Acquire) {
                p.clear();
                p.add(&l, true, false);
                p.wait(Duration::from_secs(3600), || s.load(Ordering::Acquire));
            }
        })
        .unwrap();
        let start = Instant::now();
        h.stop();
        assert!(start.elapsed() < Duration::from_secs(1), "stop lingered: {:?}", start.elapsed());
    }

    #[test]
    fn start_stop_twice_on_same_port() {
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let h1 = {
            let hits = Arc::clone(&hits);
            ListenerHandle::spawn("t-accept1", "127.0.0.1:0", move |l, s, p| {
                accept_counting_loop(l, s, p, hits)
            })
            .unwrap()
        };
        let addr = h1.local_addr();
        TcpStream::connect(addr).unwrap();
        // Stop only after the loop has seen the connection — stop is
        // immediate by design and may otherwise beat the accept.
        let deadline = Instant::now() + Duration::from_secs(2);
        while hits.load(Ordering::Relaxed) < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        h1.stop();
        // The port is fully released: a second handle can bind the
        // exact same port and serve.
        let h2 = {
            let hits = Arc::clone(&hits);
            ListenerHandle::spawn("t-accept2", addr, move |l, s, p| {
                accept_counting_loop(l, s, p, hits)
            })
            .unwrap()
        };
        TcpStream::connect(addr).unwrap();
        // Both connections were seen by their respective loops.
        let deadline = Instant::now() + Duration::from_secs(2);
        while hits.load(Ordering::Relaxed) < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        h2.stop();
    }

    #[test]
    fn drop_is_equivalent_to_stop() {
        let addr;
        {
            let h = ListenerHandle::spawn("t-drop", "127.0.0.1:0", |l, s, p| {
                accept_counting_loop(l, s, p, Arc::new(Default::default()))
            })
            .unwrap();
            addr = h.local_addr();
        }
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }
}
