//! A deadline clock the test drives. The server reads its deadline clock
//! once when the sweeper picks a group up and once at every batch
//! boundary; a held [`TestClock`] blocks each read until the test grants
//! it and tells it what time it is, so a test decides when a sweep moves
//! on and whether a deadline has passed.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use javaflow_server::DeadlineClock;

#[derive(Default)]
struct State {
    /// Reads that may still pass; `None` lets every read through.
    permits: Option<u64>,
    /// What a read returns; `None` is the real time.
    now: Option<Instant>,
}

/// See the module documentation.
#[derive(Default)]
pub struct TestClock {
    state: Mutex<State>,
    cv: Condvar,
}

#[allow(dead_code)]
impl TestClock {
    /// A clock that lets every read through at the real time.
    pub fn free() -> Arc<TestClock> {
        Arc::new(TestClock::default())
    }

    /// A clock that blocks every read until [`TestClock::grant`].
    pub fn held() -> Arc<TestClock> {
        let clock = TestClock::free();
        clock.hold();
        clock
    }

    /// The hook for `ServerConfig::deadline_clock`.
    pub fn hook(self: &Arc<TestClock>) -> Option<DeadlineClock> {
        let clock = Arc::clone(self);
        Some(DeadlineClock(Arc::new(move || clock.read())))
    }

    /// Blocks every later read until the next grant.
    pub fn hold(&self) {
        self.state.lock().unwrap().permits = Some(0);
    }

    /// Lets `n` more reads through, each returning `at`.
    pub fn grant(&self, n: u64, at: Instant) {
        let mut st = self.state.lock().unwrap();
        st.permits = Some(st.permits.unwrap_or(0) + n);
        st.now = Some(at);
        self.cv.notify_all();
    }

    /// Lets every read through, each returning `at`.
    pub fn run_at(&self, at: Instant) {
        let mut st = self.state.lock().unwrap();
        *st = State { permits: None, now: Some(at) };
        self.cv.notify_all();
    }

    /// Lets every read through at the real time.
    pub fn run_free(&self) {
        let mut st = self.state.lock().unwrap();
        *st = State::default();
        self.cv.notify_all();
    }

    fn read(&self) -> Instant {
        let mut st = self.state.lock().unwrap();
        while st.permits == Some(0) {
            st = self.cv.wait(st).unwrap();
        }
        if let Some(p) = &mut st.permits {
            *p -= 1;
        }
        st.now.unwrap_or_else(Instant::now)
    }
}
