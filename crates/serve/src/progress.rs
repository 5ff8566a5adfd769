//! Live session progress: a bounded broadcast channel owned by each
//! [`SimService`](crate::SimService). The scheduler publishes one
//! [`ProgressSample`] per slice it retires;
//! [`SimService::subscribe_progress`](crate::SimService::subscribe_progress)
//! hands out [`ProgressSubscription`]s.
//!
//! Design constraints, in order:
//!
//! 1. **Free when nobody listens.** A publish with no subscriber costs one
//!    relaxed atomic load — no lock, no allocation. The
//!    `progress_no_alloc` test pins it the way `apr-telemetry` pins its
//!    disabled recorder.
//! 2. **Bounded.** A slow subscriber never blocks a publisher and never
//!    grows memory: each subscription owns a fixed-capacity deque and
//!    drops its *oldest* sample on overflow, counting what it lost.
//! 3. **Broadcast.** Every live subscriber sees every sample published
//!    after it subscribed (subject to its own bound and session filter).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

/// Per-subscription queue bound.
const SUBSCRIPTION_CAPACITY: usize = 1024;

/// Per-slice progress of one serve session, published by the scheduler
/// worker after each slice it grants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSample {
    /// Session id, unique within its service.
    pub session: u64,
    /// Steps completed so far.
    pub steps_done: u64,
    /// Target step count.
    pub target_steps: u64,
    /// Slices granted so far (this sample reports the latest one).
    pub slice: u64,
    /// Stepping throughput of the slice just finished (steps per second
    /// of pure stepping time, excluding resume/suspend overhead).
    pub steps_per_sec: f64,
    /// Whether the session's cold build was served from the warm-state
    /// cache (`None` until known, i.e. for resumed slices it carries the
    /// admission-time answer).
    pub cache_hit: Option<bool>,
    /// True on the sample announcing session completion.
    pub completed: bool,
}

#[derive(Debug)]
struct SubscriberInner {
    /// The one session this subscriber follows (`None`: all of them).
    session: Option<u64>,
    queue: Mutex<VecDeque<ProgressSample>>,
    ready: Condvar,
    capacity: usize,
    dropped: AtomicU64,
}

/// The broadcast channel behind one service's progress stream.
#[derive(Debug, Default)]
pub struct ProgressHub {
    subscribers: Mutex<Vec<Weak<SubscriberInner>>>,
    active: AtomicUsize,
    published: AtomicU64,
}

impl ProgressHub {
    /// New hub with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a sample to every live subscriber that follows its
    /// session. With no subscribers this is one relaxed atomic load —
    /// safe to call from hot paths.
    #[inline]
    pub fn publish(&self, sample: ProgressSample) {
        if self.active.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.publish_slow(sample);
    }

    fn publish_slow(&self, sample: ProgressSample) {
        let mut subs = self.subscribers.lock().unwrap();
        subs.retain(|weak| {
            let Some(sub) = weak.upgrade() else {
                return false;
            };
            if sub.session.is_some_and(|id| id != sample.session) {
                return true;
            }
            let mut queue = sub.queue.lock().unwrap();
            if queue.len() == sub.capacity {
                queue.pop_front();
                sub.dropped.fetch_add(1, Ordering::Relaxed);
            }
            queue.push_back(sample);
            drop(queue);
            sub.ready.notify_all();
            true
        });
        self.active.store(subs.len(), Ordering::Relaxed);
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    /// Subscribe to `session`'s samples, or to every session's when
    /// `None`. The subscription sees every such sample published after
    /// this call, oldest dropped first if the consumer lags past the
    /// queue bound.
    pub fn subscribe(&self, session: Option<u64>) -> ProgressSubscription {
        self.subscribe_with_capacity(session, SUBSCRIPTION_CAPACITY)
    }

    fn subscribe_with_capacity(
        &self,
        session: Option<u64>,
        capacity: usize,
    ) -> ProgressSubscription {
        let inner = Arc::new(SubscriberInner {
            session,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity,
            dropped: AtomicU64::new(0),
        });
        let mut subs = self.subscribers.lock().unwrap();
        subs.retain(|w| w.strong_count() > 0);
        subs.push(Arc::downgrade(&inner));
        self.active.store(subs.len(), Ordering::Relaxed);
        ProgressSubscription { inner }
    }

    /// Samples published while at least one subscriber was live.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Live subscriptions right now.
    pub fn subscriber_count(&self) -> usize {
        let mut subs = self.subscribers.lock().unwrap();
        subs.retain(|w| w.strong_count() > 0);
        let n = subs.len();
        self.active.store(n, Ordering::Relaxed);
        n
    }
}

/// A bounded receive handle returned by [`ProgressHub::subscribe`].
/// Dropping it unsubscribes (publishers notice lazily, on their next
/// publish).
#[derive(Debug)]
pub struct ProgressSubscription {
    inner: Arc<SubscriberInner>,
}

impl ProgressSubscription {
    /// Pop the oldest queued sample, if any, without blocking.
    pub fn try_recv(&self) -> Option<ProgressSample> {
        self.inner.queue.lock().unwrap().pop_front()
    }

    /// Pop the oldest queued sample, waiting up to `timeout` for one to
    /// arrive.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<ProgressSample> {
        let queue = self.inner.queue.lock().unwrap();
        let (mut queue, _) = self
            .inner
            .ready
            .wait_timeout_while(queue, timeout, |q| q.is_empty())
            .unwrap();
        queue.pop_front()
    }

    /// Samples this subscription lost to its bound (observability of the
    /// observer's own lag).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(session: u64, steps_done: u64) -> ProgressSample {
        ProgressSample {
            session,
            steps_done,
            target_steps: 100,
            slice: 1,
            steps_per_sec: 0.0,
            cache_hit: None,
            completed: false,
        }
    }

    fn drain(sub: &ProgressSubscription) -> Vec<ProgressSample> {
        std::iter::from_fn(|| sub.try_recv()).collect()
    }

    #[test]
    fn broadcast_reaches_every_subscriber() {
        let hub = ProgressHub::new();
        let a = hub.subscribe(None);
        let b = hub.subscribe(None);
        let only_2 = hub.subscribe(Some(2));
        hub.publish(progress(1, 10));
        hub.publish(progress(2, 20));
        assert_eq!(drain(&a).len(), 2);
        assert_eq!(drain(&b).len(), 2);
        assert_eq!(drain(&only_2), [progress(2, 20)]);
        assert_eq!(hub.published(), 2);
    }

    #[test]
    fn publish_without_subscribers_is_dropped() {
        let hub = ProgressHub::new();
        hub.publish(progress(1, 1));
        assert_eq!(hub.published(), 0, "fast path does not even count");
        let sub = hub.subscribe(None);
        assert!(sub.try_recv().is_none(), "no retroactive delivery");
    }

    #[test]
    fn bound_drops_oldest_and_counts() {
        let hub = ProgressHub::new();
        let sub = hub.subscribe_with_capacity(None, 2);
        for i in 0..5 {
            hub.publish(progress(1, i));
        }
        assert_eq!(sub.dropped(), 3);
        let got = drain(&sub);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].steps_done, 3, "oldest were dropped");
    }

    #[test]
    fn dropped_subscription_unregisters() {
        let hub = ProgressHub::new();
        let sub = hub.subscribe(None);
        assert_eq!(hub.subscriber_count(), 1);
        drop(sub);
        assert_eq!(hub.subscriber_count(), 0);
        hub.publish(progress(1, 1));
        assert_eq!(hub.published(), 0, "publish sees zero active again");
    }

    #[test]
    fn recv_timeout_wakes_on_publish() {
        let hub = Arc::new(ProgressHub::new());
        let sub = hub.subscribe(None);
        let publisher = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                hub.publish(progress(7, 42));
            })
        };
        let got = sub.recv_timeout(Duration::from_secs(5));
        publisher.join().unwrap();
        assert_eq!(got.map(|p| p.session), Some(7));
        assert!(sub.recv_timeout(Duration::from_millis(5)).is_none());
    }
}
