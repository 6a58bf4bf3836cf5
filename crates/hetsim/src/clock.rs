//! Simulated time: a host timeline plus CUDA-style streams whose work can
//! overlap with the host and with each other.
//!
//! Model: the host clock `now` advances as host code executes. Enqueuing
//! work on a stream schedules it at `max(now, stream tail)`; synchronizing
//! advances `now` to the stream's tail. This is exactly enough to express
//! the compute/transfer overlap the paper exploits for Pathfinder (Fig 11).

/// Identifier of a stream created by [`Clock::create_stream`]. Stream 0 is
/// the default stream and always exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub usize);

/// The default stream (synchronous CUDA calls run here).
pub const DEFAULT_STREAM: StreamId = StreamId(0);

/// Host timeline + stream tails, all in nanoseconds.
#[derive(Debug, Clone)]
pub struct Clock {
    now: f64,
    streams: Vec<f64>,
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock {
    pub fn new() -> Self {
        Clock {
            now: 0.0,
            streams: vec![0.0],
        }
    }

    /// Current host time.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance the host clock by `dt` nanoseconds (host work).
    #[inline]
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "negative time step");
        self.now += dt;
    }

    /// Create a new, initially idle stream.
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.push(self.now);
        StreamId(self.streams.len() - 1)
    }

    /// Number of streams (including the default stream).
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Enqueue `dur` nanoseconds of work on `s`; returns its completion
    /// time. The host does not block.
    pub fn enqueue(&mut self, s: StreamId, dur: f64) -> f64 {
        debug_assert!(dur >= 0.0);
        let tail = &mut self.streams[s.0];
        let start = tail.max(self.now);
        *tail = start + dur;
        *tail
    }

    /// Block the host until everything enqueued on `s` has completed.
    pub fn sync_stream(&mut self, s: StreamId) {
        self.now = self.now.max(self.streams[s.0]);
    }

    /// Block the host until every stream has drained
    /// (`cudaDeviceSynchronize`).
    pub fn sync_all(&mut self) {
        for &t in &self.streams {
            self.now = self.now.max(t);
        }
    }

    /// Tail of every stream, indexed by [`StreamId`] (slot 0 is the
    /// default stream). The per-stream timeline state: entry `i` is the
    /// completion time of the last op enqueued on stream `i`.
    pub fn stream_tails(&self) -> &[f64] {
        &self.streams
    }

    /// Reset time to zero and drop all non-default streams.
    pub fn reset(&mut self) {
        self.now = 0.0;
        self.streams.clear();
        self.streams.push(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_advance() {
        let mut c = Clock::new();
        c.advance(10.0);
        c.advance(5.0);
        assert_eq!(c.now(), 15.0);
    }

    #[test]
    fn sequential_enqueue_on_one_stream_serializes() {
        let mut c = Clock::new();
        let s = c.create_stream();
        assert_eq!(c.enqueue(s, 100.0), 100.0);
        assert_eq!(c.enqueue(s, 50.0), 150.0);
        assert_eq!(c.now(), 0.0); // host did not block
        c.sync_stream(s);
        assert_eq!(c.now(), 150.0);
    }

    #[test]
    fn two_streams_overlap() {
        let mut c = Clock::new();
        let a = c.create_stream();
        let b = c.create_stream();
        c.enqueue(a, 100.0);
        c.enqueue(b, 80.0);
        c.sync_all();
        // Overlapped: total is the max, not the sum.
        assert_eq!(c.now(), 100.0);
    }

    #[test]
    fn enqueue_after_host_progress_starts_at_now() {
        let mut c = Clock::new();
        let s = c.create_stream();
        c.advance(42.0);
        assert_eq!(c.enqueue(s, 10.0), 52.0);
    }

    #[test]
    fn pathfinder_style_pipeline() {
        // Kernel i on compute stream overlaps copy i+1 on copy stream.
        let mut c = Clock::new();
        let compute = c.create_stream();
        let copy = c.create_stream();
        let (kernel_ns, copy_ns, iters) = (100.0, 60.0, 5);
        // Initial copy must finish before the first kernel.
        c.enqueue(copy, copy_ns);
        c.sync_stream(copy);
        for _ in 0..iters {
            c.enqueue(compute, kernel_ns);
            c.enqueue(copy, copy_ns);
            // Next kernel waits for both its input copy and the prior kernel.
            c.sync_stream(copy);
            // (host-side wait models the event dependency)
        }
        c.sync_all();
        // Copies hide behind kernels: total ≈ first copy + n kernels,
        // rather than n*(kernel+copy).
        assert!(c.now() < (kernel_ns + copy_ns) * iters as f64);
        assert!(c.now() >= copy_ns + kernel_ns * iters as f64 - 1e-9);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Clock::new();
        let s = c.create_stream();
        c.enqueue(s, 10.0);
        c.advance(3.0);
        c.reset();
        assert_eq!(c.now(), 0.0);
        assert_eq!(c.stream_count(), 1);
    }

    #[test]
    fn stream_tails_exposes_per_stream_state() {
        let mut c = Clock::new();
        let a = c.create_stream();
        let b = c.create_stream();
        c.enqueue(a, 100.0);
        c.enqueue(b, 80.0);
        assert_eq!(c.stream_tails(), &[0.0, 100.0, 80.0]);
        // Overlap is visible: both tails exceed the host clock.
        assert!(c.stream_tails()[1..].iter().all(|&t| t > c.now()));
    }

    #[test]
    fn default_stream_exists() {
        let mut c = Clock::new();
        c.enqueue(DEFAULT_STREAM, 7.0);
        c.sync_stream(DEFAULT_STREAM);
        assert_eq!(c.now(), 7.0);
    }
}
