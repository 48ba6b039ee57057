//! Requests and per-request completion records.

/// One inference request: a prompt to prefill and a number of output
/// tokens to decode, stamped with its tenant and SLO class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Issue-order id (also the FIFO admission order for ties).
    pub id: u32,
    /// Arrival wall-clock time, seconds.
    pub arrival_s: f64,
    /// Prompt tokens to prefill.
    pub prompt_len: u32,
    /// Output tokens to decode.
    pub output_len: u32,
    /// Owning tenant id (round-robin within the request's class).
    pub tenant: u32,
    /// Session key: stable across a user's successive turns, so
    /// affinity routers can keep a conversation on the replica that
    /// already holds its KV. Workload tapes stamp it from the tenant id
    /// (one ongoing conversation per tenant); trace-driven callers may
    /// carry richer keys.
    pub session: u64,
    /// Index into the workload's SLO classes.
    pub class: u8,
    /// Scheduling priority copied from the class spec (0 = most urgent).
    pub priority: u8,
    /// First-token deadline, seconds: arrival plus the class TTFT
    /// target. Deadline-aware policies order admission by this.
    pub deadline_s: f64,
}

impl Request {
    /// KV tokens this request occupies at its longest (prompt plus every
    /// generated token) — the conservative admission reservation.
    #[must_use]
    pub fn reserved_tokens(&self) -> u64 {
        u64::from(self.prompt_len) + u64::from(self.output_len)
    }
}

/// The lifecycle timestamps of one completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Issue-order id.
    pub id: u32,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// First admission into the serving batch, seconds (preemptions do
    /// not reset it).
    pub admit_s: f64,
    /// Completion of the first output token, seconds.
    pub first_token_s: f64,
    /// Completion of the last output token, seconds.
    pub finish_s: f64,
    /// Prompt tokens.
    pub prompt_len: u32,
    /// Output tokens emitted.
    pub output_len: u32,
    /// Owning tenant id.
    pub tenant: u32,
    /// Index into the workload's SLO classes.
    pub class: u8,
    /// Times this request was preempted and later resumed.
    pub preemptions: u32,
}

impl RequestRecord {
    /// Time to first token: arrival to first output token, seconds.
    #[must_use]
    pub fn ttft_s(&self) -> f64 {
        self.first_token_s - self.arrival_s
    }

    /// Time per output token after the first, seconds (0 for
    /// single-token outputs).
    #[must_use]
    pub fn tpot_s(&self) -> f64 {
        if self.output_len <= 1 {
            0.0
        } else {
            (self.finish_s - self.first_token_s) / f64::from(self.output_len - 1)
        }
    }

    /// End-to-end latency: arrival to last token, seconds.
    #[must_use]
    pub fn e2e_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RequestRecord {
        RequestRecord {
            id: 0,
            arrival_s: 1.0,
            admit_s: 1.5,
            first_token_s: 2.0,
            finish_s: 4.0,
            prompt_len: 100,
            output_len: 5,
            tenant: 0,
            class: 0,
            preemptions: 0,
        }
    }

    #[test]
    fn latency_decomposition() {
        let r = record();
        assert!((r.ttft_s() - 1.0).abs() < 1e-12);
        assert!((r.tpot_s() - 0.5).abs() < 1e-12);
        assert!((r.e2e_s() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_token_output_has_zero_tpot() {
        let r = RequestRecord {
            output_len: 1,
            ..record()
        };
        assert_eq!(r.tpot_s(), 0.0);
    }

    #[test]
    fn reservation_covers_prompt_and_output() {
        let q = Request {
            id: 0,
            arrival_s: 0.0,
            prompt_len: 100,
            output_len: 28,
            tenant: 0,
            session: 0,
            class: 0,
            priority: 0,
            deadline_s: 0.5,
        };
        assert_eq!(q.reserved_tokens(), 128);
    }
}
