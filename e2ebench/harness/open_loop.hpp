// Single-thread open-loop client: sends request i at its due time whatever
// the server is doing, and times every request from when it was DUE, so a
// stall is charged to every request it delays (not just to the one that was
// in flight). Between sends the thread busy-waits and polls the oldest
// outstanding requests in FIFO order, timestamping each completion when it
// is first seen — no waiter thread per request.
//
// Templated on the clock and on the submit / poll calls so the self-tests
// can drive it with a fake server and a fake clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace e2ebench {

struct OpenLoopRecord {
  std::int64_t due_ns = 0;        ///< when the schedule said to send
  std::int64_t send_ns = 0;       ///< when the client started sending
  std::int64_t submitted_ns = 0;  ///< when submit() returned
  std::int64_t done_ns = 0;       ///< when the client first saw it resolved
};

/// Latency charged to a request: from its due time to its observed
/// completion (never from the send time).
inline std::int64_t latency_from_due_ns(const OpenLoopRecord& r) {
  return r.done_ns - r.due_ns;
}

/// Runs one phase. `due_offsets` are ns after `start_ns`, ascending.
/// `submit(i)` sends request i; `resolved(i)` reports whether it is done.
/// Returns one record per request once every request is resolved.
template <class Now, class Submit, class Resolved>
std::vector<OpenLoopRecord> run_open_loop(
    const std::vector<std::int64_t>& due_offsets, std::int64_t start_ns,
    Now&& now, Submit&& submit, Resolved&& resolved) {
  const std::size_t n = due_offsets.size();
  std::vector<OpenLoopRecord> records(n);
  std::size_t next = 0;  // next request to send
  std::size_t head = 0;  // oldest unresolved request
  while (head < n) {
    bool progressed = false;
    while (head < next && resolved(head)) {
      records[head].done_ns = now();
      ++head;
      progressed = true;
    }
    if (next < n) {
      const std::int64_t due = start_ns + due_offsets[next];
      const std::int64_t t = now();
      if (t >= due) {
        records[next].due_ns = due;
        records[next].send_ns = t;
        submit(next);
        records[next].submitted_ns = now();
        ++next;
        progressed = true;
      }
    }
    // Spinning without yielding can hold off a server thread that the
    // scheduler woke onto this CPU for a whole time slice.
    if (!progressed) std::this_thread::yield();
  }
  return records;
}

}  // namespace e2ebench
