#ifndef WPRED_SIM_DES_H_
#define WPRED_SIM_DES_H_

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

namespace wpred {

/// What an event means to whoever scheduled it: a dispatch tag plus a small
/// payload. Plain data, so scheduling an event never allocates.
struct EventTag {
  int kind = 0;      // owner-defined dispatch tag
  int id = 0;        // owner-defined subject (a terminal, a sample row, ...)
  double arg = 0.0;  // owner-defined payload
};

/// One event as the simulator delivers it. `service` is the service time of
/// the FcfsStation job whose completion this is, and 0 for plain events.
struct Event {
  double time = 0.0;
  uint64_t seq = 0;
  EventTag tag;
  double service = 0.0;
};

/// Minimal discrete-event simulation kernel: a clock plus a queue of POD
/// events ordered by (time, insertion sequence), so ties break by insertion
/// order and runs are deterministic. The owner dispatches each event on its
/// tag; an FcfsStation completion goes to FcfsStation::Complete first.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Schedules `tag` to fire `delay` seconds from now (delay >= 0).
  void Schedule(double delay, EventTag tag);

  /// Schedules `tag` to fire at absolute time `time` (>= now).
  void ScheduleAt(double time, EventTag tag);

  double now() const { return now_; }
  uint64_t processed_events() const { return processed_; }
  bool empty() const { return queue_.empty(); }

  /// Calls `dispatch(const Event&)` on each event in time order until the
  /// queue drains or the next event's time exceeds `until`; the clock then
  /// moves up to `until` if it is behind. `dispatch` may schedule events.
  template <typename Dispatch>
  void RunUntil(double until, Dispatch&& dispatch) {
    while (!queue_.empty() && queue_.top().time <= until) {
      const Event event = queue_.top();
      queue_.pop();
      now_ = event.time;
      ++processed_;
      dispatch(event);
    }
    if (now_ < until) now_ = until;
  }

 private:
  friend class FcfsStation;

  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Schedule() for a station job's completion, which carries its service.
  void ScheduleCompletion(double service, EventTag tag);

  double now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

/// Multi-server FCFS queueing station (c servers, one shared queue). Jobs
/// occupy exactly one server for their service time; excess jobs wait in
/// arrival order. Tracks the busy-server time integral so callers can read
/// utilisation over sampling windows, total queueing (wait) time, and
/// completed-job counts.
class FcfsStation {
 public:
  FcfsStation(Simulator* sim, int servers);

  /// Submits a job. When its service completes the simulator delivers an
  /// event tagged `on_done`, which the owner passes to Complete() before
  /// acting on the tag.
  void Submit(double service_time, EventTag on_done);

  /// Books the completion `event` of one of this station's jobs and starts
  /// the next waiting job, if any.
  void Complete(const Event& event);

  int servers() const { return servers_; }
  int busy() const { return busy_; }
  size_t queue_length() const { return waiting_; }
  uint64_t completed() const { return completed_; }

  /// ∫ busy(t) dt since construction, updated through `now`.
  double BusyIntegral() const;
  /// Total time jobs spent waiting in queue (not in service).
  double total_wait_time() const { return total_wait_time_; }
  /// Total service time of completed jobs.
  double total_service_time() const { return total_service_time_; }

 private:
  struct Job {
    double service_time;
    double enqueue_time;
    EventTag on_done;
  };

  void StartService(const Job& job);
  void Accumulate();

  Simulator* sim_;
  int servers_;
  int busy_ = 0;
  uint64_t completed_ = 0;
  double busy_integral_ = 0.0;
  double last_change_ = 0.0;
  double total_wait_time_ = 0.0;
  double total_service_time_ = 0.0;
  // Waiting jobs in arrival order: a ring over a power-of-two vector that
  // only grows, so a long run reuses its slots as the queue drains.
  std::vector<Job> ring_;
  size_t head_ = 0;
  size_t waiting_ = 0;
};

}  // namespace wpred

#endif  // WPRED_SIM_DES_H_
