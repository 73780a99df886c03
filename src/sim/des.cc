#include "sim/des.h"

#include <algorithm>

#include "common/check.h"

namespace wpred {

void Simulator::Schedule(double delay, EventTag tag) {
  WPRED_CHECK_GE(delay, 0.0);
  ScheduleAt(now_ + delay, tag);
}

void Simulator::ScheduleAt(double time, EventTag tag) {
  WPRED_CHECK_GE(time, now_);
  queue_.push(Event{time, next_seq_++, tag, 0.0});
}

void Simulator::ScheduleCompletion(double service, EventTag tag) {
  WPRED_CHECK_GE(service, 0.0);
  queue_.push(Event{now_ + service, next_seq_++, tag, service});
}

FcfsStation::FcfsStation(Simulator* sim, int servers)
    : sim_(sim), servers_(servers) {
  WPRED_CHECK(sim != nullptr);
  WPRED_CHECK_GE(servers, 1);
}

void FcfsStation::Submit(double service_time, EventTag on_done) {
  WPRED_CHECK_GE(service_time, 0.0);
  const Job job{service_time, sim_->now(), on_done};
  if (busy_ < servers_) {
    StartService(job);
    return;
  }
  if (waiting_ == ring_.size()) {
    // Full: unroll into a vector twice the size, oldest job first.
    std::vector<Job> grown(std::max<size_t>(8, 2 * ring_.size()));
    for (size_t i = 0; i < waiting_; ++i) {
      grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(grown);
    head_ = 0;
  }
  ring_[(head_ + waiting_) & (ring_.size() - 1)] = job;
  ++waiting_;
}

void FcfsStation::Complete(const Event& event) {
  Accumulate();
  --busy_;
  ++completed_;
  total_service_time_ += event.service;
  if (waiting_ > 0) {
    const Job next = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --waiting_;
    StartService(next);
  }
}

void FcfsStation::StartService(const Job& job) {
  Accumulate();
  ++busy_;
  total_wait_time_ += sim_->now() - job.enqueue_time;
  sim_->ScheduleCompletion(job.service_time, job.on_done);
}

void FcfsStation::Accumulate() {
  busy_integral_ += busy_ * (sim_->now() - last_change_);
  last_change_ = sim_->now();
}

double FcfsStation::BusyIntegral() const {
  return busy_integral_ + busy_ * (sim_->now() - last_change_);
}

}  // namespace wpred
