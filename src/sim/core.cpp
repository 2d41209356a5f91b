#include "sim/core.h"

#include <cassert>
#include <utility>

namespace vs::sim {

Core::Core(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

Core::Op& Core::push_op(SimDuration duration, OpKind kind) {
  if (head_ > 0 && queue_.size() == queue_.capacity() &&
      2 * head_ >= queue_.size()) {
    // A core that never drains would otherwise grow the vector forever:
    // reclaim the consumed half instead of reallocating.
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return queue_.emplace_back(Op{duration, nullptr, kind});
}

void Core::bind_metrics(obs::MetricsRegistry& registry) {
  obs::Labels labels{{"core", name_}};
  ops_total_ =
      obs::CounterHandle{&registry.counter("vs_core_ops_total", labels)};
  busy_ns_total_ =
      obs::CounterHandle{&registry.counter("vs_core_busy_ns_total", labels)};
  queue_depth_ =
      obs::GaugeHandle{&registry.gauge("vs_core_queue_depth", labels)};
}

void Core::begin(SimDuration duration, OpKind kind) {
  busy_ = true;
  current_kind_ = kind;
  current_end_ = sim_.now() + duration;
  busy_time_ += duration;
  busy_ns_total_.add(duration);
}

void Core::start(SimDuration duration, OpKind kind) {
  begin(duration, kind);
  finish_event_ = sim_.schedule(duration, [this] { finish_current(); });
}

void Core::start_next() {
  assert(!busy_ && head_ < queue_.size());
  Op& op = queue_[head_++];
  current_done_ = std::move(op.on_done);
  const SimDuration duration = op.duration;
  const OpKind kind = op.kind;
  if (head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  }
  start(duration, kind);
}

void Core::reset() {
  if (busy_) {
    // Destroys the completion event's closure, and with it a callback built
    // there, unrun.
    sim_.cancel(finish_event_);
    // begin() charged the full duration up front; give back the part that
    // will never execute.
    if (current_end_ > sim_.now()) {
      sim::SimDuration remaining = current_end_ - sim_.now();
      busy_time_ -= remaining;
      busy_ns_total_.add(-remaining);
    }
    busy_ = false;
    current_kind_ = OpKind::kOther;
    current_done_ = EventFn{};
  }
  queue_.clear();
  head_ = 0;
  queue_depth_.set(0.0);
}

void Core::finish_current() {
  complete();
  // Move out first: the callback may submit more work and restart the core
  // from the FIFO, which would overwrite current_done_.
  EventFn done = std::move(current_done_);
  if (done) done.fire();
  resume();
}

}  // namespace vs::sim
