#include "fpga/pcap.h"

#include <utility>

namespace vs::fpga {

void Pcap::request(sim::SimDuration load_duration, sim::Core& core,
                   sim::EventFn on_done, sim::EventFn on_blocked,
                   std::int64_t bytes) {
  Request req{load_duration, &core, std::move(on_done), sim_.now(), bytes};
  if (busy_) {
    ++stats_.loads_queued_behind_another;
    queued_total_.add();
    queue_depth_.set(static_cast<double>(queue_.size() + 1));
    if (on_blocked) on_blocked();
    queue_.push_back(std::move(req));
    return;
  }
  start(std::move(req));
}

void Pcap::bind_metrics(obs::MetricsRegistry& registry,
                        const std::string& board) {
  obs::Labels labels{{"board", board}};
  loads_total_ =
      obs::CounterHandle{&registry.counter("vs_pcap_loads_total", labels)};
  queued_total_ =
      obs::CounterHandle{&registry.counter("vs_pcap_queued_total", labels)};
  failures_total_ = obs::CounterHandle{
      &registry.counter("vs_pcap_load_failures_total", labels)};
  bytes_total_ = obs::CounterHandle{
      &registry.counter("vs_pcap_bytes_loaded_total", labels)};
  queue_depth_ =
      obs::GaugeHandle{&registry.gauge("vs_pcap_queue_depth", labels)};
  wait_ms_ = obs::HistogramHandle{&registry.histogram(
      "vs_pcap_wait_ms", obs::default_ms_bounds(), labels)};
  load_ms_ = obs::HistogramHandle{&registry.histogram(
      "vs_pcap_load_ms", obs::default_ms_bounds(), labels)};
}

void Pcap::reset() {
  busy_ = false;
  current_ = Request{};
  queue_.clear();
  queue_depth_.set(0.0);
}

void Pcap::start(Request req) {
  busy_ = true;
  stats_.total_wait += sim_.now() - req.enqueued;
  stats_.total_load += req.duration;
  wait_ms_.observe(sim::to_ms(sim_.now() - req.enqueued));
  load_ms_.observe(sim::to_ms(req.duration));
  sim::SimDuration duration = req.duration;
  sim::Core& core = *req.core;
  current_ = std::move(req);
  // The load suspends the issuing core: it is a core operation of the full
  // load duration. Note: if the core is itself mid-operation, the load (and
  // thus the PCAP) effectively starts when the core frees up — matching the
  // real flow where the CPU drives the PCAP transfer. The kPcap kind is
  // how BoardRuntime::kick() detects a scheduler core suspended by a load.
  core.submit(duration, [this] { finish_load(); }, sim::OpKind::kPcap);
}

void Pcap::finish_load() {
  if (failure_probability_ > 0 && rng_.bernoulli(failure_probability_)) {
    // Verification failed: reload immediately, ahead of the queue.
    ++stats_.load_failures;
    failures_total_.add();
    Request retry = std::move(current_);
    retry.enqueued = sim_.now();
    busy_ = false;
    start(std::move(retry));
    return;
  }
  ++stats_.loads_completed;
  loads_total_.add();
  bytes_total_.add(current_.bytes);
  // Move out first: on_done may request another load re-entrantly, which
  // would overwrite current_.
  Request done = std::move(current_);
  busy_ = false;
  if (done.on_done) done.on_done();
  if (!busy_ && !queue_.empty()) {
    Request next = std::move(queue_.front());
    queue_.pop_front();
    queue_depth_.set(static_cast<double>(queue_.size()));
    start(std::move(next));
  } else {
    queue_depth_.set(static_cast<double>(queue_.size()));
  }
}

}  // namespace vs::fpga
