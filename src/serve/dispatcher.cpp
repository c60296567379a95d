#include "serve/dispatcher.hpp"

#include <deque>
#include <exception>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "advise/advise.hpp"
#include "core/result_cache.hpp"
#include "core/single_flight.hpp"
#include "core/sweep.hpp"
#include "serve/router.hpp"
#include "util/metrics.hpp"
#include "util/mutex.hpp"

namespace opm::serve {

struct Dispatcher::Impl {
  explicit Impl(const DispatchConfig& cfg)
      : config(cfg),
        admitted(util::MetricsRegistry::instance().counter("serve.admitted")),
        responses(util::MetricsRegistry::instance().counter("serve.responses")),
        computed(util::MetricsRegistry::instance().counter("serve.computed")),
        coalesce_hits(util::MetricsRegistry::instance().counter("serve.coalesce_hits")),
        rejected_overload(util::MetricsRegistry::instance().counter("serve.rejected_overload")),
        rejected_quota(util::MetricsRegistry::instance().counter("serve.rejected_quota")),
        rejected_draining(util::MetricsRegistry::instance().counter("serve.rejected_draining")),
        rejected_redirect(util::MetricsRegistry::instance().counter("serve.rejected_redirect")),
        errors_internal(util::MetricsRegistry::instance().counter("serve.errors_internal")),
        config_applied(util::MetricsRegistry::instance().counter("serve.config_applied")) {
    if (cfg.shard_count > 0) ring = HashRing(cfg.shard_count);
  }

  struct Item {
    protocol::Request req;
    Respond respond;
  };

  DispatchConfig config;
  /// Non-empty iff this dispatcher is one shard of a sharded tier.
  HashRing ring;

  util::Counter& admitted;
  util::Counter& responses;
  util::Counter& computed;
  util::Counter& coalesce_hits;
  util::Counter& rejected_overload;
  util::Counter& rejected_quota;
  util::Counter& rejected_draining;
  util::Counter& rejected_redirect;
  util::Counter& errors_internal;
  util::Counter& config_applied;

  mutable util::Mutex mutex;
  util::CondVar work_cv;     // workers: queued work is available
  util::CondVar drained_cv;  // drain(): queue + in-flight ran dry
  std::unordered_map<std::uint64_t, std::deque<Item>> queues OPM_GUARDED_BY(mutex);
  /// Clients with non-empty queues, in service order.
  std::deque<std::uint64_t> rr OPM_GUARDED_BY(mutex);
  std::size_t queued_count OPM_GUARDED_BY(mutex) = 0;
  std::size_t in_flight_count OPM_GUARDED_BY(mutex) = 0;
  bool draining OPM_GUARDED_BY(mutex) = false;
  bool stopping OPM_GUARDED_BY(mutex) = false;

  util::Mutex drain_mutex;  // serializes drain() callers
  bool drained OPM_GUARDED_BY(drain_mutex) = false;

  core::SingleFlight flights;
  /// Spawned by the constructor, joined by drain() — the drain_mutex
  /// serializes the only post-construction access.
  std::vector<std::thread> workers;

  void answer(const Respond& respond, std::string_view head, std::string_view body = {},
              std::string_view tail = {}) {
    responses.add(1);
    respond(head, body, tail);
  }

  /// Sends one waiter its success line: its own head, the flight's escaped
  /// payload as held, and kPayloadTail. An advise payload's v2
  /// sampled/max_rel_error members are read from those bytes (fresh,
  /// coalesced, or cache-served — all the same bytes), so the fast-or-exact
  /// contract holds on every serving path without threading sampling state
  /// through execute(). Only advise payloads carry a sampling section.
  void answer_payload(const Respond& respond, const protocol::Envelope& env,
                      protocol::RequestType type, std::string_view payload) {
    protocol::PayloadHead head;
    head.type = type;
    if (type == protocol::RequestType::kAdvise)
      advise::payload_sampling(payload, &head.sampled, &head.max_rel_error);
    answer(respond, protocol::splice_head(env, head), payload, protocol::kPayloadTail);
  }

  protocol::Envelope envelope(const protocol::Request& req) const {
    return protocol::envelope_of(req, config.shard_id);
  }

  /// Hot-reloads the sweep knobs a "config" request carries. Answered
  /// inline (never queued) so a saturated or draining server still accepts
  /// reconfiguration — with one exception: resizing the sweep worker pool
  /// is not safe concurrent with running sweeps, so that knob is refused
  /// (retryably) while anything is queued or in flight.
  void handle_config(const protocol::Request& req, const Respond& respond) {
    const protocol::Envelope env = envelope(req);
    const protocol::ConfigRequest& c = req.config;
    if (c.has_sweep_workers) {
      bool busy = false;
      {
        util::MutexLock lock(mutex);
        busy = queued_count != 0 || in_flight_count != 0;
        // Still under the mutex: submit() must take it to enqueue, so no
        // sweep can start while the pool is being rebuilt.
        if (!busy) core::set_sweep_workers(static_cast<std::size_t>(c.sweep_workers));
      }
      if (busy) {
        answer(respond,
               protocol::render_error(
                   env, protocol::make_error("overload",
                                             "cannot resize sweep workers while requests are "
                                             "queued or in flight; retry later",
                                             config.retry_after_ms)));
        return;
      }
    }
    if (c.has_cache_enabled) {
      core::CacheConfig cc = core::result_cache_config();
      cc.enabled = c.cache_enabled;
      core::configure_result_cache(cc);
    }
    if (c.has_advise_verify) advise::set_verify_enabled(c.advise_verify);
    config_applied.add(1);
    std::string payload = "{\"applied\":{";
    const char* sep = "";
    if (c.has_sweep_workers) {
      payload += "\"sweep_workers\":" + std::to_string(c.sweep_workers);
      sep = ",";
    }
    if (c.has_cache_enabled) {
      payload += sep;
      payload += "\"cache_enabled\":";
      payload += c.cache_enabled ? "true" : "false";
      sep = ",";
    }
    if (c.has_advise_verify) {
      payload += sep;
      payload += "\"advise_verify\":";
      payload += c.advise_verify ? "true" : "false";
    }
    payload += "}}";
    answer(respond, protocol::render_response(env, req.type, payload));
  }

  void process(Item item) {
    const util::Digest128 key = protocol::request_key(item.req);
    const protocol::Envelope env = envelope(item.req);
    bool leader = false;
    auto flight = flights.try_begin(key, &leader);
    if (leader) {
      try {
        auto payload = std::make_shared<const std::string>(protocol::execute_escaped(item.req));
        computed.add(1);
        flights.complete(flight, payload);
        answer_payload(item.respond, env, item.req.type, *payload);
      } catch (const std::exception& e) {
        flights.fail(flight);
        errors_internal.add(1);
        answer(item.respond,
               protocol::render_error(env, protocol::make_error("internal", e.what())));
      } catch (...) {
        flights.fail(flight);
        errors_internal.add(1);
        answer(item.respond,
               protocol::render_error(env, protocol::make_error("internal", "sweep failed")));
      }
      return;
    }
    const core::SingleFlight::Payload payload = flights.share(flight);
    if (payload) {
      coalesce_hits.add(1);
      answer_payload(item.respond, env, item.req.type, *payload);
    } else {
      errors_internal.add(1);
      answer(item.respond,
             protocol::render_error(
                 env, protocol::make_error("internal", "coalesced computation failed")));
    }
  }

  void worker_loop() OPM_EXCLUDES(mutex) {
    for (;;) {
      Item item;
      {
        util::MutexLock lock(mutex);
        while (!stopping && queued_count == 0) work_cv.wait(mutex);
        if (queued_count == 0) return;  // stopping with an empty queue
        const std::uint64_t client = rr.front();
        rr.pop_front();
        auto it = queues.find(client);
        item = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty()) {
          queues.erase(it);
        } else {
          rr.push_back(client);  // fairness: back of the line after one item
        }
        --queued_count;
        ++in_flight_count;
      }
      process(std::move(item));
      {
        util::MutexLock lock(mutex);
        --in_flight_count;
      }
      drained_cv.notify_all();
    }
  }
};

Dispatcher::Dispatcher(const DispatchConfig& config) : impl_(new Impl(config)) {
  const std::size_t n = config.workers == 0 ? 1 : config.workers;
  impl_->workers.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

Dispatcher::~Dispatcher() {
  drain();
  delete impl_;
}

void Dispatcher::submit(std::uint64_t client, protocol::Request req, Respond respond) {
  const protocol::Envelope env = impl_->envelope(req);
  // Control-plane requests bypass the queue: observability must keep
  // working precisely when the queue is the problem.
  if (req.type == protocol::RequestType::kPing) {
    impl_->answer(respond, protocol::render_pong(env));
    return;
  }
  if (req.type == protocol::RequestType::kStats) {
    impl_->answer(respond, protocol::render_stats(env, stats_json()));
    return;
  }
  if (req.type == protocol::RequestType::kHello) {
    // Auth lives in the transport; a hello that reaches the dispatcher
    // (unix / stdio, or an already-authed connection) just acks.
    impl_->answer(respond, protocol::render_hello_ok(env));
    return;
  }
  if (req.type == protocol::RequestType::kConfig) {
    impl_->handle_config(req, respond);
    return;
  }

  // Ownership check (sharded tier only): a sweep this shard does not own
  // is redirected, never computed — computing it would pollute this
  // shard's memory LRU with another shard's key range.
  if (!impl_->ring.empty()) {
    const int owner = impl_->ring.lookup(protocol::request_key(req));
    if (owner != impl_->config.shard_id) {
      impl_->rejected_redirect.add(1);
      protocol::Error err = protocol::make_error(
          "redirect", "this shard does not own the request key; ask the hinted shard");
      err.shard = owner;
      impl_->answer(respond, protocol::render_error(env, err));
      return;
    }
  }

  bool draining = false;
  bool over_quota = false;
  {
    util::MutexLock lock(impl_->mutex);
    draining = impl_->draining;
    if (!draining && impl_->config.per_client_quota > 0) {
      auto it = impl_->queues.find(client);
      over_quota = it != impl_->queues.end() &&
                   it->second.size() >= impl_->config.per_client_quota;
    }
    if (!draining && !over_quota && impl_->queued_count < impl_->config.queue_depth) {
      auto& q = impl_->queues[client];
      if (q.empty()) impl_->rr.push_back(client);
      q.push_back(Impl::Item{std::move(req), std::move(respond)});
      ++impl_->queued_count;
      impl_->admitted.add(1);
      impl_->work_cv.notify_one();
      return;
    }
  }
  // Rejected — answer inline on the submitting thread.
  if (draining) {
    impl_->rejected_draining.add(1);
    impl_->answer(respond,
                  protocol::render_error(
                      env, protocol::make_error("draining",
                                                "server is draining; resubmit elsewhere",
                                                impl_->config.retry_after_ms)));
  } else if (over_quota) {
    impl_->rejected_quota.add(1);
    impl_->answer(respond,
                  protocol::render_error(
                      env, protocol::make_error("overload",
                                                "per-client quota exceeded; retry later",
                                                impl_->config.retry_after_ms)));
  } else {
    impl_->rejected_overload.add(1);
    impl_->answer(respond,
                  protocol::render_error(
                      env, protocol::make_error("overload", "request queue is full; retry later",
                                                impl_->config.retry_after_ms)));
  }
}

void Dispatcher::drain() {
  util::MutexLock serial(impl_->drain_mutex);
  if (impl_->drained) return;
  {
    util::MutexLock lock(impl_->mutex);
    impl_->draining = true;
    while (impl_->queued_count != 0 || impl_->in_flight_count != 0)
      impl_->drained_cv.wait(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->workers) t.join();
  impl_->workers.clear();
  impl_->drained = true;
}

std::string Dispatcher::stats_json() const {
  std::size_t queued = 0, in_flight = 0;
  {
    util::MutexLock lock(impl_->mutex);
    queued = impl_->queued_count;
    in_flight = impl_->in_flight_count;
  }
  const auto& reg = util::MetricsRegistry::instance();
  std::ostringstream os;
  os << "{\"queued\":" << queued << ",\"in_flight\":" << in_flight
     << ",\"serve\":" << reg.json("serve.") << ",\"cache\":" << reg.json("cache.")
     << ",\"sweep\":" << reg.json("sweep.") << ",\"sim\":" << reg.json("sim.")
     << ",\"advise\":" << reg.json("advise.") << "}";
  return os.str();
}

std::size_t Dispatcher::queued() const {
  util::MutexLock lock(impl_->mutex);
  return impl_->queued_count;
}

std::size_t Dispatcher::in_flight() const {
  util::MutexLock lock(impl_->mutex);
  return impl_->in_flight_count;
}

}  // namespace opm::serve
